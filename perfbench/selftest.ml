(* [--selftest]: the benchmark's own tests — percentile rule, compare
   verdicts, the daemon schedule, replay fidelity and the correctness
   checks' ability to fail. *)

open Ftqc
open Common

let failures = ref 0

let test name f =
  match f () with
  | () -> Printf.printf "ok   %s\n%!" name
  | exception e ->
    incr failures;
    Printf.printf "FAIL %s: %s\n%!" name (Printexc.to_string e)

let expect what cond = if not cond then failwith what
let close a b = Float.abs (a -. b) < 1e-9
let range a b = List.init (b - a + 1) (fun i -> float_of_int (a + i))

let percentiles () =
  expect "p90 of 100 samples"
    (Option.map (close 90.1) (Sample.percentile (range 1 100) 0.9) = Some true);
  expect "p90 of 99 samples is unsupported" (Sample.percentile (range 1 99) 0.9 = None);
  expect "p99 of 999 samples is unsupported" (Sample.percentile (range 1 999) 0.99 = None);
  expect "p99 of 1000 samples" (Sample.percentile (range 1 1000) 0.99 <> None);
  expect "odd median" (close (Sample.median [ 3.; 1.; 2. ]) 2.0);
  expect "even median" (close (Sample.median [ 4.; 1.; 3.; 2. ]) 2.5);
  (* Python: statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25] *)
  let q1, q2, q3 = Sample.quartiles (range 1 10) in
  expect "python quartiles" (close q1 2.75 && close q2 5.5 && close q3 8.25)

let verdicts () =
  let base = [ 100.; 101.; 99.; 100.5; 99.5; 100.2; 99.8; 100.1; 99.9; 100. ] in
  let shift d = List.map (fun x -> x +. d) base in
  let v ?(better = Spec.Lower) ?(bound = Some 0.1) ?(base = base) new_ =
    Compare.verdict ~better ~bound ~base ~new_
  in
  expect "10% faster is improved" (v (shift (-10.)) = Compare.Improved);
  expect "identical is unchanged" (v base = Compare.Unchanged);
  expect "5% slower within a 10% bound" (v (shift 5.) = Compare.Unchanged);
  expect "20% slower is regressed" (v (shift 20.) = Compare.Regressed);
  expect "higher-is-better gain" (v ~better:Spec.Higher (shift 10.) = Compare.Improved);
  let noisy = [ 60.; 140.; 80.; 120.; 100.; 70.; 130.; 90.; 110.; 100. ] in
  expect "spread wider than the bound is unresolved"
    (v ~base:noisy (List.map (fun x -> x +. 5.) noisy) = Compare.Unresolved);
  expect "8 wins of 10 is not improved"
    (v (List.mapi (fun i x -> if i < 2 then x +. 1. else x -. 10.) base)
     <> Compare.Improved);
  expect "unbounded loss is regressed" (v ~bound:None (shift 10.) = Compare.Regressed);
  expect "unbounded noise is unchanged" (v ~bound:None (shift 0.1) = Compare.Unchanged)

let schedule () =
  let seconds = 10.0 in
  let s = Daemon.schedule ~seed:7 ~seconds in
  let key (it : Daemon.item) = (it.due, Svc.Protocol.to_canonical (Svc.Protocol.Run it.est)) in
  expect "same seed, same schedule"
    (Array.map key s = Array.map key (Daemon.schedule ~seed:7 ~seconds));
  expect "another seed, another schedule"
    (Array.map key s <> Array.map key (Daemon.schedule ~seed:8 ~seconds));
  let n = Array.length s in
  expect "rate" (n = int_of_float (Daemon.rate *. seconds));
  expect "last request due within the phase" (s.(n - 1).due < seconds);
  let fresh = Array.to_list s |> List.filter (fun (it : Daemon.item) -> it.original = None) in
  let share = float_of_int (n - List.length fresh) /. float_of_int n in
  expect (Printf.sprintf "repeat share %.3f" share) (Float.abs (share -. Daemon.repeat_share) < 0.05);
  Array.iter
    (fun k ->
      let m = List.length (List.filter (fun (it : Daemon.item) -> it.kind = k) fresh) in
      let f = float_of_int m /. float_of_int (List.length fresh) in
      expect (Printf.sprintf "%s share %.3f" (Daemon.kind_name k) f) (Float.abs (f -. (1. /. 3.)) < 0.07))
    Daemon.kinds;
  (* a repeat re-sends one of the last [window] distinct requests *)
  let distinct_before = Array.make n 0 in
  Array.iteri
    (fun i (it : Daemon.item) ->
      if i > 0 then
        distinct_before.(i) <-
          distinct_before.(i - 1) + Bool.to_int (s.(i - 1).original = None);
      match it.original with
      | None -> ()
      | Some j ->
        expect "original is fresh" (s.(j).original = None);
        expect "original is recent" (j < i && distinct_before.(i) - distinct_before.(j) <= Daemon.window);
        expect "repeat is identical" (s.(j).est = it.est))
    s

let replays () =
  for seed = 0 to 4 do
    List.iter
      (fun tile_width ->
        let trials = 2 * tile_width in
        let direct =
          (Toric.Memory.run_batch ~domains:1 ~tile_width ~l:3 ~p:0.05 ~trials ~seed ())
            .Toric.Memory.failures
        in
        let a = Layers.acc () in
        let replay = Layers.toric a ~l:3 ~p:0.05 ~tile_width ~trials ~seed () in
        expect (Printf.sprintf "toric w%d seed %d: %d vs %d" tile_width seed replay direct)
          (replay = direct);
        let ck = Layers.acc () in
        expect "checkpointed replay"
          (Layers.toric_ckpt ck ~l:3 ~p:0.05 ~tile_width ~trials ~seed = direct);
        expect "ledger flushed" (ck.flush_s <> [] || trials / tile_width < Layers.flush_every))
      [ 64; 256 ];
    let golay = Csskit.Zoo.get "golay23" in
    let direct =
      (Csskit.Memory.memory_failure_batch ~domains:1 ~tile_width:64 golay ~eps:0.08
         ~rounds:1 ~trials:128 ~seed ())
        .Mc.Stats.failures
    in
    let replay =
      Layers.css (Layers.acc ()) ~code:"golay23" ~eps:0.08 ~tile_width:64 ~trials:128 ~seed
    in
    expect (Printf.sprintf "css seed %d: %d vs %d" seed replay direct) (replay = direct)
  done

let corrupted () =
  let ok = check_equal "x" ~expected:5 ~got:5 and bad = check_equal "x" ~expected:5 ~got:6 in
  expect "equal counts pass" ok.ok;
  expect "a corrupted count fails" (not bad.ok);
  let pooled failures =
    (check_pooled ~p_ref:0.05 ~ref_stderr:1e-5 ~failures ~shots:1_000_000).ok
  in
  expect "reference count passes" (pooled 50_000);
  expect "inflated count fails" (not (pooled 51_000));
  (* the engine checks on a real rep whose count was corrupted *)
  let wl = Engines.css_golay and seed = 11 in
  let f = Engines.rep wl ~seed:(Engines.rep_seed wl ~seed 0) in
  let run f =
    { Engines.raw_rep_s = [ 1.0 ]; factors = [ 1.0 ]; counts = [ f ]; rep0 = Some f;
      attempted = 1; failed = 0 }
  in
  expect "true count passes" (List.for_all (fun c -> c.ok) (Engines.checks wl ~seed (run f)));
  expect "corrupted count fails"
    (not (List.for_all (fun c -> c.ok) (Engines.checks wl ~seed (run (f + 1)))))

let run () =
  ensure_out_dir ();
  test "percentile rule" percentiles;
  test "compare verdicts" verdicts;
  test "daemon-mix schedule" schedule;
  test "stage replay counts" replays;
  test "corrupted counts fail the checks" corrupted;
  if !failures > 0 then exit 1
