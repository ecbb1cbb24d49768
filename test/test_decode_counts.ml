(* Golden failure counts of the decode-bound estimators, stored in
   golden/decode-counts.json.  The counts were captured from the
   decoders as they stood before the union-find workspace and the
   per-side syndrome tables; the toric L12 and noisy L5 r5 keys from
   the batch kernels as they stood before plain memory became the
   one-round case of the space-time kernel (they read 144 and 125
   detection rows, so three and two transpose blocks); the toric L4
   and noisy L3 r2 keys from the kernel as it stood before the shared
   syndrome table (L4's table ends complete, L3 r2's stays hashed).
   A decoder or kernel rewrite that picks a different (equally valid)
   matching or correction changes some of these counts, so the
   comparison is exact. *)

open Ftqc

let golden_file = "golden/decode-counts.json"
let deep_p = 0.000244140625 (* 2^-12 *)
let widths = [ 64; 256; 512 ]
let domain_counts = [ 1; 4 ]

let per_width_and_domains ?(widths = widths) name f =
  List.concat_map
    (fun tile_width ->
      List.map
        (fun domains ->
          ( Printf.sprintf "%s w%d d%d" name tile_width domains,
            fun () -> f ~tile_width ~domains ))
        domain_counts)
    widths

let toric_batch ~l ~p ~trials ~seed ~tile_width ~domains =
  (Toric.Memory.run_batch ~domains ~tile_width ~l ~p ~trials ~seed ())
    .Toric.Memory.failures

let css_batch code ~tile_width ~domains =
  (Csskit.Memory.memory_failure_batch ~domains ~tile_width
     (Csskit.Zoo.get code) ~eps:0.08 ~rounds:2 ~trials:3000 ~seed:13 ())
    .Mc.Stats.failures

(* (name, count) — names are the golden file's keys *)
let cases : (string * (unit -> int)) list =
  per_width_and_domains "toric L5 p=0.05"
    (toric_batch ~l:5 ~p:0.05 ~trials:6000 ~seed:11)
  @ per_width_and_domains "toric L3 p=2^-12"
      (toric_batch ~l:3 ~p:deep_p ~trials:(1 lsl 21) ~seed:12)
  @ per_width_and_domains ~widths:[ 256 ] "toric L12 p=0.08"
      (toric_batch ~l:12 ~p:0.08 ~trials:4000 ~seed:20)
  @ List.concat_map
      (fun code ->
        per_width_and_domains ("css " ^ code ^ " eps=0.08") (css_batch code))
      [ "golay23"; "bch31"; "bch15"; "steane7" ]
  @ [ ( "toric run_mc L5 p=0.05",
        fun () ->
          (Toric.Memory.run_mc ~domains:2 ~l:5 ~p:0.05 ~trials:3000 ~seed:16 ())
            .Toric.Memory.failures );
      ( "noisy run_mc L3 r3 p=q=0.03",
        fun () ->
          (Toric.Noisy_memory.run_mc ~domains:2 ~l:3 ~rounds:3 ~p:0.03 ~q:0.03
             ~trials:2000 ~seed:14 ())
            .Toric.Noisy_memory.failures );
      ( "noisy run_batch L4 r4 p=q=0.02 w128",
        fun () ->
          (Toric.Noisy_memory.run_batch ~domains:2 ~tile_width:128 ~l:4
             ~rounds:4 ~p:0.02 ~q:0.02 ~trials:2000 ~seed:17 ())
            .Toric.Noisy_memory.failures ) ]
  @ per_width_and_domains ~widths:[ 64; 256 ] "noisy run_batch L5 r5 p=q=0.03"
      (fun ~tile_width ~domains ->
        (Toric.Noisy_memory.run_batch ~domains ~tile_width ~l:5 ~rounds:5
           ~p:0.03 ~q:0.03 ~trials:3000 ~seed:19 ())
          .Toric.Noisy_memory.failures)
  @ [ ( "circuit run_mc L3 r3 eps=3e-3",
        fun () ->
          (Toric.Circuit_memory.run_mc ~domains:2 ~l:3 ~rounds:3
             ~noise:(Ft.Noise.uniform 3e-3) ~trials:300 ~seed:15 ())
            .Toric.Circuit_memory.failures );
      ( "circuit run_dp L3 r3 p=0.01",
        fun () ->
          (Toric.Circuit_memory.run_dp ~domains:2 ~l:3 ~rounds:3 ~p:0.01
             ~trials:4000 ~seed:18 ())
            .Mc.Stats.failures ) ]
  @ per_width_and_domains ~widths:[ 256 ] "toric L4 p=0.08"
      (toric_batch ~l:4 ~p:0.08 ~trials:6000 ~seed:21)
  @ per_width_and_domains ~widths:[ 64 ] "noisy run_batch L3 r2 p=q=0.03"
      (fun ~tile_width ~domains ->
        (Toric.Noisy_memory.run_batch ~domains ~tile_width ~l:3 ~rounds:2
           ~p:0.03 ~q:0.03 ~trials:4000 ~seed:22 ())
          .Toric.Noisy_memory.failures)

let golden () =
  match Obs.Json.read_file golden_file with
  | Error m -> Alcotest.failf "%s: %s" golden_file m
  | Ok json -> (
    match Obs.Json.member "counts" json with
    | Some (Obs.Json.Obj kvs) ->
      List.map
        (fun (k, v) ->
          match Obs.Json.to_int_opt v with
          | Some n -> (k, n)
          | None -> Alcotest.failf "%s: %s is not an int" golden_file k)
        kvs
    | _ -> Alcotest.failf "%s: no counts object" golden_file)

let test_golden_counts () =
  let expected = golden () in
  Alcotest.(check (list string))
    "golden keys" (List.map fst cases) (List.map fst expected);
  List.iter
    (fun (name, count) ->
      Alcotest.(check int) name (List.assoc name expected) (count ()))
    cases

let suites =
  [ ( "decode-counts",
      [ Alcotest.test_case "golden failure counts" `Slow test_golden_counts ] ) ]
