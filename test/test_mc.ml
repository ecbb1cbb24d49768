(* The shared Monte-Carlo engine: Mc.Rng splittable streams,
   Mc.Runner's domain-parallel chunk loop, Mc.Stats Wilson intervals.
   The load-bearing property throughout is the determinism contract:
   the same root seed gives bit-identical aggregates for ANY domain
   count, so every parallel result below is checked against the
   sequential (~domains:1) reference, not statistically. *)

open Ftqc

let check msg expected actual = Alcotest.(check bool) msg expected actual

(* --- Mc.Rng ----------------------------------------------------------- *)

let test_rng_reproducible () =
  let k = Mc.Rng.split (Mc.Rng.root 42) 7 in
  let a = Mc.Rng.to_state k and b = Mc.Rng.to_state k in
  let same = ref true in
  for _ = 1 to 100 do
    if Random.State.bits a <> Random.State.bits b then same := false
  done;
  check "same key, same stream" true !same

let test_rng_streams_independent () =
  (* sibling streams never collide on a prefix of raw draws: 16
     streams x 64 draws are all distinct 64-bit values *)
  let root = Mc.Rng.root 2026 in
  let seen = Hashtbl.create 1024 in
  let clash = ref false in
  for i = 0 to 15 do
    let k = Mc.Rng.split root i in
    for n = 0 to 63 do
      let v = Mc.Rng.draw k n in
      if Hashtbl.mem seen v then clash := true;
      Hashtbl.add seen v ()
    done
  done;
  check "no collisions across 16 streams x 64 draws" false !clash

let test_rng_streams_decorrelated () =
  (* the Random.State sequences of sibling streams look unrelated:
     bitwise agreement of the first 1000 draws is ~50%, not ~100% *)
  let root = Mc.Rng.root 7 in
  let a = Mc.Rng.to_state (Mc.Rng.split root 0) in
  let b = Mc.Rng.to_state (Mc.Rng.split root 1) in
  let agree = ref 0 in
  let n = 1000 in
  for _ = 1 to n do
    if Random.State.bool a = Random.State.bool b then incr agree
  done;
  let frac = float_of_int !agree /. float_of_int n in
  check "sibling streams decorrelated" true (frac > 0.4 && frac < 0.6)

let test_rng_derive () =
  check "same path, same seed" true
    (Mc.Rng.derive 5 [ 1; 2; 3 ] = Mc.Rng.derive 5 [ 1; 2; 3 ]);
  check "different path, different seed" true
    (Mc.Rng.derive 5 [ 1; 2; 3 ] <> Mc.Rng.derive 5 [ 1; 3; 2 ]);
  check "different root, different seed" true
    (Mc.Rng.derive 5 [ 1 ] <> Mc.Rng.derive 6 [ 1 ]);
  check "derived seeds nonnegative" true
    (Mc.Rng.derive 5 [ 1; 2; 3 ] >= 0 && Mc.Rng.derive (-9) [ 0 ] >= 0)

(* --- Mc.Runner: domain-count invariance ------------------------------- *)

let bernoulli p rng _ = Random.State.float rng 1.0 < p

let test_runner_parallel_equals_sequential () =
  let f1 = Mc.Runner.failures ~domains:1 ~trials:10000 ~seed:3 (Mc.Runner.scalar (bernoulli 0.3)) in
  let f4 = Mc.Runner.failures ~domains:4 ~trials:10000 ~seed:3 (Mc.Runner.scalar (bernoulli 0.3)) in
  Alcotest.(check int) "domains:4 = domains:1" f1 f4;
  check "rate plausible" true (abs (f1 - 3000) < 300)

let test_runner_steane_scan_invariant () =
  (* the acceptance check: a Steane pseudothreshold-style scan point
     gives identical failure counts sequentially and on 4 domains *)
  let run d =
    (Ft.Memory.steane_ec_failure_mc ~domains:d
       ~noise:(Ft.Noise.gates_only 8e-3)
       ~policy:Ft.Steane_ec.Repeat_if_nontrivial ~verify:Ft.Steane_ec.Reject
       ~trials:300 ~seed:2026 ())
      .Mc.Stats.failures
  in
  Alcotest.(check int) "steane EC: domains:4 = domains:1" (run 1) (run 4)

let test_runner_worker_ctx () =
  (* per-worker scratch buffers reused across a worker's chunks *)
  let count d =
    Mc.Runner.failures ~domains:d ~trials:2000 ~seed:9
      (Mc.Runner.model
         ~worker_init:(fun () -> Bytes.create 8)
         ~trial:(fun buf rng _ ->
           Bytes.set_int64_le buf 0 (Random.State.int64 rng Int64.max_int);
           Int64.rem (Bytes.get_int64_le buf 0) 2L = 0L)
         ())
  in
  Alcotest.(check int) "ctx runs agree" (count 1) (count 4)

let test_runner_zero_and_tiny () =
  Alcotest.(check int) "zero trials"
    0
    (Mc.Runner.failures ~domains:4 ~trials:0 ~seed:1
       (Mc.Runner.scalar (fun _ _ -> true)));
  Alcotest.(check int) "one trial, always true"
    1
    (Mc.Runner.failures ~domains:4 ~trials:1 ~seed:1
       (Mc.Runner.scalar (fun _ _ -> true)));
  (* a kernel returning fewer words than lanes is rejected by the tile
     that counts them, at any domain count; under supervision that
     rejection is the tile's failure *)
  let short =
    Mc.Runner.model
      ~worker_init:(fun () -> ())
      ~batch:(fun () _ ~base:_ ~count:_ -> [| 0L |])
      ()
  in
  let run ?chunk_timeout domains =
    Mc.Runner.failures ~domains ?chunk_timeout ~retries:0
      ~engine:(Mc.Engine.batch ~tile_width:128 ()) ~trials:256 ~seed:1 short
  in
  List.iter
    (fun domains ->
      check
        (Printf.sprintf "short kernel: Invalid_argument (domains %d)" domains)
        true
        (match run domains with
        | _ -> false
        | exception Invalid_argument _ -> true);
      check
        (Printf.sprintf "short kernel, supervised: Chunk_failed (domains %d)"
           domains)
        true
        (match run ~chunk_timeout:60.0 domains with
        | _ -> false
        | exception Mc.Runner.Chunk_failed _ -> true))
    [ 1; 2 ]

let prop_domain_invariance =
  QCheck.Test.make ~name:"failures invariant in domain count" ~count:25
    QCheck.(triple small_nat (int_range 1 6) (int_range 0 300))
    (fun (seed, domains, trials) ->
      Mc.Runner.failures ~domains ~trials ~seed (Mc.Runner.scalar (bernoulli 0.4))
      = Mc.Runner.failures ~domains:1 ~trials ~seed (Mc.Runner.scalar (bernoulli 0.4)))

(* --- Mc.Stats: Wilson intervals --------------------------------------- *)

let test_wilson_basic () =
  let e = Mc.Stats.estimate ~failures:30 ~trials:100 () in
  check "rate" true (Float.abs (e.rate -. 0.3) < 1e-12);
  check "interval brackets rate" true (e.ci_low <= e.rate && e.rate <= e.ci_high);
  check "bounds in [0,1]" true (e.ci_low >= 0.0 && e.ci_high <= 1.0);
  let z0 = Mc.Stats.wilson ~failures:0 ~trials:50 () in
  check "0 failures: lower bound 0" true (fst z0 < 1e-9);
  let z1 = Mc.Stats.wilson ~failures:50 ~trials:50 () in
  check "all failures: upper bound 1" true (snd z1 > 1.0 -. 1e-9);
  let empty = Mc.Stats.wilson ~failures:0 ~trials:0 () in
  check "no trials: vacuous interval" true (empty = (0.0, 1.0))

let test_estimate_edges () =
  (* degenerate inputs every experiment driver can produce *)
  let z = Mc.Stats.estimate ~failures:0 ~trials:1000 () in
  check "0 failures: rate 0" true (z.rate = 0.0);
  check "0 failures: interval starts at 0" true
    (z.ci_low = 0.0 && z.ci_high > 0.0 && z.ci_high < 0.01);
  let a = Mc.Stats.estimate ~failures:1000 ~trials:1000 () in
  check "all failures: rate 1" true (a.rate = 1.0);
  check "all failures: interval ends at 1" true
    (a.ci_high >= 1.0 -. 1e-12 && a.ci_low < 1.0 && a.ci_low > 0.99);
  let one_f = Mc.Stats.estimate ~failures:1 ~trials:1 () in
  let one_s = Mc.Stats.estimate ~failures:0 ~trials:1 () in
  check "1 trial: rate is 0 or 1" true (one_s.rate = 0.0 && one_f.rate = 1.0);
  check "1 trial: intervals still bracket and stay in [0,1]" true
    (one_s.ci_low = 0.0 && one_f.ci_high = 1.0
    && one_s.ci_high <= 1.0 && one_f.ci_low >= 0.0
    && one_s.ci_high > 0.5 && one_f.ci_low < 0.5);
  check "1 trial: interval is wide" true
    (Mc.Stats.half_width one_f > 0.3);
  check "stderr nonnegative everywhere" true
    (z.stderr >= 0.0 && a.stderr >= 0.0 && one_f.stderr >= 0.0)

let test_wilson_coverage () =
  (* a 95% Wilson interval covers the true rate ~95% of the time;
     with 200 independent experiments, coverage below 90% would be a
     ~3.5-sigma fluke *)
  let p = 0.3 and n = 400 and experiments = 200 in
  let covered = ref 0 in
  for i = 1 to experiments do
    let failures =
      Mc.Runner.failures ~domains:1 ~trials:n
        ~seed:(Mc.Rng.derive 77 [ i ])
        (Mc.Runner.scalar (bernoulli p))
    in
    let lo, hi = Mc.Stats.wilson ~failures ~trials:n () in
    if lo <= p && p <= hi then incr covered
  done;
  let coverage = float_of_int !covered /. float_of_int experiments in
  check "coverage >= 0.9" true (coverage >= 0.9);
  check "coverage not degenerate" true (coverage <= 1.0)

(* --- Mc.Runner: early stopping ---------------------------------------- *)

let test_early_stop_floor () =
  (* a huge target stops as early as allowed -- but never below the
     min-trial floor *)
  let e =
    Mc.Runner.estimate ~domains:1 ~target_half_width:1.0 ~trials:100_000
      ~seed:4 (Mc.Runner.scalar (bernoulli 0.2))
  in
  check "stops early" true (e.trials < 100_000);
  check "never below the floor" true
    (e.trials >= Mc.Runner.default_min_trials);
  let e2 =
    Mc.Runner.estimate ~domains:1 ~target_half_width:1.0 ~min_trials:5000
      ~trials:100_000 ~seed:4 (Mc.Runner.scalar (bernoulli 0.2))
  in
  check "custom floor respected" true (e2.trials >= 5000)

let test_early_stop_exhausts_on_tight_target () =
  let e =
    Mc.Runner.estimate ~domains:1 ~target_half_width:0.0 ~trials:3000 ~seed:4
      (Mc.Runner.scalar (bernoulli 0.2))
  in
  Alcotest.(check int) "unreachable target runs everything" 3000 e.trials

let test_early_stop_domain_invariant () =
  let run d =
    Mc.Runner.estimate ~domains:d ~target_half_width:0.02 ~trials:50_000
      ~seed:13 (Mc.Runner.scalar (bernoulli 0.1))
  in
  let a = run 1 and b = run 3 in
  Alcotest.(check int) "stopped at same trial count" a.trials b.trials;
  Alcotest.(check int) "same failures" a.failures b.failures;
  check "actually stopped early" true (a.trials < 50_000);
  check "target reached" true (Mc.Stats.half_width a <= 0.02)

(* --- Mc.Once ---------------------------------------------------------- *)

(* Six systhreads and two domains force one cell whose build sleeps,
   so the later callers all arrive while the build is still running
   (where a [Lazy.t] raises [CamlinternalLazy.Undefined]).  The build
   must run once and every caller must get the same physical value. *)
let test_once_concurrent_first_use () =
  let builds = Atomic.make 0 in
  let cell =
    Mc.Once.make (fun () ->
        Atomic.incr builds;
        Thread.delay 0.05;
        ref 0)
  in
  let go = Atomic.make false in
  let force () =
    while not (Atomic.get go) do
      Thread.yield ()
    done;
    Mc.Once.force cell
  in
  let got = Array.make 6 None in
  let threads =
    List.init 6 (fun i ->
        Thread.create (fun () -> got.(i) <- Some (force ())) ())
  in
  let domains = List.init 2 (fun _ -> Domain.spawn force) in
  Atomic.set go true;
  List.iter Thread.join threads;
  let values =
    List.map Domain.join domains
    @ List.map
        (function Some v -> v | None -> Alcotest.fail "thread got no value")
        (Array.to_list got)
  in
  Alcotest.(check int) "one build" 1 (Atomic.get builds);
  check "every caller got the one built value" true
    (List.for_all (fun v -> v == Mc.Once.force cell) values)

(* A build that raises leaves the cell empty: the next force retries. *)
let test_once_failed_build_retries () =
  let attempts = ref 0 in
  let cell =
    Mc.Once.make (fun () ->
        incr attempts;
        if !attempts = 1 then failwith "first build fails";
        !attempts)
  in
  check "the failing build raises" true
    (match Mc.Once.force cell with _ -> false | exception Failure _ -> true);
  Alcotest.(check int) "the retry builds" 2 (Mc.Once.force cell);
  Alcotest.(check int) "and is kept" 2 (Mc.Once.force cell);
  Alcotest.(check int) "two builds in all" 2 !attempts

let suites =
  [ ( "mc.rng",
      [ Alcotest.test_case "reproducible" `Quick test_rng_reproducible;
        Alcotest.test_case "streams independent" `Quick
          test_rng_streams_independent;
        Alcotest.test_case "streams decorrelated" `Quick
          test_rng_streams_decorrelated;
        Alcotest.test_case "derive" `Quick test_rng_derive ] );
    ( "mc.runner",
      [ Alcotest.test_case "parallel = sequential" `Quick
          test_runner_parallel_equals_sequential;
        Alcotest.test_case "steane scan invariant" `Slow
          test_runner_steane_scan_invariant;
        Alcotest.test_case "worker contexts" `Quick test_runner_worker_ctx;
        Alcotest.test_case "edge cases" `Quick test_runner_zero_and_tiny;
        QCheck_alcotest.to_alcotest prop_domain_invariance ] );
    ( "mc.stats",
      [ Alcotest.test_case "wilson basics" `Quick test_wilson_basic;
        Alcotest.test_case "estimate edge cases" `Quick test_estimate_edges;
        Alcotest.test_case "wilson coverage" `Quick test_wilson_coverage ] );
    ( "mc.early-stop",
      [ Alcotest.test_case "floor" `Quick test_early_stop_floor;
        Alcotest.test_case "tight target exhausts" `Quick
          test_early_stop_exhausts_on_tight_target;
        Alcotest.test_case "domain invariant" `Quick
          test_early_stop_domain_invariant ] );
    ( "mc.once",
      [ Alcotest.test_case "concurrent first use" `Quick
          test_once_concurrent_first_use;
        Alcotest.test_case "failed build retries" `Quick
          test_once_failed_build_retries ] ) ]
