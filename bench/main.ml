(* Benchmarks: one kernel per experiment family (the code that
   regenerates each table/figure of EXPERIMENTS.md) plus the ablations
   called out in DESIGN.md (Shor vs Steane extraction,
   syndrome-repetition policy, union-find vs greedy toric decoding,
   simulator throughput).

   Two frontends over the same kernel list:
   - default: bechamel (OLS over many runs, prints time/run and r²);
   - --smoke [--out FILE]: a few wall-clock repetitions per kernel,
     written as JSON (for CI artifacts), plus a sequential-vs-parallel
     probe of the Mc.Runner engine that records the speedup and checks
     the two failure counts agree. *)

open Ftqc

(* Per-kernel RNG streams: each kernel closure gets its own split
   stream off one root seed, so adding or reordering kernels (or a
   sampler's choice of run counts) cannot perturb what any other
   kernel draws. *)
let bench_seed = 77
let next_stream = ref 0

let fresh_rng () =
  let i = !next_stream in
  incr next_stream;
  Mc.Rng.to_state (Mc.Rng.split (Mc.Rng.root bench_seed) i)

let steane = Codes.Steane.code

let prep_block sim ~offset =
  let n = Ft.Sim.num_qubits sim in
  let tab = Ft.Sim.tableau sim in
  Array.iter
    (fun g ->
      ignore
        (Tableau.postselect_pauli tab
           (Codes.Stabilizer_code.embed steane ~offset ~total:n g)
           ~outcome:false))
    steane.generators;
  ignore
    (Tableau.postselect_pauli tab
       (Codes.Stabilizer_code.embed steane ~offset ~total:n
          steane.logical_z.(0))
       ~outcome:false)

let noise = Ft.Noise.gates_only 1e-3

(* --- E1: encoded memory round ---------------------------------------- *)

let e1_memory =
  let rng = fresh_rng () in
  fun () ->
    ignore (Ft.Memory.encoded_ideal_ec steane ~eps:1e-2 ~rounds:1 ~trials:10 rng)

(* --- E2: syndrome extraction gadgets (ablation: Shor vs Steane vs
       non-FT) -------------------------------------------------------- *)

let shor_ec_kernel verified =
  let rng = fresh_rng () in
  fun () ->
    let sim = Ft.Sim.create ~n:12 ~noise rng in
    prep_block sim ~offset:0;
    ignore
      (Ft.Shor_ec.recover sim steane ~policy:Ft.Shor_ec.Repeat_if_nontrivial
         ~offset:0 ~cat_base:7 ~check:11 ~verified)

let e2_shor_ft = shor_ec_kernel true
let e2_shor_nonft = shor_ec_kernel false

let steane_ec_kernel policy =
  let rng = fresh_rng () in
  fun () ->
    let sim = Ft.Sim.create ~n:21 ~noise rng in
    prep_block sim ~offset:0;
    ignore
      (Ft.Steane_ec.recover sim ~policy ~verify:Ft.Steane_ec.Reject ~data:0
         ~ancilla:7 ~checker:14)

let e2_steane = steane_ec_kernel Ft.Steane_ec.Repeat_if_nontrivial

(* --- E4 ablation: syndrome acceptance policy -------------------------- *)

let e4_accept_first = steane_ec_kernel Ft.Steane_ec.Accept_first

(* --- E5: logical CNOT extended rectangle ------------------------------- *)

let e5_exrec =
  let rng = fresh_rng () in
  fun () -> ignore (Ft.Memory.logical_cnot_exrec_failure ~noise ~trials:5 rng)

(* --- E6/E7/E8: analytic tables ----------------------------------------- *)

let e6_flow () =
  List.iter
    (fun eps ->
      for l = 0 to 4 do
        ignore (Threshold.Flow.level_error ~a:21.0 ~eps ~level:l)
      done;
      ignore (Threshold.Flow.block_size_for ~a:21.0 ~eps ~gates:3e9))
    [ 1e-2; 1e-3; 1e-4; 1e-5; 1e-6 ]

let e7_bigcode () =
  List.iter
    (fun eps -> ignore (Threshold.Bigcode.best_integer_t ~b:4.0 ~eps ~t_max:1000))
    [ 1e-4; 1e-5; 1e-6; 1e-7 ]

let e8_resources () =
  List.iter
    (fun bits -> ignore (Threshold.Resources.estimate ~bits ~physical_eps:1e-6 ()))
    [ 128; 256; 432; 512; 1024 ]

(* --- E9: systematic error sweep ---------------------------------------- *)

let e9_systematic =
  let rng = fresh_rng () in
  fun () ->
    ignore
      (Ft.Systematic.crossover_table ~theta:0.01 ~steps_list:[ 1; 10; 100 ]
         ~trials:20 rng)

(* --- E10: toric decoding (ablation: union-find vs greedy) -------------- *)

let toric_kernel decoder =
  let rng = fresh_rng () in
  let lat = Toric.Lattice.create 12 in
  let n = Toric.Lattice.num_qubits lat in
  fun () ->
    let e = Gf2.Bitvec.create n in
    Gf2.Bitvec.randomize ~p:0.08 rng e;
    let s = Toric.Lattice.syndrome lat e in
    ignore (decoder lat s)

let e10_uf = toric_kernel Toric.Decoder.decode
let e10_greedy = toric_kernel Toric.Decoder.greedy_decode

(* --- E11: anyon substrate ----------------------------------------------- *)

let e11_charge =
  let rng = fresh_rng () in
  let a5 = Group.Finite_group.alternating 5 in
  let u0, _, v = Anyon.Register.paper_a5_encoding () in
  fun () ->
    let pair = Anyon.Pair_sim.create a5 ~class_rep:u0 in
    ignore (Anyon.Pair_sim.measure_charge pair rng ~projectile:v)

let e11_closure =
  let s4 = Group.Finite_group.symmetric 4 in
  fun () -> ignore (Anyon.Logic.commutator_closure_depth s4 ~max_depth:12)

(* --- E12: leakage scrub -------------------------------------------------- *)

let e12_scrub =
  let rng = fresh_rng () in
  fun () ->
    let t = Ft.Leakage.create ~n:8 ~noise:Ft.Noise.none ~leak_rate:0.0 rng in
    Ft.Leakage.leak t 3;
    ignore (Ft.Leakage.scrub t ~qubits:[ 0; 1; 2; 3; 4; 5; 6 ] ~ancilla:7)

(* --- E13: code machinery -------------------------------------------------- *)

let e13_distance () = ignore (Codes.Stabilizer_code.distance steane)

(* --- E14: FT Toffoli ------------------------------------------------------- *)

let e14_toffoli =
  let rng = fresh_rng () in
  fun () ->
    let sv = Statevec.create 7 in
    Statevec.h sv 0;
    Statevec.h sv 1;
    Ft.Toffoli.apply sv rng ~data:(0, 1, 2) ~scratch:(3, 4, 5) ~control:6

(* --- E16: generalized CSS EC / E6b: pauli frame ----------------------------- *)

let e16_css_ec_rm15 =
  let rng = fresh_rng () in
  let gadget = Ft.Css_ec.for_reed_muller () in
  fun () ->
    let sim = Ft.Sim.create ~n:45 ~noise rng in
    ignore
      (Ft.Css_ec.recover sim gadget ~policy:Ft.Css_ec.Repeat_if_nontrivial
         ~data:0 ~ancilla:15 ~checker:30 ~max_attempts:25)

let e6b_level2 =
  let rng = fresh_rng () in
  fun () ->
    ignore
      (Codes.Pauli_frame.memory_failure ~level:2 ~eps:0.02 ~rounds:1 ~trials:50
         rng)

let e6b_level3 =
  let rng = fresh_rng () in
  fun () ->
    ignore
      (Codes.Pauli_frame.memory_failure ~level:3 ~eps:0.02 ~rounds:1 ~trials:10
         rng)

(* bit-sliced engine: same experiments, 64 shots per word and
   [--tile-width] shots per tile (counts are width-invariant, so the
   flag only moves throughput) *)
let cli_tile_width = ref 64

let e6b_batch_level2 () =
  ignore
    (Codes.Pauli_frame.memory_failure_batch ~domains:1
       ~tile_width:!cli_tile_width ~level:2 ~eps:0.02 ~rounds:1 ~trials:3200
       ~seed:41 ())

let e6b_batch_level3 () =
  ignore
    (Codes.Pauli_frame.memory_failure_batch ~domains:1
       ~tile_width:!cli_tile_width ~level:3 ~eps:0.02 ~rounds:1 ~trials:640
       ~seed:42 ())

let e10_toric_batch () =
  ignore
    (Toric.Memory.run_batch ~domains:1 ~tile_width:!cli_tile_width ~l:12
       ~p:0.08 ~trials:640 ~seed:43 ())

(* --- E17..E20 ---------------------------------------------------------------- *)

let e17_l2_recover =
  let rng = fresh_rng () in
  fun () ->
    let total = 49 + Ft.Concat_ec.scratch_qubits in
    let sim = Ft.Sim.create ~n:total ~noise:Ft.Noise.none rng in
    let tab = Ft.Sim.tableau sim in
    let code2 = Codes.Concat.steane_level 2 in
    Array.iter
      (fun g ->
        ignore
          (Tableau.postselect_pauli tab
             (Codes.Stabilizer_code.embed code2 ~offset:0 ~total g)
             ~outcome:false))
      code2.generators;
    Ft.Concat_ec.recover_l2 sim ~data:0 ~scratch:49 ~max_attempts:10

let e18_golay =
  let rng = fresh_rng () in
  fun () ->
    let w = Gf2.Bitvec.create 23 in
    Gf2.Bitvec.randomize ~p:0.1 rng w;
    ignore (Codes.Golay.decode w)

let e19_noisy_toric =
  let rng = fresh_rng () in
  fun () ->
    ignore (Toric.Noisy_memory.run ~l:8 ~rounds:8 ~p:0.02 ~q:0.02 ~trials:1 rng)

let e11_synthesis () =
  ignore (Anyon.Synthesis.no_cnot_without_ancilla ~max_depth:4)

let e20_depth () =
  ignore (Circuit.depth (Ft.Steane_ec.syndrome_extraction_circuit ()))

(* --- code machinery ---------------------------------------------------------- *)

let exact_polynomial () =
  ignore
    (Codes.Exact.failure_polynomial Codes.Steane.code
       (Codes.Steane.css_decoder ()))

let measurement_encoder () =
  let c =
    Codes.Stabilizer_code.encoding_circuit_via_measurement Codes.Five_qubit.code
  in
  let sv = Statevec.create 6 in
  ignore (Statevec.run sv c)

let conjugate =
  let rng = fresh_rng () in
  fun () ->
    let c = Codes.Conjugate.random_clifford_circuit rng ~n:10 ~gates:100 in
    ignore (Codes.Conjugate.circuit c (Pauli.random rng 10))

let macwilliams () =
  ignore
    (Codes.Weight_enumerator.macwilliams_transform ~n:23
       (Codes.Weight_enumerator.distribution Codes.Golay.generator))

(* --- simulator throughput -------------------------------------------------- *)

let tableau_343 () =
  let tab = Tableau.create 343 in
  for q = 0 to 341 do
    Tableau.cnot tab q (q + 1)
  done

let statevec_16 () =
  let sv = Statevec.create 16 in
  for q = 0 to 15 do
    Statevec.h sv q
  done

let kernels =
  [ ("e1-steane-ideal-ec-round", e1_memory);
    ("e2-shor-ec-verified", e2_shor_ft);
    ("e2-shor-ec-shared-ancilla", e2_shor_nonft);
    ("e2-steane-ec", e2_steane);
    ("e4-steane-ec-accept-first", e4_accept_first);
    ("e5-cnot-exrec", e5_exrec);
    ("e6-flow-table", e6_flow);
    ("e7-bigcode-table", e7_bigcode);
    ("e8-resource-table", e8_resources);
    ("e9-systematic-sweep", e9_systematic);
    ("e10-toric-unionfind-L12", e10_uf);
    ("e10-toric-greedy-L12", e10_greedy);
    ("e11-charge-interferometer", e11_charge);
    ("e11-commutator-closure-S4", e11_closure);
    ("e12-leak-scrub-block", e12_scrub);
    ("e13-distance-steane", e13_distance);
    ("e14-teleported-toffoli", e14_toffoli);
    ("e16-css-ec-reed-muller", e16_css_ec_rm15);
    ("e6b-pauli-frame-level2", e6b_level2);
    ("e6b-pauli-frame-level3", e6b_level3);
    ("e6b-batch-level2-3200shots", e6b_batch_level2);
    ("e6b-batch-level3-640shots", e6b_batch_level3);
    ("e10-toric-batch-L12-640shots", e10_toric_batch);
    ("e17-level2-ec-cycle", e17_l2_recover);
    ("e18-golay-decode", e18_golay);
    ("e19-noisy-toric-L8x8", e19_noisy_toric);
    ("e11-synthesis-exhaust-depth4", e11_synthesis);
    ("e20-circuit-depth", e20_depth);
    ("codes-exact-steane-4^7-enum", exact_polynomial);
    ("codes-measurement-encoder-5q", measurement_encoder);
    ("codes-conjugate-100-gates", conjugate);
    ("codes-macwilliams-golay", macwilliams);
    ("sim-tableau-cnot-chain-343q", tableau_343);
    ("sim-statevec-h-layer-16q", statevec_16) ]

(* --------------------------------------------------------- full mode *)

let run_bechamel () =
  let open Bechamel in
  let open Toolkit in
  let tests =
    List.map (fun (name, f) -> Test.make ~name (Staged.stage f)) kernels
  in
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |]
  in
  let instances = Instance.[ monotonic_clock ] in
  let cfg =
    Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.5) ~stabilize:false ()
  in
  Printf.printf "%-36s %14s %10s\n" "benchmark" "time/run" "r²";
  Printf.printf "%s\n" (String.make 62 '-');
  List.iter
    (fun test ->
      let results = Benchmark.all cfg instances test in
      let analyzed = Analyze.all ols (List.hd instances) results in
      Hashtbl.iter
        (fun name ols_result ->
          match Analyze.OLS.estimates ols_result with
          | Some [ t ] ->
            let r2 =
              match Analyze.OLS.r_square ols_result with
              | Some r -> Printf.sprintf "%.4f" r
              | None -> "-"
            in
            let time_str =
              if t > 1e9 then Printf.sprintf "%.3f s" (t /. 1e9)
              else if t > 1e6 then Printf.sprintf "%.3f ms" (t /. 1e6)
              else if t > 1e3 then Printf.sprintf "%.3f us" (t /. 1e3)
              else Printf.sprintf "%.1f ns" t
            in
            Printf.printf "%-36s %14s %10s\n%!" name time_str r2
          | _ -> Printf.printf "%-36s %14s\n%!" name "n/a")
        analyzed)
    tests

(* -------------------------------------------------------- smoke mode *)

(* A few wall-clock repetitions per kernel — enough for CI to catch
   order-of-magnitude regressions and produce a machine-readable
   artifact, nowhere near bechamel's statistical rigor. *)
let smoke_run (name, f) =
  f ();
  (* warmup *)
  let budget = 0.25 and max_runs = 8 in
  let t0 = Obs.now () in
  let runs = ref 0 in
  while
    !runs = 0
    || (!runs < max_runs && Obs.now () -. t0 < budget)
  do
    f ();
    incr runs
  done;
  let mean_ms = (Obs.now () -. t0) /. float_of_int !runs *. 1e3 in
  Printf.printf "%-36s %10.3f ms  (%d runs)\n%!" name mean_ms !runs;
  (name, mean_ms, !runs)

(* Sequential vs parallel probe of the shared Monte-Carlo engine on a
   real trial loop (Steane-EC memory).  The two counts must agree —
   that is the engine's domain-count-invariance contract. *)
let parallel_probe () =
  let domains = Mc.Runner.default_domains () in
  let trials = 600 in
  let pnoise = Ft.Noise.gates_only 8e-3 in
  let run d =
    let t0 = Obs.now () in
    let e =
      Ft.Memory.steane_ec_failure_mc ~domains:d ~noise:pnoise
        ~policy:Ft.Steane_ec.Repeat_if_nontrivial ~verify:Ft.Steane_ec.Reject
        ~trials ~seed:2026 ()
    in
    (e.Mc.Stats.failures, Obs.now () -. t0)
  in
  ignore (run domains);
  (* warm both code paths *)
  let f_seq, t_seq = run 1 in
  let f_par, t_par = run domains in
  let speedup = t_seq /. t_par in
  Printf.printf
    "parallel probe: %d trials, %d domains: seq %.3f s, par %.3f s \
     (%.2fx), counts %d/%d %s\n%!"
    trials domains t_seq t_par speedup f_seq f_par
    (if f_seq = f_par then "agree" else "DISAGREE");
  (trials, domains, t_seq, t_par, speedup, f_seq, f_par)

(* Batch-vs-scalar probe, now a tile-width sweep: shots/sec of the
   legacy per-shot _mc path vs the bit-sliced engine at each tile
   width (64 / 256 / 512 shots per op) at domains:1, plus the
   engine's bit-identity contract — the batch count at {e every}
   width must equal the [`Scalar] cross-check (identical sampled
   noise, per-shot decoding) exactly.  A mismatch fails the bench
   (and hence CI).  The per-width shots/sec land in the committed
   performance trajectory via [--record].

   Kernel choice: steane-level2 and toric-L5 are the standard
   mid-noise kernels; toric-L3-deep runs the paper's deep
   subthreshold regime (p = 2^-12, where almost every shot is clean
   and the word-parallel front-end carries the whole load);
   toric-L3-deep-ckpt is the same workload under a live campaign
   checkpoint (default [flush_every]), where a wider tile amortizes
   the per-chunk ledger append and journal flush over 8x the shots —
   the configuration every long supervised campaign actually runs.

   Timing discipline: widths are measured interleaved round-robin
   with the best of [probe_rounds] kept per width, because this
   container's clock jitter between back-to-back runs (~2x worst
   case) would otherwise masquerade as a width effect. *)
let tile_widths = [ 64; 256; 512 ]
let probe_rounds = 5

type width_probe_entry = {
  wp_name : string;
  wp_trials : int;
  wp_mc_sps : float;
  wp_mc_fail : int;
  wp_cross_fail : int;
  wp_widths : (int * float * int) list; (* width, shots/s, failures *)
  wp_identical : bool;
  wp_wall_s : float;  (* the whole probe, warm-ups included *)
}

let batch_probe () =
  let time f =
    let t0 = Obs.now () in
    let r = f () in
    (r, Obs.now () -. t0)
  in
  let probe name ~trials ~mc ~batch ~crosscheck =
    let start = Obs.now () in
    ignore (mc ());
    ignore (batch 64 ());
    (* warm both paths *)
    let mc_fail, t_mc = time mc in
    let c_fail, _ = time crosscheck in
    let mc_sps = float_of_int trials /. t_mc in
    let wa = Array.of_list tile_widths in
    let nw = Array.length wa in
    let best = Array.make nw infinity in
    let fails = Array.make nw 0 in
    Array.iter (fun w -> ignore (batch w ())) wa;
    (* warm every width *)
    for _ = 1 to probe_rounds do
      Array.iteri
        (fun i w ->
          let b_fail, t_b = time (batch w) in
          fails.(i) <- b_fail;
          if t_b < best.(i) then best.(i) <- t_b)
        wa
    done;
    let widths =
      List.init nw (fun i ->
          (wa.(i), float_of_int trials /. best.(i), fails.(i)))
    in
    let identical = List.for_all (fun (_, _, bf) -> bf = c_fail) widths in
    let base_sps = match widths with (_, s, _) :: _ -> s | [] -> 1.0 in
    Printf.printf "batch probe %-16s mc %9.0f shots/s%s\n%!" name mc_sps
      (String.concat ""
         (List.map
            (fun (w, sps, _) ->
              Printf.sprintf ", w%d %9.0f/s (%4.2fx)" w sps (sps /. base_sps))
            widths));
    Printf.printf
      "            %-16s widths %s vs scalar cross-check %d: %s\n%!" name
      (String.concat "/"
         (List.map (fun (_, _, bf) -> string_of_int bf) widths))
      c_fail
      (if identical then "bit-identical" else "DISAGREE");
    {
      wp_name = name;
      wp_trials = trials;
      wp_mc_sps = mc_sps;
      wp_mc_fail = mc_fail;
      wp_cross_fail = c_fail;
      wp_widths = widths;
      wp_identical = identical;
      wp_wall_s = Obs.now () -. start;
    }
  in
  let steane_trials = 20000 in
  let steane engine () =
    (match engine with
    | `Mc ->
      Codes.Pauli_frame.memory_failure_mc ~domains:1 ~level:2 ~eps:0.01
        ~rounds:1 ~trials:steane_trials ~seed:909 ()
    | `Batch w ->
      Codes.Pauli_frame.memory_failure_batch ~domains:1 ~tile_width:w
        ~level:2 ~eps:0.01 ~rounds:1 ~trials:steane_trials ~seed:909 ()
    | `Cross ->
      Codes.Pauli_frame.memory_failure_batch ~domains:1 ~engine:`Scalar
        ~level:2 ~eps:0.01 ~rounds:1 ~trials:steane_trials ~seed:909 ())
      .Mc.Stats.failures
  in
  let toric_trials = 20000 in
  let toric engine () =
    (match engine with
    | `Mc ->
      Toric.Memory.run_mc ~domains:1 ~l:5 ~p:0.05 ~trials:toric_trials
        ~seed:910 ()
    | `Batch w ->
      Toric.Memory.run_batch ~domains:1 ~tile_width:w ~l:5 ~p:0.05
        ~trials:toric_trials ~seed:910 ()
    | `Cross ->
      Toric.Memory.run_batch ~domains:1 ~engine:`Scalar ~l:5 ~p:0.05
        ~trials:toric_trials ~seed:910 ())
      .Toric.Memory.failures
  in
  (* deep subthreshold: p = 2^-12 (a 12-draw dyadic plan), l = 3;
     1M shots keeps each width's run well above timer jitter *)
  let deep_trials = 1_000_000 and deep_p = 0.000244140625 in
  let deep engine () =
    (match engine with
    | `Mc ->
      Toric.Memory.run_mc ~domains:1 ~l:3 ~p:deep_p ~trials:deep_trials
        ~seed:911 ()
    | `Batch w ->
      Toric.Memory.run_batch ~domains:1 ~tile_width:w ~l:3 ~p:deep_p
        ~trials:deep_trials ~seed:911 ()
    | `Cross ->
      Toric.Memory.run_batch ~domains:1 ~engine:`Scalar ~l:3 ~p:deep_p
        ~trials:deep_trials ~seed:911 ())
      .Toric.Memory.failures
  in
  (* the same deep workload under a live checkpoint: each run journals
     into a fresh campaign file (created and deleted inside the timed
     region — that is the cost a supervised campaign pays), chunk
     granularity = tile width, default flush cadence.  Counts are
     campaign-invariant, so the scalar cross-check needs no ledger. *)
  let ckpt_trials = 50_000 in
  let deep_ckpt engine () =
    (match engine with
    | `Mc ->
      Toric.Memory.run_mc ~domains:1 ~l:3 ~p:deep_p ~trials:ckpt_trials
        ~seed:912 ()
    | `Batch w ->
      let file = Filename.temp_file "ftqc_bench_ckpt" ".json" in
      Sys.remove file;
      Fun.protect
        ~finally:(fun () -> try Sys.remove file with Sys_error _ -> ())
        (fun () ->
          let c =
            match Mc.Campaign.create file with
            | Ok c -> c
            | Error m -> failwith m
          in
          Toric.Memory.run_batch ~domains:1 ~campaign:c ~tile_width:w ~l:3
            ~p:deep_p ~trials:ckpt_trials ~seed:912 ())
    | `Cross ->
      Toric.Memory.run_batch ~domains:1 ~engine:`Scalar ~l:3 ~p:deep_p
        ~trials:ckpt_trials ~seed:912 ())
      .Toric.Memory.failures
  in
  (* the generic CSS pipeline's heaviest zoo member: [[23,1,7]] Golay
     at one memory round, batch-classified by two per-side flip-table
     lookups per shot (11 checks a side) *)
  let css_trials = 20000 in
  let golay = Csskit.Zoo.get "golay23" in
  let css engine () =
    (match engine with
    | `Mc ->
      Csskit.Memory.memory_failure_mc ~domains:1 golay ~eps:0.08 ~rounds:1
        ~trials:css_trials ~seed:913 ()
    | `Batch w ->
      Csskit.Memory.memory_failure_batch ~domains:1 ~tile_width:w golay
        ~eps:0.08 ~rounds:1 ~trials:css_trials ~seed:913 ()
    | `Cross ->
      Csskit.Memory.memory_failure_batch ~domains:1 ~engine:`Scalar golay
        ~eps:0.08 ~rounds:1 ~trials:css_trials ~seed:913 ())
      .Mc.Stats.failures
  in
  (* thunks run by List.map, so kernels run in the order listed (a
     list literal evaluates its elements right to left) *)
  List.map
    (fun run -> run ())
    [ (fun () ->
        probe "steane-level2" ~trials:steane_trials ~mc:(steane `Mc)
          ~batch:(fun w -> steane (`Batch w))
          ~crosscheck:(steane `Cross));
      (fun () ->
        probe "css-golay-L1" ~trials:css_trials ~mc:(css `Mc)
          ~batch:(fun w -> css (`Batch w))
          ~crosscheck:(css `Cross));
      (fun () ->
        probe "toric-L5" ~trials:toric_trials ~mc:(toric `Mc)
          ~batch:(fun w -> toric (`Batch w))
          ~crosscheck:(toric `Cross));
      (fun () ->
        probe "toric-L3-deep" ~trials:deep_trials ~mc:(deep `Mc)
          ~batch:(fun w -> deep (`Batch w))
          ~crosscheck:(deep `Cross));
      (fun () ->
        probe "toric-L3-deep-ckpt" ~trials:ckpt_trials ~mc:(deep_ckpt `Mc)
          ~batch:(fun w -> deep_ckpt (`Batch w))
          ~crosscheck:(deep_ckpt `Cross)) ]

(* Rare-engine probe: evaluations/sec of the weight-class subset
   sampler on the two deep-subthreshold kernels the engine exists
   for.  steane-L2-rare evaluates the level-2 Pauli-frame model (49
   locations x 3 Pauli kinds; weight-2 and up stratified-sampled);
   toric-L3-deep-rare enumerates every class up to weight 4 exactly
   (18 single-kind locations — zero sampling variance) at the same
   p = 2^-12 the batch deep kernel runs.  The trajectory records
   evals/sec per kernel with the truncation order standing in for the
   tile width.  The probe also asserts the estimate's basic sanity —
   an ordered, nonnegative interval with the truncation bound folded
   into its upper edge. *)
type rare_probe_entry = {
  rp_name : string;
  rp_max_weight : int;
  rp_evals : int;
  rp_evals_per_s : float;
  rp_rate : float;
  rp_ci_low : float;
  rp_ci_high : float;
  rp_sane : bool;
  rp_wall_s : float;  (* the whole probe, warm-up included *)
}

let rare_probe () =
  let time f =
    let t0 = Obs.now () in
    let r = f () in
    (r, Obs.now () -. t0)
  in
  let probe name ~max_weight run =
    let start = Obs.now () in
    ignore (run ());
    (* warm *)
    let (w : Mc.Stats.weighted), t = time run in
    let evals_per_s = float_of_int w.evals /. t in
    let sane =
      Float.is_finite w.rate && w.ci_low >= 0.0 && w.rate >= w.ci_low
      && w.ci_high >= w.rate
    in
    Printf.printf
      "rare probe %-18s W%d: %d evals in %.3f s (%9.0f evals/s), rate \
       %.4g in [%.4g, %.4g] %s\n%!"
      name max_weight w.evals t evals_per_s w.rate w.ci_low w.ci_high
      (if sane then "sane" else "INSANE");
    {
      rp_name = name;
      rp_max_weight = max_weight;
      rp_evals = w.evals;
      rp_evals_per_s = evals_per_s;
      rp_rate = w.rate;
      rp_ci_low = w.ci_low;
      rp_ci_high = w.ci_high;
      rp_sane = sane;
      rp_wall_s = Obs.now () -. start;
    }
  in
  let deep_p = 0.000244140625 in
  let steane_cfg = { Mc.Engine.default_rare with max_weight = 3 } in
  let toric_cfg = { Mc.Engine.default_rare with max_weight = 4 } in
  List.map
    (fun run -> run ())
    [ (fun () ->
        probe "steane-L2-rare" ~max_weight:steane_cfg.max_weight (fun () ->
            Codes.Pauli_frame.memory_failure_rare ~domains:1 ~config:steane_cfg
              ~level:2 ~eps:1e-3 ~rounds:1 ~seed:913 ()));
      (fun () ->
        probe "toric-L3-deep-rare" ~max_weight:toric_cfg.max_weight (fun () ->
            Toric.Memory.run_rare ~domains:1 ~config:toric_cfg ~l:3 ~p:deep_p
              ~seed:914 ())) ]

(* Crash-recovery probe: run a checkpointed campaign, interrupt it at
   a deterministic chunk (a chaos hook raising the same stop flag a
   SIGINT would), resume from the checkpoint file, and require the
   resumed count to equal an uninterrupted reference bit-for-bit. *)
let resume_probe () =
  let trials = 50_000 and chunk = 500 and seed = 2027 in
  (* a cheap Bernoulli body keeps the probe's wall-time small; what is
     under test is the checkpoint/resume machinery, not a gadget *)
  let trial rng _ = Random.State.float rng 1.0 < 0.1 in
  let reference =
    Mc.Runner.failures ~domains:1 ~chunk ~trials ~seed (Mc.Runner.scalar trial)
  in
  let file = Filename.temp_file "ftqc_bench_resume" ".json" in
  Sys.remove file;
  Fun.protect
    ~finally:(fun () -> try Sys.remove file with Sys_error _ -> ())
    (fun () ->
      let t0 = Obs.now () in
      Mc.Campaign.reset_stop ();
      let c =
        match Mc.Campaign.create ~flush_every:1 file with
        | Ok c -> c
        | Error m -> failwith m
      in
      (match
         Mc.Runner.failures ~domains:2 ~chunk ~campaign:c ~trials ~seed
           ~chaos:(Mc.Chaos.at_chunk ~chunk:20 Mc.Campaign.request_stop)
           (Mc.Runner.scalar trial)
       with
      | _ -> ()
      | exception Mc.Campaign.Interrupted _ -> ());
      Mc.Campaign.reset_stop ();
      let c' =
        match Mc.Campaign.load file with
        | Ok c -> c
        | Error m -> failwith m
      in
      let resumed =
        Mc.Runner.failures ~domains:2 ~chunk ~campaign:c' ~trials ~seed
          (Mc.Runner.scalar trial)
      in
      let dt = Obs.now () -. t0 in
      Printf.printf
        "resume probe: %d trials interrupted+resumed in %.3f s, counts %d/%d \
         %s\n%!"
        trials dt reference resumed
        (if reference = resumed then "agree" else "DISAGREE");
      (trials, dt, reference, resumed))

(* Service round-trip probe: an in-process ftqcd on a temp socket.
   Measures cold (fresh job) latency, cache-hit latency and ping
   round-trips/sec, and checks the byte-identity contract: the cached
   reply must equal the fresh one, and both must equal the result
   frame a direct in-process run of the same estimator produces. *)
let service_probe () =
  Mc.Campaign.reset_stop ();
  let socket = Filename.temp_file "ftqc_bench_svc" ".sock" in
  Sys.remove socket;
  let cfg =
    Svc.Server.config ~workers:2 ~cache_capacity:8 ~progress_interval:5.0
      ~socket ()
  in
  let th = Thread.create (fun () -> Svc.Server.run cfg) () in
  let rec wait n =
    if Sys.file_exists socket then ()
    else if n = 0 then failwith "service probe: daemon did not start"
    else begin
      Thread.delay 0.02;
      wait (n - 1)
    end
  in
  wait 250;
  Fun.protect
    ~finally:(fun () ->
      Mc.Campaign.request_stop ();
      Thread.join th;
      Mc.Campaign.reset_stop ())
    (fun () ->
      let est seed =
        Svc.Protocol.Toric_memory
          { l = 8; p = 0.08; trials = 2000; seed; engine = `Scalar;
            tile_width = 64 }
      in
      let request seed () =
        match
          Svc.Client.with_connection ~socket (fun fd ->
              Svc.Client.request fd (est seed))
        with
        | Ok (Ok o) -> o
        | Ok (Error e) ->
          failwith (Printf.sprintf "service probe: %s: %s" e.code e.message)
        | Error msg -> failwith ("service probe: " ^ msg)
      in
      let timed f =
        let t0 = Obs.now () in
        let v = f () in
        (v, Obs.now () -. t0)
      in
      (* each latency is the best of three — a single ~30 ms sample
         carries enough scheduler jitter to trip the trajectory
         gate's 2x ceiling; distinct seeds keep every cold request a
         genuine cache miss *)
      let fresh, cold1 = timed (request 2026) in
      let cached, hit1 = timed (request 2026) in
      let _, cold2 = timed (request 2027) in
      let _, cold3 = timed (request 2028) in
      let _, hit2 = timed (request 2026) in
      let _, hit3 = timed (request 2026) in
      let cold_s = min cold1 (min cold2 cold3) in
      let hit_s = min hit1 (min hit2 hit3) in
      let direct = Svc.Server.execute (est 2026) in
      let expected =
        Svc.Codec.encode
          (Svc.Protocol.result_frame
             ~key:(Svc.Protocol.to_canonical (Run (est 2026)))
             direct)
      in
      let identical =
        (not fresh.cached) && cached.cached
        && fresh.raw_result = cached.raw_result
        && fresh.raw_result = expected
      in
      let pings = 200 in
      let (), ping_dt =
        timed (fun () ->
            match
              Svc.Client.with_connection ~socket (fun fd ->
                  for _ = 1 to pings do
                    match Svc.Client.ping fd with
                    | Ok () -> ()
                    | Error e -> failwith ("service probe ping: " ^ e.message)
                  done)
            with
            | Ok () -> ()
            | Error msg -> failwith ("service probe: " ^ msg))
      in
      let rps = float_of_int pings /. ping_dt in
      Printf.printf
        "service probe: cold %.3f s, cache hit %.4f s, %.0f pings/s, \
         replies %s\n%!"
        cold_s hit_s rps
        (if identical then "byte-identical" else "DISAGREE");
      (cold_s, hit_s, rps, identical))

(* The artifact uses the same ftqc-manifest/1 schema as
   `experiments --json` (one record per kernel/probe), so one
   validator — bin/manifest_check.ml — covers both CI artifacts.
   With [--record], the width-probe shots/sec and daemon latencies
   are additionally appended to the performance trajectory. *)
let run_smoke ~out ~record ~trajectory ~label =
  let entries = List.map smoke_run kernels in
  let trials, domains, t_seq, t_par, speedup, f_seq, f_par =
    parallel_probe ()
  in
  let agree = f_seq = f_par in
  let batch_entries = batch_probe () in
  let rare_entries = rare_probe () in
  let r_trials, r_dt, r_ref, r_resumed = resume_probe () in
  let resume_agree = r_ref = r_resumed in
  let svc_cold, svc_hit, svc_rps, svc_identical = service_probe () in
  let m = Obs.Manifest.create () in
  let count name ~failures ~trials =
    let e = Mc.Stats.estimate ~failures ~trials () in
    {
      Obs.Manifest.name;
      failures = e.failures;
      trials_used = e.trials;
      rate = e.rate;
      ci_lo = e.ci_low;
      ci_hi = e.ci_high;
    }
  in
  List.iter
    (fun (name, mean_ms, runs) ->
      Obs.Manifest.add m
        {
          Obs.Manifest.experiment = "bench:" ^ name;
          params = [ ("runs", Obs.Json.Int runs) ];
          results = [];
          telemetry =
            [ ("wall_s", Obs.Json.Float (mean_ms /. 1e3 *. float_of_int runs));
              ("mean_ms", Obs.Json.Float mean_ms) ];
        })
    entries;
  Obs.Manifest.add m
    {
      Obs.Manifest.experiment = "bench:parallel-probe";
      params =
        [ ("trials", Obs.Json.Int trials); ("domains", Obs.Json.Int domains) ];
      results =
        [ count "seq" ~failures:f_seq ~trials;
          count "par" ~failures:f_par ~trials ];
      telemetry =
        [ ("wall_s", Obs.Json.Float (t_seq +. t_par));
          ("seq_s", Obs.Json.Float t_seq);
          ("par_s", Obs.Json.Float t_par);
          ("speedup", Obs.Json.Float speedup);
          ("identical_counts", Obs.Json.Bool agree) ];
    };
  List.iter
    (fun wp ->
      let b_sps =
        match wp.wp_widths with (_, s, _) :: _ -> s | [] -> 0.0
      in
      let bf =
        match wp.wp_widths with (_, _, f) :: _ -> f | [] -> 0
      in
      Obs.Manifest.add m
        {
          Obs.Manifest.experiment = "bench:batch-" ^ wp.wp_name;
          params = [ ("trials", Obs.Json.Int wp.wp_trials) ];
          results =
            [ count "batch" ~failures:bf ~trials:wp.wp_trials;
              count "crosscheck" ~failures:wp.wp_cross_fail
                ~trials:wp.wp_trials ];
          telemetry =
            [ ("wall_s", Obs.Json.Float wp.wp_wall_s);
              ("mc_shots_per_s", Obs.Json.Float wp.wp_mc_sps);
              ("batch_shots_per_s", Obs.Json.Float b_sps);
              ("speedup", Obs.Json.Float (b_sps /. wp.wp_mc_sps));
              ( "widths",
                Obs.Json.List
                  (List.map
                     (fun (w, sps, _) ->
                       Obs.Json.Obj
                         [ ("width", Obs.Json.Int w);
                           ("shots_per_s", Obs.Json.Float sps) ])
                     wp.wp_widths) );
              ("identical_counts", Obs.Json.Bool wp.wp_identical) ];
        })
    batch_entries;
  List.iter
    (fun rp ->
      Obs.Manifest.add m
        {
          Obs.Manifest.experiment = "bench:rare-" ^ rp.rp_name;
          params = [ ("max_weight", Obs.Json.Int rp.rp_max_weight) ];
          results = [];
          telemetry =
            [ ("wall_s", Obs.Json.Float rp.rp_wall_s);
              ("evals", Obs.Json.Int rp.rp_evals);
              ("evals_per_s", Obs.Json.Float rp.rp_evals_per_s);
              ("rate", Obs.Json.Float rp.rp_rate);
              ("ci_low", Obs.Json.Float rp.rp_ci_low);
              ("ci_high", Obs.Json.Float rp.rp_ci_high);
              ("sane", Obs.Json.Bool rp.rp_sane) ];
        })
    rare_entries;
  Obs.Manifest.add m
    {
      Obs.Manifest.experiment = "bench:resume-probe";
      params = [ ("trials", Obs.Json.Int r_trials) ];
      results =
        [ count "reference" ~failures:r_ref ~trials:r_trials;
          count "resumed" ~failures:r_resumed ~trials:r_trials ];
      telemetry =
        [ ("wall_s", Obs.Json.Float r_dt);
          ("identical_counts", Obs.Json.Bool resume_agree) ];
    };
  Obs.Manifest.add m
    {
      Obs.Manifest.experiment = "bench:service-probe";
      params = [];
      results = [];
      telemetry =
        [ ("wall_s", Obs.Json.Float (svc_cold +. svc_hit));
          ("cold_request_s", Obs.Json.Float svc_cold);
          ("cache_hit_s", Obs.Json.Float svc_hit);
          ("requests_per_s", Obs.Json.Float svc_rps);
          ("identical_replies", Obs.Json.Bool svc_identical) ];
    };
  Obs.Manifest.write ~generator:"bench-smoke" m ~file:out;
  Printf.printf "wrote %s\n%!" out;
  if record then begin
    let entry =
      {
        Obs.Perf.label;
        kernels =
          List.concat_map
            (fun wp ->
              List.map
                (fun (w, sps, _) ->
                  { Obs.Perf.name = wp.wp_name; width = w; shots_per_s = sps })
                wp.wp_widths)
            batch_entries
          @ List.map
              (fun rp ->
                (* the truncation order plays the width's role in the
                   trajectory key; shots_per_s is evals/sec *)
                {
                  Obs.Perf.name = rp.rp_name;
                  width = rp.rp_max_weight;
                  shots_per_s = rp.rp_evals_per_s;
                })
              rare_entries;
        daemon = Some { Obs.Perf.cold_s = svc_cold; hit_s = svc_hit };
      }
    in
    Obs.Perf.append ~file:trajectory entry;
    Printf.printf "recorded trajectory entry %S in %s\n%!" label trajectory
  end;
  let disagree =
    (not agree) || List.exists (fun wp -> not wp.wp_identical) batch_entries
  in
  if disagree then begin
    Printf.eprintf
      "FATAL: batch/scalar failure counts disagree (see %s)\n" out;
    exit 1
  end;
  if List.exists (fun rp -> not rp.rp_sane) rare_entries then begin
    Printf.eprintf
      "FATAL: rare-engine estimate violates its interval invariants (see \
       %s)\n"
      out;
    exit 1
  end;
  if not resume_agree then begin
    Printf.eprintf
      "FATAL: interrupted+resumed campaign count differs from the \
       uninterrupted reference (see %s)\n"
      out;
    exit 1
  end;
  if not svc_identical then begin
    Printf.eprintf
      "FATAL: service replies are not byte-identical to the direct run \
       (see %s)\n"
      out;
    exit 1
  end

(* --------------------------------------------------------------- CLI *)

let () =
  let smoke = ref false and out = ref "BENCH_smoke.json" in
  let record = ref false
  and trajectory = ref "BENCH_trajectory.json"
  and label = ref "local"
  and trace = ref None in
  let usage () =
    Printf.eprintf
      "usage: bench [--smoke [--out FILE]] [--record [--trajectory FILE] \
       [--label NAME]] [--tile-width N] [--trace FILE]\n";
    exit 2
  in
  let rec parse = function
    | [] -> ()
    | "--smoke" :: rest ->
      smoke := true;
      parse rest
    | "--out" :: file :: rest ->
      out := file;
      parse rest
    | "--record" :: rest ->
      (* recording runs the smoke probes (that is where the width
         sweep and daemon latencies come from) *)
      smoke := true;
      record := true;
      parse rest
    | "--trajectory" :: file :: rest ->
      trajectory := file;
      parse rest
    | "--label" :: name :: rest ->
      label := name;
      parse rest
    | "--trace" :: file :: rest ->
      (* ftqc-trace/1 span trace (Perfetto-loadable); observational
         only — measured numbers and outputs are unchanged *)
      trace := Some file;
      parse rest
    | "--tile-width" :: w :: rest -> (
      match int_of_string_opt w with
      | Some w when w >= 64 && w mod 64 = 0 ->
        cli_tile_width := w;
        parse rest
      | _ ->
        Printf.eprintf "bench: --tile-width must be a positive multiple of 64\n";
        exit 2)
    | arg :: _ ->
      Printf.eprintf "bench: unknown argument %S\n" arg;
      usage ()
  in
  parse (List.tl (Array.to_list Sys.argv));
  let sink =
    match !trace with
    | None -> None
    | Some _ ->
      let sk = Obs.Trace.sink () in
      Obs.Trace.install (Some sk);
      Some sk
  in
  (if !smoke then
     run_smoke ~out:!out ~record:!record ~trajectory:!trajectory ~label:!label
   else run_bechamel ());
  match (!trace, sink) with
  | Some file, Some sk ->
    Obs.Trace.install None;
    Obs.Trace.write sk ~file;
    Printf.eprintf "wrote trace (%d spans) to %s\n%!"
      (Obs.Trace.sink_length sk) file
  | _ -> ()
