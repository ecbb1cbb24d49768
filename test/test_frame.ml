(* The bit-sliced batch frame engine.  The load-bearing property is
   the batch-vs-scalar contract: [`Batch] and [`Scalar] engines issue
   the identical Frame.Sampler call sequence per 64-shot chunk, so
   their failure counts must be bit-identical — exactly, at any domain
   count — while [`Scalar] runs every shot through the pre-existing
   per-shot decoder pipeline.  Everything else (word sampling, plane
   propagation, transposition) is checked directly. *)

open Ftqc

let check msg expected actual = Alcotest.(check bool) msg expected actual

(* --- Frame.Plane: propagation and transposition ----------------------- *)

let test_plane_propagation () =
  let pl = Frame.Plane.create 3 in
  (* shot 0: X on qubit 0; shot 1: Z on qubit 1; shot 5: Y on qubit 0 *)
  Frame.Plane.xor_x pl 0 0b100001L;
  Frame.Plane.xor_z pl 0 0b100000L;
  Frame.Plane.xor_z pl 1 0b000010L;
  (* CNOT 0->1 copies X forward and Z backward *)
  Frame.Plane.cnot pl 0 1;
  check "cnot: X propagates to target" true
    (Frame.Plane.get_x pl 1 = 0b100001L);
  check "cnot: Z propagates to control" true
    (Frame.Plane.get_z pl 0 = 0b100010L);
  (* H swaps the planes *)
  Frame.Plane.h pl 0;
  check "h swaps x and z" true
    (Frame.Plane.get_x pl 0 = 0b100010L
    && Frame.Plane.get_z pl 0 = 0b100001L);
  (* S: X -> Y, so z ^= x *)
  let x_before = Frame.Plane.get_x pl 2 in
  Frame.Plane.xor_x pl 2 1L;
  Frame.Plane.s_gate pl 2;
  check "s: z ^= x" true
    (Frame.Plane.get_z pl 2 = Int64.logxor x_before 1L)

let test_plane_matches_pauli_conjugation () =
  (* random frames pushed through random CNOT/H/S sequences agree with
     Tableau.conj_gate on the extracted per-shot Paulis *)
  let n = 5 in
  let rng = Random.State.make [| 77 |] in
  let pl = Frame.Plane.create n in
  for q = 0 to n - 1 do
    Frame.Plane.xor_x pl q (Random.State.bits64 rng);
    Frame.Plane.xor_z pl q (Random.State.bits64 rng)
  done;
  let shots = Array.init 8 (fun k -> Frame.Plane.extract_shot pl k) in
  let gates =
    List.init 30 (fun _ ->
        match Random.State.int rng 3 with
        | 0 ->
          let a = Random.State.int rng n in
          let b = (a + 1 + Random.State.int rng (n - 1)) mod n in
          Circuit.Cnot (a, b)
        | 1 -> Circuit.H (Random.State.int rng n)
        | _ -> Circuit.S (Random.State.int rng n))
  in
  List.iter
    (fun g ->
      match g with
      | Circuit.Cnot (a, b) -> Frame.Plane.cnot pl a b
      | Circuit.H q -> Frame.Plane.h pl q
      | Circuit.S q -> Frame.Plane.s_gate pl q
      | _ -> assert false)
    gates;
  let reference =
    Array.map
      (fun p -> List.fold_left (fun p g -> Codes.Conjugate.gate g p) p gates)
      shots
  in
  let ok = ref true in
  Array.iteri
    (fun k r ->
      let e = Frame.Plane.extract_shot pl k in
      for q = 0 to n - 1 do
        if Pauli.letter e q <> Pauli.letter r q then ok := false
      done)
    reference;
  check "frame propagation = phase-free Pauli conjugation" true !ok

let test_transpose_round_trip () =
  let rng = Random.State.make [| 3 |] in
  let words = Array.init 17 (fun _ -> Random.State.bits64 rng) in
  let reloaded = Array.make 17 0L in
  for k = 0 to 63 do
    Frame.Plane.load_shot reloaded k (Frame.Plane.shot_vec words k)
  done;
  check "shot_vec / load_shot round-trips the word array" true
    (words = reloaded)

let test_transpose64_orientation () =
  (* single bit (r, c) lands at (c, r), and the transpose is an
     involution on random blocks *)
  let block = Array.make 64 0L in
  List.iter
    (fun (r, c) ->
      Array.fill block 0 64 0L;
      block.(r) <- Int64.shift_left 1L c;
      Frame.Plane.transpose64 block 0;
      let ok = ref true in
      for i = 0 to 63 do
        let expect = if i = c then Int64.shift_left 1L r else 0L in
        if block.(i) <> expect then ok := false
      done;
      check (Printf.sprintf "bit (%d,%d) transposes to (%d,%d)" r c c r)
        true !ok)
    [ (0, 0); (0, 63); (63, 0); (17, 42); (63, 63) ];
  let rng = Random.State.make [| 29 |] in
  (* offset 64 exercises the [off] parameter *)
  let a = Array.init 128 (fun _ -> Random.State.bits64 rng) in
  let saved = Array.copy a in
  Frame.Plane.transpose64 a 64;
  Frame.Plane.transpose64 a 64;
  check "transpose64 is an involution (at offset)" true (a = saved)

let test_transpose_rows_matches_row_shot_vec () =
  (* the tile-at-a-time block transpose must agree with the per-shot
     strided extraction for every lane count and ragged nrows *)
  let rng = Random.State.make [| 41 |] in
  List.iter
    (fun lanes ->
      List.iter
        (fun nrows ->
          let src =
            Array.init (((nrows + 7) * lanes) + 3) (fun _ ->
                Random.State.bits64 rng)
          in
          let pos = 2 in
          let dst = Array.make ((nrows + 63) / 64 * 64) 0L in
          let ok = ref true in
          for lane = 0 to lanes - 1 do
            Frame.Plane.transpose_rows ~src ~lanes ~lane ~pos ~nrows dst;
            for k = 0 to 63 do
              let via_blocks =
                Frame.Plane.shot_of_transposed dst ~len:nrows k
              in
              let via_probe =
                Frame.Plane.row_shot_vec src ~lanes ~lane ~pos ~len:nrows k
              in
              if not (Gf2.Bitvec.equal via_blocks via_probe) then ok := false
            done
          done;
          check
            (Printf.sprintf "transpose_rows = row_shot_vec (lanes %d, nrows %d)"
               lanes nrows)
            true !ok)
        [ 1; 63; 64; 130 ])
    [ 1; 4; 8 ]

(* --- Frame.Sampler: word-sampled Bernoulli ----------------------------- *)

let test_bernoulli_distribution () =
  (* aggregate bit rate over many words ≈ p, and per-bit-position
     rates are individually plausible (each position is Binomial) *)
  List.iter
    (fun p ->
      let words = 4000 in
      let s = Frame.Sampler.create (Mc.Rng.root 505) in
      let total = ref 0 in
      let per_bit = Array.make 64 0 in
      for _ = 1 to words do
        let w = Frame.Sampler.bernoulli s p in
        for k = 0 to 63 do
          if Frame.Plane.bit w k then begin
            incr total;
            per_bit.(k) <- per_bit.(k) + 1
          end
        done
      done;
      let n = float_of_int (64 * words) in
      let rate = float_of_int !total /. n in
      let sigma = sqrt (p *. (1.0 -. p) /. n) in
      check
        (Printf.sprintf "aggregate rate for p=%g within 5 sigma" p)
        true
        (Float.abs (rate -. p) < (5.0 *. sigma) +. 1e-9);
      (* crude chi-square over bit positions: sum of squared
         standardized deviations should be ~64, far below 2x *)
      let expect = p *. float_of_int words in
      let var = expect *. (1.0 -. p) in
      let chi2 =
        Array.fold_left
          (fun acc c ->
            let d = float_of_int c -. expect in
            acc +. (d *. d /. var))
          0.0 per_bit
      in
      check
        (Printf.sprintf "per-bit chi-square for p=%g plausible" p)
        true
        (chi2 < 128.0))
    [ 0.003; 0.05; 0.3; 0.5 ]

let test_bernoulli_draw_count_depends_only_on_p () =
  (* the contract behind batch/scalar equality: the number of uniform
     words consumed is a function of p alone, so call sequences align *)
  let consumed p seed =
    let s = Frame.Sampler.create (Mc.Rng.root seed) in
    ignore (Frame.Sampler.bernoulli s p);
    (* position is not exposed; infer by checking the next uniform
       word equals the draw at the inferred position *)
    let next = Frame.Sampler.uniform s in
    let rec find pos =
      if pos > Frame.Sampler.digits + 1 then -1
      else if Mc.Rng.draw (Mc.Rng.root seed) pos = next then pos
      else find (pos + 1)
    in
    find 0
  in
  List.iter
    (fun p ->
      let a = consumed p 1 and b = consumed p 999 in
      check
        (Printf.sprintf "draw count for p=%g seed-independent" p)
        true
        (a >= 0 && a = b))
    [ 0.003; 0.05; 0.3; 0.9 ]

(* --- batch vs scalar: bit-identical failure counts --------------------- *)

let steane_counts ?(tile_width = 64) ~level ~domains ~engine () =
  (Codes.Pauli_frame.memory_failure_batch ~domains ~engine ~tile_width ~level
     ~eps:0.06 ~rounds:2 ~trials:500 ~seed:31 ())
    .failures

let test_steane_batch_equals_scalar () =
  List.iter
    (fun level ->
      let reference = steane_counts ~level ~domains:1 ~engine:`Scalar () in
      check
        (Printf.sprintf "level %d: some failures observed" level)
        true (reference > 0);
      List.iter
        (fun domains ->
          check
            (Printf.sprintf "level %d batch = scalar (domains %d)" level
               domains)
            true
            (steane_counts ~level ~domains ~engine:`Batch () = reference))
        [ 1; 4 ])
    [ 1; 2 ]

let test_steane_batch_plausible_vs_legacy () =
  (* the batch engine samples noise differently from the legacy _mc
     path, so rates (not counts) must agree statistically *)
  let trials = 4000 in
  let batch =
    Codes.Pauli_frame.memory_failure_batch ~domains:1 ~level:1 ~eps:0.08
      ~rounds:1 ~trials ~seed:5 ()
  in
  let legacy =
    Codes.Pauli_frame.memory_failure_mc ~domains:1 ~level:1 ~eps:0.08
      ~rounds:1 ~trials ~seed:5 ()
  in
  let sigma = legacy.stderr +. batch.stderr in
  check "batch rate within 5 sigma of legacy rate" true
    (Float.abs (batch.rate -. legacy.rate) < 5.0 *. sigma)

let toric_counts ?(tile_width = 64) ~l ~domains ~engine () =
  (Toric.Memory.run_batch ~domains ~engine ~tile_width ~l ~p:0.08 ~trials:500
     ~seed:77 ())
    .Toric.Memory.failures

let test_toric_batch_equals_scalar () =
  List.iter
    (fun l ->
      let reference = toric_counts ~l ~domains:1 ~engine:`Scalar () in
      List.iter
        (fun domains ->
          check
            (Printf.sprintf "toric l=%d batch = scalar (domains %d)" l domains)
            true
            (toric_counts ~l ~domains ~engine:`Batch () = reference))
        [ 1; 4 ])
    (* L12: 144 syndrome rows, three transpose blocks *)
    [ 3; 5; 12 ]

let noisy_toric_counts ?(tile_width = 64) ?(l = 3) ?(rounds = 3) ~domains
    ~engine () =
  (Toric.Noisy_memory.run_batch ~domains ~engine ~tile_width ~l ~rounds
     ~p:0.03 ~q:0.03 ~trials:300 ~seed:13 ())
    .Toric.Noisy_memory.failures

let test_noisy_toric_batch_equals_scalar () =
  List.iter
    (fun (l, rounds) ->
      let reference = noisy_toric_counts ~l ~rounds ~domains:1 ~engine:`Scalar () in
      check
        (Printf.sprintf "noisy toric L%d r%d: some failures observed" l rounds)
        true (reference > 0);
      List.iter
        (fun domains ->
          check
            (Printf.sprintf "noisy toric L%d r%d batch = scalar (domains %d)" l
               rounds domains)
            true
            (noisy_toric_counts ~l ~rounds ~domains ~engine:`Batch ()
            = reference))
        [ 1; 4 ])
    (* L5 r3: 75 detection rows, two transpose blocks; one round: the
       detection rows are the syndrome rows and q never applies *)
    [ (3, 3); (5, 3); (3, 1) ]

(* --- multi-word tiles: bit-identical counts at any width --------------- *)

let tile_widths = [ 64; 256; 512 ]

let test_tile_width_bit_identity () =
  (* every kernel, every width, every domain count: exactly the
     scalar-engine counts.  Lane j of a width-64k tile runs the same
     64 shots on the same Rng.split key as width-64 chunk
     [c * k + j], so this holds bit-for-bit, not statistically. *)
  List.iter
    (fun level ->
      let reference = steane_counts ~level ~domains:1 ~engine:`Scalar () in
      List.iter
        (fun tile_width ->
          List.iter
            (fun domains ->
              check
                (Printf.sprintf "steane L%d width %d (domains %d) = scalar"
                   level tile_width domains)
                true
                (steane_counts ~tile_width ~level ~domains ~engine:`Batch ()
                = reference))
            [ 1; 4 ])
        tile_widths)
    [ 1; 2 ];
  List.iter
    (fun l ->
      let reference = toric_counts ~l ~domains:1 ~engine:`Scalar () in
      List.iter
        (fun tile_width ->
          List.iter
            (fun domains ->
              check
                (Printf.sprintf "toric l=%d width %d (domains %d) = scalar" l
                   tile_width domains)
                true
                (toric_counts ~tile_width ~l ~domains ~engine:`Batch ()
                = reference))
            [ 1; 4 ])
        tile_widths)
    [ 3; 5 ];
  let reference = noisy_toric_counts ~domains:1 ~engine:`Scalar () in
  List.iter
    (fun tile_width ->
      List.iter
        (fun domains ->
          check
            (Printf.sprintf "noisy toric width %d (domains %d) = scalar"
               tile_width domains)
            true
            (noisy_toric_counts ~tile_width ~domains ~engine:`Batch ()
            = reference))
        [ 1; 4 ])
    tile_widths

let test_tile_width_ragged_tail () =
  (* trial counts that are not multiples of the tile width: the live
     mask must kill dead lanes and dead bits inside the last tile *)
  let counts ~tile_width ~trials =
    (Codes.Pauli_frame.memory_failure_batch ~domains:1 ~tile_width ~level:1
       ~eps:0.06 ~rounds:1 ~trials ~seed:3 ())
      .failures
  in
  List.iter
    (fun trials ->
      let reference = counts ~tile_width:64 ~trials in
      List.iter
        (fun tile_width ->
          check
            (Printf.sprintf "ragged %d trials at width %d = width 64" trials
               tile_width)
            true
            (counts ~tile_width ~trials = reference))
        [ 256; 512 ])
    (* 100: inside one lane; 300: kills lanes 5.. of a 512 tile plus a
       partial word; 500: one full 256 tile + ragged second *)
    [ 100; 300; 500 ]

let test_batch_trials_not_multiple_of_64 () =
  (* partial last word: the live mask must drop the dead bits *)
  let counts trials =
    (Codes.Pauli_frame.memory_failure_batch ~domains:1 ~level:1 ~eps:0.06
       ~rounds:1 ~trials ~seed:3 ())
      .failures
  in
  let c100 = counts 100 and c164 = counts 164 in
  check "counts monotone in trials (same seed prefix)" true (c100 <= c164);
  let scalar =
    (Codes.Pauli_frame.memory_failure_batch ~domains:1 ~engine:`Scalar
       ~level:1 ~eps:0.06 ~rounds:1 ~trials:100 ~seed:3 ())
      .failures
  in
  check "ragged trials: batch = scalar" true (c100 = scalar)

(* --- Mc.Rng stream type ------------------------------------------------ *)

let test_rng_stream_reproducible () =
  let a = Mc.Rng.of_seed 9 and b = Mc.Rng.of_seed 9 in
  let same = ref true in
  for _ = 1 to 50 do
    if Mc.Rng.bits64 a <> Mc.Rng.bits64 b then same := false
  done;
  check "same seed, same stream" true !same

let test_rng_legacy_wrapper_shares_state () =
  let s = Random.State.make [| 4 |] and s' = Random.State.make [| 4 |] in
  let r = Mc.Rng.of_random_state s in
  let same = ref true in
  for _ = 1 to 50 do
    if Mc.Rng.bits64 r <> Random.State.bits64 s' then same := false
  done;
  check "legacy wrapper delegates draws bit-identically" true !same

let suites =
  [
    ( "frame",
      [
        Alcotest.test_case "plane propagation" `Quick test_plane_propagation;
        Alcotest.test_case "plane = Pauli conjugation" `Quick
          test_plane_matches_pauli_conjugation;
        Alcotest.test_case "transpose round-trip" `Quick
          test_transpose_round_trip;
        Alcotest.test_case "transpose64 orientation" `Quick
          test_transpose64_orientation;
        Alcotest.test_case "transpose_rows = row_shot_vec" `Quick
          test_transpose_rows_matches_row_shot_vec;
        Alcotest.test_case "bernoulli distribution" `Quick
          test_bernoulli_distribution;
        Alcotest.test_case "bernoulli draw count" `Quick
          test_bernoulli_draw_count_depends_only_on_p;
        Alcotest.test_case "steane batch = scalar" `Quick
          test_steane_batch_equals_scalar;
        Alcotest.test_case "steane batch vs legacy rate" `Quick
          test_steane_batch_plausible_vs_legacy;
        Alcotest.test_case "toric batch = scalar" `Quick
          test_toric_batch_equals_scalar;
        Alcotest.test_case "noisy toric batch = scalar" `Quick
          test_noisy_toric_batch_equals_scalar;
        Alcotest.test_case "ragged trial count" `Quick
          test_batch_trials_not_multiple_of_64;
        Alcotest.test_case "tile width bit-identity" `Quick
          test_tile_width_bit_identity;
        Alcotest.test_case "tile width ragged tail" `Quick
          test_tile_width_ragged_tail;
        Alcotest.test_case "rng stream reproducible" `Quick
          test_rng_stream_reproducible;
        Alcotest.test_case "rng legacy wrapper" `Quick
          test_rng_legacy_wrapper_shares_state;
      ] );
  ]
