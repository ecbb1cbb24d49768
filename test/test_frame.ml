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

(* --- oracles: the digit fold, the Pauli word, the transpose ---------- *)

(* The Bernoulli digit fold as documented, one [Mc.Rng.draw] per digit
   from the least significant digit up. *)
let reference_fold key ~pos ~scaled ~start ~stop =
  let acc = ref 0L in
  for j = start to stop - 1 do
    let u = Mc.Rng.draw key (pos + j - start) in
    acc :=
      if Int64.logand (Int64.shift_right_logical scaled j) 1L = 1L then
        Int64.logor u !acc
      else Int64.logand u !acc
  done;
  !acc

(* p's digits as the sampler keeps them: p * 2^40 rounded and clamped
   into [1, 2^40 - 1], folded from its lowest set digit. *)
let digits_of p =
  let s = Int64.of_float ((p *. 0x1p40) +. 0.5) in
  let s = if s <= 0L then 1L else if s >= 0x10000000000L then 0xFFFFFFFFFFL else s in
  let rec lowest j =
    if Int64.logand (Int64.shift_right_logical s j) 1L = 1L then j else lowest (j + 1)
  in
  (s, lowest 0)

(* A probability's word and draw count: p <= 0 and p >= 1 draw
   nothing. *)
let reference_word key ~pos p =
  if p <= 0.0 then (0L, 0)
  else if p >= 1.0 then (-1L, 0)
  else
    let scaled, start = digits_of p in
    (reference_fold key ~pos ~scaled ~start ~stop:Frame.Sampler.digits,
     Frame.Sampler.digits - start)

let gen_p =
  QCheck.Gen.(
    oneof
      [ map (fun k -> Float.ldexp 1.0 (-k)) (int_range 1 40);
        oneofl
          [ 1.0 -. 0x1p-40; 0.5; 2.0 /. 3.0; 0.001 /. 3.0; 0.01 /. 3.0;
            0.05 /. 3.0; 0.08 /. 3.0; 0.1 /. 3.0 ];
        float_bound_exclusive 1.0 ])

let prop_fold_digits_oracle =
  let gen =
    QCheck.Gen.(
      let* key = ui64 in
      let* pos = int_range 0 1_000_000 in
      let* p = gen_p in
      let scaled, lowest = digits_of p in
      (* any start at or below the lowest set digit folds the same
         digits over a different window of positions *)
      let* start = oneof [ return lowest; int_range 0 lowest ] in
      let* care = oneof [ return (-1L); return 0L; ui64 ] in
      return (key, pos, scaled, start, care))
  in
  let print (key, pos, scaled, start, care) =
    Printf.sprintf "key %Lx pos %d scaled %Lx start %d care %Lx" key pos scaled
      start care
  in
  QCheck.Test.make ~name:"Mc.Rng.fold_digits = per-digit fold over draw"
    ~count:3000 (QCheck.make ~print gen)
    (fun (key, pos, scaled, start, care) ->
      let stop = Frame.Sampler.digits in
      let r = reference_fold key ~pos ~scaled ~start ~stop in
      Mc.Rng.fold_digits key ~pos ~scaled ~start ~stop = r
      && Mc.Rng.fold_digits_care key ~pos ~scaled ~start ~stop ~care
         = Int64.logand r care)

(* Plane.depolarize_plan on a 4-lane tile against three reference
   folds per (qubit, lane), combined as x = e·hx and
   z = e·(hx·y + ¬hx), including the zero-draw plans of biased and
   degenerate channels; the sampler must end where three full plan
   calls per qubit leave it. *)
let prop_depolarize_oracle =
  let lanes = 4 and n = 5 in
  let qubits = [| 3; 0; 4; 1 |] in
  let gen =
    QCheck.Gen.(
      let* seed = int_range 0 100_000 in
      let* skip = int_range 0 50 in
      let q = oneof [ return 0.0; gen_p ] in
      let* px, py, pz =
        oneof
          [ triple q q q;
            (let* a = gen_p and* b = gen_p and* c = gen_p in
             oneofl
               [ (a, b, 0.0); (0.0, 0.0, c); (0.0, b, c); (0.0, 0.0, 0.0);
                 (a /. 3.0, a /. 3.0, a /. 3.0); (0.5, 0.25, 0.25) ]) ]
      in
      return (seed, skip, px, py, pz))
  in
  let print (seed, skip, px, py, pz) =
    Printf.sprintf "seed %d skip %d px %h py %h pz %h" seed skip px py pz
  in
  QCheck.Test.make ~name:"Plane.depolarize_plan = three reference folds"
    ~count:400 (QCheck.make ~print gen)
    (fun (seed, skip, px, py, pz) ->
      let root = Mc.Rng.root seed in
      let keys = Array.init lanes (Mc.Rng.split root) in
      let sampler = Frame.Sampler.create_tile keys in
      for _ = 1 to skip do
        ignore (Frame.Sampler.uniform sampler)
      done;
      let plane = Frame.Plane.create ~width:(64 * lanes) n in
      let rng = Random.State.make [| seed |] in
      let x0 = Array.init (n * lanes) (fun _ -> Random.State.bits64 rng) in
      let z0 = Array.init (n * lanes) (fun _ -> Random.State.bits64 rng) in
      for q = 0 to n - 1 do
        for lane = 0 to lanes - 1 do
          Frame.Plane.xor_x ~lane plane q x0.((q * lanes) + lane);
          Frame.Plane.xor_z ~lane plane q z0.((q * lanes) + lane)
        done
      done;
      Frame.Plane.depolarize_plan plane sampler ~qubits
        (Frame.Sampler.pauli_plan ~px ~py ~pz);
      let pt = px +. py +. pz in
      let pe, phx, py' =
        if pt <= 0.0 then (0.0, 0.0, 0.0)
        else
          ( pt,
            (px +. py) /. pt,
            if px +. py <= 0.0 then 0.0 else py /. (px +. py) )
      in
      let pos = ref skip in
      Array.iter
        (fun q ->
          let next = ref !pos in
          for lane = 0 to lanes - 1 do
            let key = keys.(lane) in
            let e, de = reference_word key ~pos:!pos pe in
            let hx, dh = reference_word key ~pos:(!pos + de) phx in
            let y, dy = reference_word key ~pos:(!pos + de + dh) py' in
            let i = (q * lanes) + lane in
            x0.(i) <- Int64.logxor x0.(i) (Int64.logand e hx);
            z0.(i) <-
              Int64.logxor z0.(i)
                (Int64.logand e
                   (Int64.logor (Int64.logand hx y) (Int64.lognot hx)));
            next := !pos + de + dh + dy
          done;
          pos := !next)
        qubits;
      let planes_ok = ref true in
      for q = 0 to n - 1 do
        for lane = 0 to lanes - 1 do
          if
            Frame.Plane.get_x ~lane plane q <> x0.((q * lanes) + lane)
            || Frame.Plane.get_z ~lane plane q <> z0.((q * lanes) + lane)
          then planes_ok := false
        done
      done;
      !planes_ok && Frame.Sampler.uniform sampler = Mc.Rng.draw keys.(0) !pos)

let test_transpose_rows_bitwise () =
  (* word d of shot k must hold, at bit i, bit k of row 64·d + i (0
     past nrows), whether the rows and the result are int64 arrays
     (transpose_rows) or word vectors transposed in place
     (transpose_words); transpose64 and transpose_block are the
     one-block case *)
  let rng = Random.State.make [| 5 |] in
  let bit = Frame.Plane.bit in
  List.iter
    (fun lanes ->
      List.iter
        (fun nrows ->
          let pos = 3 in
          let src =
            Array.init ((pos + nrows + 1) * lanes) (fun _ -> Random.State.bits64 rng)
          in
          let nblocks = (nrows + 63) / 64 in
          let dst = Array.make (nblocks * 64) 0L in
          (* one spare word past the end, so a stray store would show *)
          let wdst = Mc.Words.create ((nblocks * 64) + 1) in
          let ok = ref true and words_ok = ref true in
          for lane = 0 to lanes - 1 do
            Frame.Plane.transpose_rows ~src ~lanes ~lane ~pos ~nrows dst;
            Mc.Words.fill wdst 0 (Mc.Words.length wdst) (-1L);
            Frame.Plane.transpose_words ~src:(Mc.Words.of_array src) ~lanes ~lane
              ~pos ~nrows wdst;
            for d = 0 to nblocks - 1 do
              for k = 0 to 63 do
                let expect = ref 0L in
                for i = 0 to 63 do
                  let r = (d * 64) + i in
                  if r < nrows && bit src.(((pos + r) * lanes) + lane) k then
                    expect := Int64.logor !expect (Int64.shift_left 1L i)
                done;
                if dst.((d * 64) + k) <> !expect then ok := false;
                if Mc.Words.get wdst (8 * ((d * 64) + k)) <> !expect then
                  words_ok := false
              done
            done;
            if Mc.Words.get wdst (8 * nblocks * 64) <> -1L then words_ok := false
          done;
          check
            (Printf.sprintf "transpose_rows bit by bit (lanes %d, nrows %d)" lanes nrows)
            true !ok;
          check
            (Printf.sprintf "transpose_words bit by bit (lanes %d, nrows %d)" lanes
               nrows)
            true !words_ok)
        [ 1; 25; 63; 64; 65; 130 ])
    [ 1; 4 ];
  let a = Array.init 64 (fun _ -> Random.State.bits64 rng) in
  let t = Array.copy a in
  Frame.Plane.transpose64 t 0;
  let w = Mc.Words.create 66 in
  Mc.Words.fill w 0 66 (-1L);
  Array.iteri (fun i x -> Mc.Words.set w (8 * (i + 1)) x) a;
  Frame.Plane.transpose_block w 1;
  let ok = ref true and words_ok = ref true in
  for r = 0 to 63 do
    for c = 0 to 63 do
      if bit a.(r) c <> bit t.(c) r then ok := false;
      if bit a.(r) c <> bit (Mc.Words.get w (8 * (c + 1))) r then words_ok := false
    done
  done;
  if Mc.Words.get w 0 <> -1L || Mc.Words.get w (8 * 65) <> -1L then words_ok := false;
  check "transpose64 bit by bit" true !ok;
  check "transpose_block in place, bit by bit" true !words_ok

(* --- NaN probabilities ------------------------------------------------ *)

let test_nan_probability_rejected () =
  let raises name f =
    check name true
      (match f () with _ -> false | exception Invalid_argument _ -> true)
  in
  raises "Sampler.plan nan" (fun () -> ignore (Frame.Sampler.plan Float.nan));
  raises "Sampler.bernoulli nan" (fun () ->
      ignore (Frame.Sampler.bernoulli (Frame.Sampler.create (Mc.Rng.root 1)) Float.nan));
  raises "Sampler.pauli_plan nan" (fun () ->
      ignore (Frame.Sampler.pauli_plan ~px:Float.nan ~py:0.01 ~pz:0.01));
  raises "Program.make Flip_x nan" (fun () ->
      ignore
        (Frame.Program.make ~n:2
           [ Frame.Program.Flip_x { qubits = [| 0; 1 |]; p = Float.nan } ]));
  raises "Program.make Depolarize nan" (fun () ->
      ignore
        (Frame.Program.make ~n:2
           [ Frame.Program.Depolarize
               { qubits = [| 0 |]; px = 0.01; py = 0.01; pz = Float.nan } ]));
  raises "Toric.Memory.run_batch nan" (fun () ->
      ignore (Toric.Memory.run_batch ~domains:1 ~l:3 ~p:Float.nan ~trials:64 ~seed:1 ()))

(* --- allocation ------------------------------------------------------- *)

(* Minor-heap words per shot of an estimate on one domain (the runner
   then runs every tile on the calling domain, so the count is exact
   and repeats); a first run forces tables and lazies.  This guards
   the unboxed word buffers, fold, transpose and parity loops of the
   three frame kernels, which no timing test can: a kernel that
   stores its words boxed again reads several words per shot. *)
let words_per_shot ~trials f =
  ignore (f ());
  let w0 = Gc.minor_words () in
  ignore (f ());
  (Gc.minor_words () -. w0) /. float_of_int trials

let test_kernel_allocation () =
  let trials = 16_384 in
  let bound name words limit =
    check (Printf.sprintf "%s: %.1f <= %g minor words per shot" name words limit)
      true (words <= limit)
  in
  let golay = Csskit.Zoo.get "golay23" in
  bound "golay23 w256"
    (words_per_shot ~trials (fun () ->
         Csskit.Memory.memory_failure_batch ~domains:1 ~tile_width:256 golay
           ~eps:0.08 ~rounds:1 ~trials ~seed:11 ()))
    3.0;
  bound "toric L5 w256"
    (words_per_shot ~trials (fun () ->
         Toric.Memory.run_batch ~domains:1 ~tile_width:256 ~l:5 ~p:0.05 ~trials
           ~seed:11 ()))
    3.0;
  bound "toric L3 p=2^-12 w512"
    (words_per_shot ~trials (fun () ->
         Toric.Memory.run_batch ~domains:1 ~tile_width:512 ~l:3 ~p:0x1p-12 ~trials
           ~seed:11 ()))
    1.0;
  bound "steane L2 w64"
    (words_per_shot ~trials (fun () ->
         Codes.Pauli_frame.memory_failure_batch ~domains:1 ~tile_width:64 ~level:2
           ~eps:0.01 ~rounds:1 ~trials ~seed:11 ()))
    3.0

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
    ( "frame.oracle",
      [
        QCheck_alcotest.to_alcotest prop_fold_digits_oracle;
        QCheck_alcotest.to_alcotest prop_depolarize_oracle;
        Alcotest.test_case "transpose_rows bit by bit" `Quick
          test_transpose_rows_bitwise;
        Alcotest.test_case "NaN probability rejected" `Quick
          test_nan_probability_rejected;
        Alcotest.test_case "kernel allocation" `Quick test_kernel_allocation;
      ] );
  ]
