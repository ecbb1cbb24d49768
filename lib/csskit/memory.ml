module Bitvec = Gf2.Bitvec
module Code = Codes.Stabilizer_code
module Plane = Frame.Plane
module Sampler = Frame.Sampler
module Program = Frame.Program
module W = Mc.Words

type engine = [ `Batch | `Scalar ]

(* XOR this round's residual anticommutation indicators into bx/bz
   (one slot per logical).  An undecodable syndrome counts as hitting
   every logical (the Pauli_frame "undecodable = failed" convention,
   XOR-composed like everything else). *)
let residual_into (t : Kit.t) dec e ~off bx bz =
  let code = t.code in
  match Code.decode dec (Code.syndrome code e) with
  | None ->
    for j = 0 to t.k - 1 do
      bx.(off + j) <- not bx.(off + j);
      bz.(off + j) <- not bz.(off + j)
    done
  | Some c ->
    let r = Pauli.mul c e in
    for j = 0 to t.k - 1 do
      if not (Pauli.commutes r code.Code.logical_z.(j)) then
        bx.(off + j) <- not bx.(off + j);
      if not (Pauli.commutes r code.Code.logical_x.(j)) then
        bz.(off + j) <- not bz.(off + j)
    done

let any_set a off len =
  let rec go i = i < len && (a.(off + i) || go (i + 1)) in
  go 0

let memory_trial (t : Kit.t) dec ~eps ~rounds rng =
  let bx = Array.make t.k false and bz = Array.make t.k false in
  for _ = 1 to rounds do
    let e = Codes.Pauli_frame.depolarize rng ~eps ~n:t.n in
    residual_into t dec e ~off:0 bx bz
  done;
  any_set bx 0 t.k || any_set bz 0 t.k

let memory_failure_mc ?domains ?obs (t : Kit.t) ~eps ~rounds ~trials ~seed () =
  if t.k < 1 then invalid_arg "Csskit.Memory: k >= 1 codes only";
  if rounds < 1 then invalid_arg "Csskit.Memory: rounds >= 1";
  let dec = Kit.decoder t in
  Mc.Runner.estimate ?domains ?obs ~trials ~seed
    (Mc.Runner.scalar (fun rng _ -> memory_trial t dec ~eps ~rounds rng))

(* ------------------------------------------------------------------ *)
(* Batch classifier compilation.                                      *)

(* For syndrome s with tabulated correction c_s and error e, the
   residual's logical-X indicator against logical j is
     ⟨c_s·e, Lz_j⟩ = ⟨c_s, Lz_j⟩ ⊕ ⟨e, Lz_j⟩
   by bilinearity of the symplectic product (likewise has_z against
   Lx_j) — an error parity word XOR a pure function of the syndrome
   bits.  An undecodable syndrome instead toggles every logical
   whatever the error ([residual_into]'s convention), so each
   classifier also yields the word of undecodable shots, which
   overrides the parity.  Two ways to evaluate the classification:
   - Sides: the function is the CSS product of one function per side
     ({!Kit.flip_tables}), so block-transpose the lane's syndrome
     words and look both sides up per shot;
   - Memo: sides wider than {!Kit.max_table_checks} or k > 62 decode
     per shot through a memo keyed by the syndrome bitstring. *)
type mode = Sides of { nz : int; nx : int; tables : Kit.flip_tables } | Memo

type compiled = {
  k : int;
  m : int;  (* generator count = syndrome bits *)
  checks : Program.check array;  (* code.generators order: Z rows, X rows *)
  lzs : Program.check array;
  lxs : Program.check array;
  classify_syndrome : Bitvec.t -> (bool array * bool array) option;
      (* None: undecodable *)
  mode : mode;
}

let compile (t : Kit.t) =
  let code = t.code in
  let k = t.k in
  let m = Array.length code.Code.generators in
  let dec = Kit.decoder t in
  let classify_syndrome sv =
    Code.decode dec sv
    |> Option.map (fun c ->
           ( Array.init k (fun j -> not (Pauli.commutes c code.Code.logical_z.(j))),
             Array.init k (fun j -> not (Pauli.commutes c code.Code.logical_x.(j)))
           ))
  in
  let mode =
    match Kit.flip_tables t with
    | Some tables ->
      Sides { nz = Gf2.Mat.rows t.hz; nx = Gf2.Mat.rows t.hx; tables }
    | None -> Memo
  in
  {
    k;
    m;
    checks = Array.map Program.check_of_generator code.Code.generators;
    lzs = Array.map Program.check_of_generator code.Code.logical_z;
    lxs = Array.map Program.check_of_generator code.Code.logical_x;
    classify_syndrome;
    mode;
  }

(* Word [i * lanes + lane] of a row-major buffer, as a byte offset. *)
let[@inline] row i ~lanes lane = 8 * ((i * lanes) + lane)

(* The 64 decoder-flip bits of [slot], gathered as two 32-shot halves
   in native ints. *)
let[@inline] flip_word flips ~slots slot =
  Int64.logor
    (Int64.of_int flips.(slot))
    (Int64.shift_left (Int64.of_int flips.(slots + slot)) 32)

(* Word buffers are unboxed (Mc.Words), row-major like the plane. *)
type worker = {
  plane : Plane.t;
  rows : W.t;  (* extract rows: m syndromes, k <e, Lz_j>, k <e, Lx_j> *)
  shots : W.t;  (* Sides: one lane's syndromes, one word per shot *)
  flips : int array;  (* Sides: 2(2k + 1) half-lane words *)
  decx : W.t;  (* per-logical decoder-contribution words *)
  decz : W.t;
  accx : W.t;  (* k * lanes accumulated has_x words *)
  accz : W.t;
  memo : (string, (bool array * bool array) option) Hashtbl.t;  (* per worker *)
  sbx : bool array;  (* scalar cross-check: tile_width * k residual bits *)
  sbz : bool array;
}

let memory_failure_batch ?domains ?obs ?(engine = `Batch) ?(tile_width = 64)
    (t : Kit.t) ~eps ~rounds ~trials ~seed () =
  if t.k < 1 then invalid_arg "Csskit.Memory: k >= 1 codes only";
  if rounds < 1 then invalid_arg "Csskit.Memory: rounds >= 1";
  if tile_width < 64 || tile_width mod 64 <> 0 then
    invalid_arg "Csskit.Memory: tile_width must be a positive multiple of 64";
  let lanes = tile_width / 64 in
  let n = t.n and k = t.k in
  let cmp = compile t in
  let dec = Kit.decoder t in
  let p = eps /. 3.0 in
  let m = cmp.m in
  (* the extract rows are the syndrome bits, then the error's logical
     parities; extraction draws nothing, so the noise is unchanged *)
  let prog =
    Program.make ~n
      [ Program.Depolarize { qubits = Array.init n Fun.id; px = p; py = p; pz = p };
        Program.Extract (Array.concat [ cmp.checks; cmp.lzs; cmp.lxs ]) ]
  in
  let classify_lane w lane =
    let undecodable =
      match cmp.mode with
      | Sides { nz; nx; tables = { x_flips; z_flips } } ->
        (* word b of [shots] = shot b's syndrome word, Z-generator bits
           low; the flips are gathered as 32-shot halves in native ints
           (slot j: X side vs logical j, slot k + j: Z side, slot 2k:
           undecodable) *)
        Plane.transpose_words ~src:w.rows ~lanes ~lane ~pos:0 ~nrows:m w.shots;
        let zmask = (1 lsl nz) - 1 and xmask = (1 lsl nx) - 1 in
        let slots = (2 * k) + 1 in
        Array.fill w.flips 0 (2 * slots) 0;
        for b = 0 to 63 do
          let s = Int64.to_int (W.get w.shots (8 * b)) in
          let fx = x_flips.(s land zmask) and fz = z_flips.((s lsr nz) land xmask) in
          let half = if b < 32 then 0 else slots and bit = 1 lsl (b land 31) in
          if fx = Kit.undecodable || fz = Kit.undecodable then
            w.flips.(half + (2 * k)) <- w.flips.(half + (2 * k)) lor bit
          else if fx lor fz <> 0 then
            for j = 0 to k - 1 do
              if (fx lsr j) land 1 = 1 then
                w.flips.(half + j) <- w.flips.(half + j) lor bit;
              if (fz lsr j) land 1 = 1 then
                w.flips.(half + k + j) <- w.flips.(half + k + j) lor bit
            done
        done;
        for j = 0 to k - 1 do
          W.set w.decx (8 * j) (flip_word w.flips ~slots j);
          W.set w.decz (8 * j) (flip_word w.flips ~slots (k + j))
        done;
        flip_word w.flips ~slots (2 * k)
      | Memo ->
        W.fill w.decx 0 k 0L;
        W.fill w.decz 0 k 0L;
        let u = ref 0L in
        for b = 0 to 63 do
          let sv = Plane.row_shot_words w.rows ~lanes ~lane ~pos:0 ~len:m b in
          let key = Bitvec.to_string sv in
          let cls =
            match Hashtbl.find_opt w.memo key with
            | Some hit -> hit
            | None ->
              let fresh = cmp.classify_syndrome sv in
              Hashtbl.add w.memo key fresh;
              fresh
          in
          let bit = Int64.shift_left 1L b in
          match cls with
          | None -> u := Int64.logor !u bit
          | Some (jx, jz) ->
            for j = 0 to k - 1 do
              let o = 8 * j in
              if jx.(j) then W.set w.decx o (Int64.logor (W.get w.decx o) bit);
              if jz.(j) then W.set w.decz o (Int64.logor (W.get w.decz o) bit)
            done
        done;
        !u
    in
    let decodable = Int64.lognot undecodable in
    for j = 0 to k - 1 do
      (* a hit: the error's parity XOR the decoder's flip on decodable
         shots, and every undecodable shot *)
      let px = W.get w.rows (row (m + j) ~lanes lane)
      and pz = W.get w.rows (row (m + k + j) ~lanes lane) in
      let hx = Int64.logxor px (W.get w.decx (8 * j))
      and hz = Int64.logxor pz (W.get w.decz (8 * j)) in
      let slot = row j ~lanes lane in
      W.set w.accx slot
        (Int64.logxor (W.get w.accx slot)
           (Int64.logor (Int64.logand hx decodable) undecodable));
      W.set w.accz slot
        (Int64.logxor (W.get w.accz slot)
           (Int64.logor (Int64.logand hz decodable) undecodable))
    done
  in
  let batch w keys ~base:_ ~count =
    let sampler = Sampler.create_tile keys in
    match engine with
    | `Batch ->
      W.fill w.accx 0 (k * lanes) 0L;
      W.fill w.accz 0 (k * lanes) 0L;
      for _ = 1 to rounds do
        Plane.clear w.plane;
        Program.run_words prog sampler w.plane w.rows;
        for lane = 0 to lanes - 1 do
          classify_lane w lane
        done
      done;
      Array.init lanes (fun lane ->
          let word = ref 0L in
          for j = 0 to k - 1 do
            let slot = row j ~lanes lane in
            word :=
              Int64.logor !word
                (Int64.logor (W.get w.accx slot) (W.get w.accz slot))
          done;
          !word)
    | `Scalar ->
      (* Cross-check engine: the identical sampler call sequence (so
         the identical noise), each shot extracted and classified by
         the scalar decoder.  Bit-identical to [`Batch] by
         construction. *)
      Array.fill w.sbx 0 (tile_width * k) false;
      Array.fill w.sbz 0 (tile_width * k) false;
      for _ = 1 to rounds do
        Plane.clear w.plane;
        Program.run_words prog sampler w.plane w.rows;
        for shot = 0 to count - 1 do
          let e = Plane.extract_shot w.plane shot in
          residual_into t dec e ~off:(shot * k) w.sbx w.sbz
        done
      done;
      Array.init lanes (fun lane ->
          let word = ref 0L in
          for b = 0 to 63 do
            let shot = (64 * lane) + b in
            if
              shot < count
              && (any_set w.sbx (shot * k) k || any_set w.sbz (shot * k) k)
            then word := Int64.logor !word (Int64.shift_left 1L b)
          done;
          !word)
  in
  Mc.Runner.estimate ?domains ?obs
    ~engine:(Mc.Engine.batch ~tile_width ())
    ~trials ~seed
    (Mc.Runner.model
       ~worker_init:(fun () ->
         {
           plane = Plane.create ~width:tile_width n;
           rows = W.create (Program.out_words prog * lanes);
           shots = W.create ((m + 63) / 64 * 64);
           flips = Array.make (2 * ((2 * k) + 1)) 0;
           decx = W.create k;
           decz = W.create k;
           accx = W.create (k * lanes);
           accz = W.create (k * lanes);
           memo = Hashtbl.create 64;
           sbx = Array.make (tile_width * k) false;
           sbz = Array.make (tile_width * k) false;
         })
       ~batch ())
