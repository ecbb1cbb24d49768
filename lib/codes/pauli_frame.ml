module Bitvec = Gf2.Bitvec
module Code = Stabilizer_code

type logical_class = L_i | L_x | L_y | L_z

let class_to_string = function
  | L_i -> "I"
  | L_x -> "X"
  | L_y -> "Y"
  | L_z -> "Z"

let class_bits = function
  | L_i -> (false, false)
  | L_x -> (true, false)
  | L_z -> (false, true)
  | L_y -> (true, true)

let class_of_bits = function
  | false, false -> L_i
  | true, false -> L_x
  | false, true -> L_z
  | true, true -> L_y

let compose a b =
  let ax, az = class_bits a and bx, bz = class_bits b in
  class_of_bits (ax <> bx, az <> bz)

let letter_of_class = function
  | L_i -> Pauli.I
  | L_x -> Pauli.X
  | L_y -> Pauli.Y
  | L_z -> Pauli.Z

let classify_residual (code : Code.t) r =
  (* assumes r commutes with every generator *)
  let has_x = not (Pauli.commutes r code.Code.logical_z.(0)) in
  let has_z = not (Pauli.commutes r code.Code.logical_x.(0)) in
  class_of_bits (has_x, has_z)

let residual_class (code : Code.t) decoder e =
  if code.Code.k <> 1 then invalid_arg "Pauli_frame: k = 1 codes only";
  match Code.decode decoder (Code.syndrome code e) with
  | None -> None
  | Some c -> Some (classify_residual code (Pauli.mul c e))

let steane_decoder = Mc.Once.make Steane.css_decoder

let steane_class e =
  match residual_class Steane.code (Mc.Once.force steane_decoder) e with
  | Some cls -> cls
  | None -> assert false (* the CSS table covers all 64 syndromes *)

let sub_pauli e ~pos ~len =
  let x = Pauli.x_bits e and z = Pauli.z_bits e in
  Pauli.of_bits ~x:(Bitvec.sub x ~pos ~len) ~z:(Bitvec.sub z ~pos ~len) ()

let rec concatenated_steane_class ~level e =
  if level < 1 then invalid_arg "Pauli_frame: level >= 1";
  if level = 1 then steane_class e
  else begin
    let n_in = Pauli.num_qubits e / 7 in
    let letters =
      List.init 7 (fun b ->
          letter_of_class
            (concatenated_steane_class ~level:(level - 1)
               (sub_pauli e ~pos:(b * n_in) ~len:n_in)))
    in
    steane_class (Pauli.of_letters letters)
  end

(* [Mc.Rng.t] is the primary randomness interface; the
   [Random.State.t] entry points below wrap the state
   ([Mc.Rng.of_random_state] shares it, so draws are bit-identical to
   the pre-unification code). *)
let sample_pauli rng ~px ~py ~pz ~n =
  let x = Bitvec.create n and z = Bitvec.create n in
  for q = 0 to n - 1 do
    let r = Mc.Rng.float rng 1.0 in
    if r < px then Bitvec.set x q true
    else if r < px +. py then begin
      Bitvec.set x q true;
      Bitvec.set z q true
    end
    else if r < px +. py +. pz then Bitvec.set z q true
  done;
  Pauli.of_bits ~x ~z ()

let depolarize_rng rng ~eps ~n =
  let p = eps /. 3.0 in
  sample_pauli rng ~px:p ~py:p ~pz:p ~n

let depolarize rng ~eps ~n = depolarize_rng (Mc.Rng.of_random_state rng) ~eps ~n

let biased_depolarize_rng rng ~eps ~eta ~n =
  if eta <= 0.0 then invalid_arg "Pauli_frame.biased_depolarize: eta > 0";
  let unit = eps /. (eta +. 2.0) in
  sample_pauli rng ~px:unit ~py:unit ~pz:(eta *. unit) ~n

let biased_depolarize rng ~eps ~eta ~n =
  biased_depolarize_rng (Mc.Rng.of_random_state rng) ~eps ~eta ~n

(* One estimate record for the whole library (Mc.Stats.estimate). *)
type estimate = Mc.Stats.estimate = {
  failures : int;
  trials : int;
  rate : float;
  stderr : float;
  ci_low : float;
  ci_high : float;
}

let estimate ~failures ~trials = Mc.Stats.estimate ~failures ~trials ()

(* One memory trial: [noise_sample] draws a fresh Pauli error from the
   supplied stream each round; [decode] classifies the residual. *)
let memory_trial ~noise_sample ~decode ~rounds rng =
  let cls = ref L_i in
  for _ = 1 to rounds do
    match decode (noise_sample rng) with
    | Some c -> cls := compose !cls c
    | None -> cls := compose !cls L_y (* undecodable: count as failed *)
  done;
  !cls <> L_i

let run_memory ~noise_sample ~decode ~rounds ~trials rng =
  let failures = ref 0 in
  for _ = 1 to trials do
    if memory_trial ~noise_sample ~decode ~rounds rng then incr failures
  done;
  estimate ~failures:!failures ~trials

let run_memory_mc ?domains ?obs ~noise_sample ~decode ~rounds ~trials ~seed ()
    =
  Mc.Runner.estimate ?domains ?obs ~trials ~seed
    (Mc.Runner.scalar (fun rng _ ->
         memory_trial ~noise_sample ~decode ~rounds rng))

let memory_failure ~level ~eps ~rounds ~trials rng =
  let n = int_of_float (7.0 ** float_of_int level) in
  run_memory
    ~noise_sample:(fun rng -> depolarize rng ~eps ~n)
    ~decode:(fun e -> Some (concatenated_steane_class ~level e))
    ~rounds ~trials rng

let memory_failure_mc ?domains ?obs ~level ~eps ~rounds ~trials ~seed () =
  let n = int_of_float (7.0 ** float_of_int level) in
  run_memory_mc ?domains ?obs
    ~noise_sample:(fun rng -> depolarize rng ~eps ~n)
    ~decode:(fun e -> Some (concatenated_steane_class ~level e))
    ~rounds ~trials ~seed ()

let code_memory_failure code decoder ~eps ~rounds ~trials rng =
  run_memory
    ~noise_sample:(fun rng -> depolarize rng ~eps ~n:code.Code.n)
    ~decode:(fun e -> residual_class code decoder e)
    ~rounds ~trials rng

let code_memory_failure_mc ?domains ?obs code decoder ~eps ~rounds ~trials
    ~seed () =
  run_memory_mc ?domains ?obs
    ~noise_sample:(fun rng -> depolarize rng ~eps ~n:code.Code.n)
    ~decode:(fun e -> residual_class code decoder e)
    ~rounds ~trials ~seed ()

let memory_failure_biased ~level ~eps ~eta ~rounds ~trials rng =
  let n = int_of_float (7.0 ** float_of_int level) in
  run_memory
    ~noise_sample:(fun rng -> biased_depolarize rng ~eps ~eta ~n)
    ~decode:(fun e -> Some (concatenated_steane_class ~level e))
    ~rounds ~trials rng

let memory_failure_biased_mc ?domains ?obs ~level ~eps ~eta ~rounds ~trials
    ~seed () =
  let n = int_of_float (7.0 ** float_of_int level) in
  run_memory_mc ?domains ?obs
    ~noise_sample:(fun rng -> biased_depolarize rng ~eps ~eta ~n)
    ~decode:(fun e -> Some (concatenated_steane_class ~level e))
    ~rounds ~trials ~seed ()

(* ------------------------------------------------------------------ *)
(* Bit-sliced batch engine: 64 shots per int64 word.                   *)

module Plane = Frame.Plane
module Sampler = Frame.Sampler
module Program = Frame.Program
module W = Mc.Words

type engine = [ `Batch | `Scalar ]

(* Word-wise Steane classifier.  For syndrome s with tabulated
   correction c_s and error e, the residual's logical-X indicator is
     has_x(c_s · e) = ⟨c_s, Lz⟩ ⊕ ⟨e, Lz⟩
   by bilinearity of the symplectic product (likewise has_z against
   Lx), so the class is an XOR of an error parity with a pure function
   of the 6 syndrome bits — everything word-wise.  The tables are
   derived from the actual CSS decoder, so the batch classifier agrees
   with {!steane_class} on every error by construction. *)
type steane_tables = {
  checks : Program.check array; (* the 6 stabilizer parity selectors *)
  lz : Program.check;           (* selector for ⟨e, Lz⟩ *)
  lx : Program.check;           (* selector for ⟨e, Lx⟩ *)
  ax : bool array;              (* ax.(s) = ⟨c_s, Lz⟩ *)
  az : bool array;              (* az.(s) = ⟨c_s, Lx⟩ *)
}

let steane_tables =
  Mc.Once.make (fun () ->
      let code = Steane.code in
      let dec = Mc.Once.force steane_decoder in
      let checks = Array.map Program.check_of_generator code.Code.generators in
      let lzp = code.Code.logical_z.(0) and lxp = code.Code.logical_x.(0) in
      let ax = Array.make 64 false and az = Array.make 64 false in
      for s = 0 to 63 do
        let sv = Bitvec.create 6 in
        for i = 0 to 5 do
          if (s lsr i) land 1 = 1 then Bitvec.set sv i true
        done;
        match Code.decode dec sv with
        | None -> assert false (* the CSS table covers all 64 syndromes *)
        | Some c ->
          ax.(s) <- not (Pauli.commutes c lzp);
          az.(s) <- not (Pauli.commutes c lxp)
      done;
      {
        checks;
        lz = Program.check_of_generator lzp;
        lx = Program.check_of_generator lxp;
        ax;
        az;
      })

(* Parity of check [c] over one 7-qubit block of unboxed words: qubit
   q's X word is word [base + q * stride] of [x] (likewise Z).
   Inlined, so the parity word is never boxed. *)
let[@inline] parity_sel x z ~base ~stride (c : Program.check) =
  let acc = ref 0L in
  for i = 0 to Array.length c.Program.x_sel - 1 do
    acc := Int64.logxor !acc (W.get x (8 * (base + (c.Program.x_sel.(i) * stride))))
  done;
  for i = 0 to Array.length c.Program.z_sel - 1 do
    acc := Int64.logxor !acc (W.get z (8 * (base + (c.Program.z_sel.(i) * stride))))
  done;
  !acc

(* Per-worker classifier scratch: the 6 syndrome words of the block
   being classified, and the (has_x, has_z) words of the blocks of
   each level — level [l]'s 7 blocks at words [7 * (l - 1) ..] of
   [sx]/[sz] for l < level — then the top block's at word
   [top = 7 * (level - 1)]. *)
type scratch = { synd : W.t; sx : W.t; sz : W.t; top : int }

let scratch ~level =
  let top = 7 * (level - 1) in
  { synd = W.create 6; sx = W.create (top + 1); sz = W.create (top + 1); top }

(* One 7-qubit block at [base]/[stride]: (has_x, has_z) words of the
   post-correction residual for all 64 shots, into word [at] of
   [sc.sx]/[sc.sz].  The 64 syndrome minterms are disjoint, so the
   decoder contribution is an OR-mux. *)
let classify_block tbl sc x z ~base ~stride ~at =
  for i = 0 to Array.length tbl.checks - 1 do
    W.set sc.synd (8 * i) (parity_sel x z ~base ~stride tbl.checks.(i))
  done;
  let muxx = ref 0L and muxz = ref 0L in
  for s = 0 to 63 do
    if tbl.ax.(s) || tbl.az.(s) then begin
      let m = ref (-1L) in
      for i = 0 to 5 do
        let w = W.get sc.synd (8 * i) in
        m := Int64.logand !m (if (s lsr i) land 1 = 1 then w else Int64.lognot w)
      done;
      if tbl.ax.(s) then muxx := Int64.logor !muxx !m;
      if tbl.az.(s) then muxz := Int64.logor !muxz !m
    end
  done;
  W.set sc.sx (8 * at) (Int64.logxor (parity_sel x z ~base ~stride tbl.lz) !muxx);
  W.set sc.sz (8 * at) (Int64.logxor (parity_sel x z ~base ~stride tbl.lx) !muxz)

let rec pow7 = function 0 -> 1 | l -> 7 * pow7 (l - 1)

(* Hierarchical decode, all 64 shots at once: each inner block's
   (has_x, has_z) words become one outer qubit's plane words, at level
   [level - 1]'s slots of the scratch. *)
let rec classify_words tbl sc ~level x z ~base ~stride ~at =
  if level = 1 then classify_block tbl sc x z ~base ~stride ~at
  else begin
    let sub = pow7 (level - 1) and slots = 7 * (level - 2) in
    for b = 0 to 6 do
      classify_words tbl sc ~level:(level - 1) x z
        ~base:(base + (b * sub * stride))
        ~stride ~at:(slots + b)
    done;
    classify_block tbl sc sc.sx sc.sz ~base:slots ~stride:1 ~at
  end

let run_memory_batch ?domains ?obs ?(engine = `Batch) ?(tile_width = 64)
    ~level ~px ~py ~pz ~rounds ~trials ~seed () =
  if level < 1 then invalid_arg "Pauli_frame: level >= 1";
  if tile_width < 64 || tile_width mod 64 <> 0 then
    invalid_arg "Pauli_frame: tile_width must be a positive multiple of 64";
  let lanes = tile_width / 64 in
  let n = pow7 level in
  let tbl = Mc.Once.force steane_tables in
  let qubits = Array.init n Fun.id in
  let prog = Program.make ~n [ Program.Depolarize { qubits; px; py; pz } ] in
  let batch (plane, sc, fail) keys ~base:_ ~count =
    let sampler = Sampler.create_tile keys in
    (match engine with
    | `Batch ->
      W.fill fail 0 (2 * lanes) 0L;
      (* word j of [fail] accumulates has_x, word lanes + j has_z *)
      for _ = 1 to rounds do
        Plane.clear plane;
        Program.run_words prog sampler plane W.empty;
        for j = 0 to lanes - 1 do
          classify_words tbl sc ~level (Plane.x_words plane) (Plane.z_words plane)
            ~base:j ~stride:lanes ~at:sc.top;
          let ox = 8 * j and oz = 8 * (lanes + j) in
          W.set fail ox (Int64.logxor (W.get fail ox) (W.get sc.sx (8 * sc.top)));
          W.set fail oz (Int64.logxor (W.get fail oz) (W.get sc.sz (8 * sc.top)))
        done
      done;
      Array.init lanes (fun j ->
          Int64.logor (W.get fail (8 * j)) (W.get fail (8 * (lanes + j))))
    | `Scalar ->
      (* Cross-check engine: the identical sampler call sequence (so
         the identical noise), but each shot is extracted and run
         through the existing scalar classifier.  Counts are
         bit-identical to [`Batch] by construction. *)
      let cls = Array.make tile_width L_i in
      for _ = 1 to rounds do
        Plane.clear plane;
        Program.run_words prog sampler plane W.empty;
        for k = 0 to count - 1 do
          let e = Plane.extract_shot plane k in
          cls.(k) <- compose cls.(k) (concatenated_steane_class ~level e)
        done
      done;
      Array.init lanes (fun j ->
          let w = ref 0L in
          for b = 0 to 63 do
            let k = (64 * j) + b in
            if k < count && cls.(k) <> L_i then
              w := Int64.logor !w (Int64.shift_left 1L b)
          done;
          !w))
  in
  Mc.Runner.estimate ?domains ?obs
    ~engine:(Mc.Engine.batch ~tile_width ())
    ~trials ~seed
    (Mc.Runner.model
       ~worker_init:(fun () ->
         (Plane.create ~width:tile_width n, scratch ~level, W.create (2 * lanes)))
       ~batch ())

let memory_failure_batch ?domains ?obs ?engine ?tile_width ~level ~eps ~rounds
    ~trials ~seed () =
  let p = eps /. 3.0 in
  run_memory_batch ?domains ?obs ?engine ?tile_width ~level ~px:p ~py:p ~pz:p
    ~rounds ~trials ~seed ()

let memory_failure_biased_batch ?domains ?obs ?engine ?tile_width ~level ~eps
    ~eta ~rounds ~trials ~seed () =
  if eta <= 0.0 then
    invalid_arg "Pauli_frame.memory_failure_biased_batch: eta > 0";
  let unit = eps /. (eta +. 2.0) in
  run_memory_batch ?domains ?obs ?engine ?tile_width ~level ~px:unit ~py:unit
    ~pz:(eta *. unit) ~rounds ~trials ~seed ()

(* Rare-event fault model over the same depolarizing memory: one fault
   location per (qubit, round), kinds X/Y/Z with total firing
   probability eps — exactly the distribution [memory_failure_mc]
   samples, so rare-vs-plain cross-validation compares identical
   models. *)
let memory_rare_model ~level ~eps ~rounds =
  if rounds < 1 then invalid_arg "Pauli_frame.memory_rare_model: rounds >= 1";
  let n = pow7 level in
  let fault_model = { Mc.Subset.locations = n * rounds; kinds = 3; p = eps } in
  let evaluate () faults =
    let cls = ref L_i in
    for r = 0 to rounds - 1 do
      let lo = r * n in
      let any = ref false in
      Array.iter
        (fun f -> if f.Mc.Subset.loc >= lo && f.loc < lo + n then any := true)
        faults;
      if !any then begin
        let x = Bitvec.create n and z = Bitvec.create n in
        Array.iter
          (fun { Mc.Subset.loc; kind } ->
            if loc >= lo && loc < lo + n then begin
              let q = loc - lo in
              match kind with
              | 0 -> Bitvec.set x q true
              | 1 ->
                Bitvec.set x q true;
                Bitvec.set z q true
              | _ -> Bitvec.set z q true
            end)
          faults;
        cls :=
          compose !cls
            (concatenated_steane_class ~level (Pauli.of_bits ~x ~z ()))
      end
    done;
    !cls <> L_i
  in
  Mc.Runner.model
    ~worker_init:(fun () -> ())
    ~rare:{ Mc.Runner.fault_model; evaluate }
    ()

let memory_failure_rare ?domains ?chunk ?obs ?campaign ?z ?config ~level ~eps
    ~rounds ~seed () =
  Mc.Runner.estimate_rare ?domains ?chunk ?obs ?campaign ?z ?config ~seed
    (memory_rare_model ~level ~eps ~rounds)
