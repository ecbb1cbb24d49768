module Bitvec = Gf2.Bitvec
module Code = Codes.Stabilizer_code
module Hamming = Codes.Hamming

(* Layout: the 49-qubit data block at [data]; [scratch] = 112 qubits:
   level-2 ancilla block (49), level-2 checker block (49), then a
   14-qubit level-1 scratch area shared by all inner EC cycles. *)
let scratch_qubits = 112

let anc2 scratch = scratch
let checker2 scratch = scratch + 49
let l1_anc scratch = scratch + 98
let l1_checker scratch = scratch + 105

let inner_policy = Steane_ec.Repeat_if_nontrivial
let inner_verify = Steane_ec.Reject

let inner_ec_block sim ~block ~scratch =
  ignore
    (Steane_ec.recover sim ~policy:inner_policy ~verify:inner_verify
       ~data:block ~ancilla:(l1_anc scratch) ~checker:(l1_checker scratch))

let inner_ec sim ~data ~scratch =
  for b = 0 to 6 do
    inner_ec_block sim ~block:(data + (7 * b)) ~scratch
  done

(* Play the Fig. 3 encoder at the logical level: every outer gate is
   its transversal (7-physical-gate) implementation. *)
let outer_encode sim ~block =
  List.iter
    (fun instr ->
      match instr with
      | Circuit.Gate (Circuit.H q) ->
        Transversal.logical_h sim ~block:(block + (7 * q))
      | Circuit.Gate (Circuit.Cnot (a, b)) ->
        Transversal.logical_cnot sim
          ~control:(block + (7 * a))
          ~target:(block + (7 * b))
      | Circuit.Gate _ | Circuit.Tick | Circuit.Measure _
      | Circuit.Measure_x _ | Circuit.Reset _ | Circuit.Cond _
      | Circuit.Cond_parity _ ->
        invalid_arg "Concat_ec: unexpected encoder instruction")
    (Circuit.instrs (Codes.Steane.encoding_circuit ()))

let encode_zero_l2_raw sim ~block ~scratch =
  for b = 0 to 6 do
    Steane_ec.prepare_zero_verified sim
      ~block:(block + (7 * b))
      ~checker:(l1_anc scratch) ~verify:inner_verify ~max_attempts:50
  done;
  outer_encode sim ~block

(* Hierarchical decode of 49 measured bits: Hamming-correct each inner
   word to a logical bit, then Hamming-correct the 7 logical bits.
   Returns (value, outer syndrome was nonzero). *)
let decode_l2_bits bits =
  let outer = Bitvec.create 7 in
  for b = 0 to 6 do
    let w = Bitvec.create 7 in
    for i = 0 to 6 do
      if bits.((7 * b) + i) then Bitvec.set w i true
    done;
    let corrected, _ = Hamming.decode w in
    if Bitvec.weight corrected mod 2 = 1 then Bitvec.set outer b true
  done;
  let anomaly = not (Bitvec.is_zero (Hamming.syndrome outer)) in
  let corrected, _ = Hamming.decode outer in
  (Bitvec.weight corrected mod 2 = 1, anomaly)

let measure_block49 sim ~block ~basis_x =
  Array.init 49 (fun i ->
      if basis_x then Sim.measure_x sim (block + i)
      else Sim.measure sim (block + i))

let measure_logical_z_destructive_l2 sim ~block =
  fst (decode_l2_bits (measure_block49 sim ~block ~basis_x:false))

let prepare_zero_l2 sim ~block ~scratch ~max_attempts =
  let rec attempt k =
    if k > max_attempts then
      failwith "Concat_ec.prepare_zero_l2: verification kept failing";
    encode_zero_l2_raw sim ~block ~scratch;
    inner_ec sim ~data:block ~scratch;
    (* verification copy, destructively compared *)
    encode_zero_l2_raw sim ~block:(checker2 scratch) ~scratch;
    for i = 0 to 48 do
      Sim.cnot sim (block + i) (checker2 scratch + i)
    done;
    let value, anomaly =
      decode_l2_bits (measure_block49 sim ~block:(checker2 scratch) ~basis_x:false)
    in
    if anomaly || value then attempt (k + 1)
  in
  attempt 1

(* outer syndrome of one round; [bit_round] = X-error detection *)
let outer_syndrome_once sim ~data ~scratch ~max_attempts ~bit_round =
  prepare_zero_l2 sim ~block:(anc2 scratch) ~scratch ~max_attempts;
  if bit_round then begin
    (* |+̄⟩₂ ancilla as XOR target, Z readout *)
    for b = 0 to 6 do
      Transversal.logical_h sim ~block:(anc2 scratch + (7 * b))
    done;
    for i = 0 to 48 do
      Sim.cnot sim (data + i) (anc2 scratch + i)
    done
  end
  else
    (* |0̄⟩₂ ancilla as XOR source, X readout *)
    for i = 0 to 48 do
      Sim.cnot sim (anc2 scratch + i) (data + i)
    done;
  let bits = measure_block49 sim ~block:(anc2 scratch) ~basis_x:(not bit_round) in
  let outer = Bitvec.create 7 in
  for b = 0 to 6 do
    let w = Bitvec.create 7 in
    for i = 0 to 6 do
      if bits.((7 * b) + i) then Bitvec.set w i true
    done;
    let corrected, _ = Hamming.decode w in
    if Bitvec.weight corrected mod 2 = 1 then Bitvec.set outer b true
  done;
  Hamming.syndrome outer

let apply_outer_correction sim ~data ~bit_round position =
  (* transversal weight-3 inner logical operator on the indicated
     inner block *)
  let logical =
    if bit_round then Codes.Steane.logical_x_weight3
    else Codes.Steane.logical_z_weight3
  in
  let block = data + (7 * position) in
  for q = 0 to 6 do
    match Pauli.letter logical q with
    | Pauli.I -> ()
    | Pauli.X -> Sim.x sim (block + q)
    | Pauli.Z -> Sim.z sim (block + q)
    | Pauli.Y -> Sim.y sim (block + q)
  done

let position_of_syndrome s =
  let v =
    (if Bitvec.get s 0 then 4 else 0)
    + (if Bitvec.get s 1 then 2 else 0)
    + if Bitvec.get s 2 then 1 else 0
  in
  if v = 0 then None else Some (v - 1)

let outer_side sim ~data ~scratch ~max_attempts ~bit_round =
  let s1 = outer_syndrome_once sim ~data ~scratch ~max_attempts ~bit_round in
  if not (Bitvec.is_zero s1) then begin
    let s2 = outer_syndrome_once sim ~data ~scratch ~max_attempts ~bit_round in
    if Bitvec.equal s1 s2 then
      match position_of_syndrome s2 with
      | Some p -> apply_outer_correction sim ~data ~bit_round p
      | None -> ()
  end

let recover_l2 sim ~data ~scratch ~max_attempts =
  inner_ec sim ~data ~scratch;
  outer_side sim ~data ~scratch ~max_attempts ~bit_round:true;
  outer_side sim ~data ~scratch ~max_attempts ~bit_round:false

(* ------------------------------------------------------------------ *)
(* E17 driver                                                          *)

let steane = Codes.Steane.code
let level2 = Mc.Once.make (fun () -> Codes.Concat.steane_level 2)
let css_decoder_l1 = Mc.Once.make Codes.Steane.css_decoder

let project_eigenstate tab ~total ~plus_basis code ~offset =
  Array.iter
    (fun g ->
      ignore
        (Tableau.postselect_pauli tab
           (Code.embed code ~offset ~total g)
           ~outcome:false))
    code.Code.generators;
  let l =
    if plus_basis then code.Code.logical_x.(0) else code.Code.logical_z.(0)
  in
  ignore
    (Tableau.postselect_pauli tab (Code.embed code ~offset ~total l)
       ~outcome:false)

(* Noise-free hierarchical recovery + logical readout of a level-2
   block living at offset 0 of the simulator's register. *)
let ideal_judge_l2 sim ~plus_basis =
  let tab = Sim.tableau sim in
  let rng = Sim.rng sim in
  let total = Sim.num_qubits sim in
  let code2 = Mc.Once.force level2 in
  let d1 = Mc.Once.force css_decoder_l1 in
  (* inner recovery per block: generators 6b .. 6b+5 *)
  for b = 0 to 6 do
    let s = Bitvec.create 6 in
    for i = 0 to 5 do
      let g =
        Code.embed code2 ~offset:0 ~total code2.Code.generators.((6 * b) + i)
      in
      if Tableau.measure_pauli_rng tab rng g then Bitvec.set s i true
    done;
    match Code.decode d1 s with
    | Some c when Pauli.weight c > 0 ->
      Tableau.apply_pauli tab (Code.embed steane ~offset:(7 * b) ~total c)
    | Some _ | None -> ()
  done;
  (* outer recovery: generators 42..47 decode like a Steane syndrome
     whose corrections are inner logical operators *)
  let s = Bitvec.create 6 in
  for i = 0 to 5 do
    let g = Code.embed code2 ~offset:0 ~total code2.Code.generators.(42 + i) in
    if Tableau.measure_pauli_rng tab rng g then Bitvec.set s i true
  done;
  (match Code.decode d1 s with
  | Some c when Pauli.weight c > 0 ->
    for p = 0 to 6 do
      let lift logical =
        Tableau.apply_pauli tab (Code.embed steane ~offset:(7 * p) ~total logical)
      in
      (match Pauli.letter c p with
      | Pauli.I -> ()
      | Pauli.X -> lift steane.Code.logical_x.(0)
      | Pauli.Z -> lift steane.Code.logical_z.(0)
      | Pauli.Y ->
        lift steane.Code.logical_x.(0);
        lift steane.Code.logical_z.(0))
    done
  | Some _ | None -> ());
  let op =
    if plus_basis then code2.Code.logical_x.(0) else code2.Code.logical_z.(0)
  in
  Tableau.measure_pauli_rng tab rng (Code.embed code2 ~offset:0 ~total op)

let one_trial ~noise ~level rng t =
  let plus_basis = t mod 2 = 0 in
  match level with
  | 1 ->
    let sim = Sim.create ~n:21 ~noise rng in
    project_eigenstate (Sim.tableau sim) ~total:21 ~plus_basis steane
      ~offset:0;
    ignore
      (Steane_ec.recover sim ~policy:inner_policy ~verify:inner_verify
         ~data:0 ~ancilla:7 ~checker:14);
    if plus_basis then Sim.ideal_measure_logical_x sim steane ~offset:0
    else Sim.ideal_measure_logical_z sim steane ~offset:0
  | 2 ->
    let code2 = Mc.Once.force level2 in
    let sim = Sim.create ~n:(49 + scratch_qubits) ~noise rng in
    project_eigenstate (Sim.tableau sim) ~total:(49 + scratch_qubits)
      ~plus_basis code2 ~offset:0;
    recover_l2 sim ~data:0 ~scratch:49 ~max_attempts:50;
    ideal_judge_l2 sim ~plus_basis
  | _ -> invalid_arg "Concat_ec: level must be 1 or 2"

let logical_failure_rate ~noise ~level ~trials rng =
  let failures = ref 0 in
  for t = 1 to trials do
    if one_trial ~noise ~level rng t then incr failures
  done;
  (!failures, trials)

let logical_failure_rate_par ?domains ?obs ~noise ~level ~trials ~seed () =
  let f =
    Mc.Runner.failures ?domains ?obs ~trials ~seed
      (Mc.Runner.scalar (fun rng i -> one_trial ~noise ~level rng i))
  in
  (f, trials)
