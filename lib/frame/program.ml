(* A frame program is a circuit (or ideal-EC round structure) compiled
   once into a flat array of ops: stochastic fault sites, Clifford
   frame-propagation gates, and syndrome extractions.  Fault sites are
   compiled to Sampler digit plans at [make] time, so the run loop
   executes no float code and no digit scans.  Running a program
   against a Sampler and a Plane executes one whole tile —
   [Plane.width] shots — at once; the extracted syndrome tiles
   transpose to per-shot bitstrings for the existing (scalar) decoders
   via Plane.row_shot_words / Plane.transpose_words. *)

(* Syndrome bit of generator g on error e = x(e)·z(g) ⊕ z(e)·x(g):
   [x_sel] lists the qubits read from the X plane (the support of
   z(g)), [z_sel] the qubits read from the Z plane. *)
type check = { x_sel : int array; z_sel : int array }

type op =
  | Depolarize of { qubits : int array; px : float; py : float; pz : float }
  | Flip_x of { qubits : int array; p : float }
  | Flip_z of { qubits : int array; p : float }
  | Cnot of int * int
  | H of int
  | S of int
  | Extract of check array

(* Compiled form: probabilities resolved to digit plans. *)
type cop =
  | C_depolarize of { qubits : int array; pp : Sampler.pauli_plan }
  | C_flip_x of { qubits : int array; pl : Sampler.plan }
  | C_flip_z of { qubits : int array; pl : Sampler.plan }
  | C_cnot of int * int
  | C_h of int
  | C_s of int
  | C_extract of check array

type t = { n : int; cops : cop array; out_words : int }

let check_of_generator g =
  let sup v = Array.of_list (Gf2.Bitvec.support v) in
  { x_sel = sup (Pauli.z_bits g); z_sel = sup (Pauli.x_bits g) }

let num_out ops =
  List.fold_left
    (fun acc -> function Extract cs -> acc + Array.length cs | _ -> acc)
    0 ops

let compile = function
  | Depolarize { qubits; px; py; pz } ->
    C_depolarize { qubits; pp = Sampler.pauli_plan ~px ~py ~pz }
  | Flip_x { qubits; p } -> C_flip_x { qubits; pl = Sampler.plan p }
  | Flip_z { qubits; p } -> C_flip_z { qubits; pl = Sampler.plan p }
  | Cnot (a, b) -> C_cnot (a, b)
  | H q -> C_h q
  | S q -> C_s q
  | Extract cs -> C_extract cs

let make ~n ops =
  let in_range q = q >= 0 && q < n in
  List.iter
    (function
      | Depolarize { qubits; _ } | Flip_x { qubits; _ } | Flip_z { qubits; _ }
        ->
        if not (Array.for_all in_range qubits) then
          invalid_arg "Frame.Program.make: qubit out of range"
      | Cnot (a, b) ->
        if (not (in_range a)) || (not (in_range b)) || a = b then
          invalid_arg "Frame.Program.make: bad cnot"
      | H q | S q ->
        if not (in_range q) then
          invalid_arg "Frame.Program.make: qubit out of range"
      | Extract cs ->
        Array.iter
          (fun { x_sel; z_sel } ->
            if
              (not (Array.for_all in_range x_sel))
              || not (Array.for_all in_range z_sel)
            then invalid_arg "Frame.Program.make: check out of range")
          cs)
    ops;
  { n;
    cops = Array.of_list (List.map compile ops);
    out_words = num_out ops }

let num_qubits t = t.n
let out_words t = t.out_words

(* [out] is row-major like the plane: check [i]'s tile occupies words
   [i * lanes .. i * lanes + lanes - 1]. *)
let run_words t sampler plane out =
  if Plane.num_qubits plane <> t.n then
    invalid_arg "Frame.Program.run: plane size mismatch";
  let lanes = Plane.lanes plane in
  if Sampler.lanes sampler <> lanes then
    invalid_arg "Frame.Program.run: sampler/plane lane mismatch";
  if Mc.Words.length out < t.out_words * lanes then
    invalid_arg "Frame.Program.run: output buffer too small";
  let pos = ref 0 in
  Array.iter
    (function
      | C_depolarize { qubits; pp } -> Plane.depolarize_plan plane sampler ~qubits pp
      | C_flip_x { qubits; pl } -> Plane.flip_x_plan plane sampler ~qubits pl
      | C_flip_z { qubits; pl } -> Plane.flip_z_plan plane sampler ~qubits pl
      | C_cnot (a, b) -> Plane.cnot plane a b
      | C_h q -> Plane.h plane q
      | C_s q -> Plane.s_gate plane q
      | C_extract cs ->
        Array.iter
          (fun { x_sel; z_sel } ->
            Plane.parity_check_words plane ~x_sel ~z_sel out (!pos * lanes);
            incr pos)
          cs)
    t.cops

let run_into t sampler plane out =
  let len = t.out_words * Plane.lanes plane in
  if Array.length out < len then
    invalid_arg "Frame.Program.run: output buffer too small";
  let words = Mc.Words.create len in
  run_words t sampler plane words;
  Mc.Words.blit_to_array words 0 out 0 len
