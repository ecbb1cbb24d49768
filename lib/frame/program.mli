(** Compiled frame programs.

    A circuit — or the ideal-EC round structure of the Monte-Carlo
    drivers — is compiled once into a flat array of ops: stochastic
    fault sites (resolved to {!Sampler} digit plans at {!make} time),
    CNOT/H/S frame-propagation gates, and syndrome extractions.
    {!run} executes one whole tile — [Plane.width] shots — at once
    against a {!Sampler} and a {!Plane}; each [Extract] appends one
    syndrome tile per check ([lanes] words, bit [k] of lane [j] =
    tile shot [64·j + k]) to an unboxed {!Mc.Words} buffer, which
    {!Plane.row_shot_words} / {!Plane.transpose_words} transpose to
    per-shot bitstrings for the existing decoders. *)

(** One syndrome bit: parity of the X plane over [x_sel] XOR parity of
    the Z plane over [z_sel]. *)
type check = { x_sel : int array; z_sel : int array }

type op =
  | Depolarize of { qubits : int array; px : float; py : float; pz : float }
  | Flip_x of { qubits : int array; p : float }
  | Flip_z of { qubits : int array; p : float }
  | Cnot of int * int
  | H of int
  | S of int
  | Extract of check array

type t

(** [check_of_generator g] — the check measuring stabilizer [g]:
    [x_sel] is the support of z(g), [z_sel] the support of x(g), so
    the extracted bit is the commutator x(e)·z(g) ⊕ z(e)·x(g). *)
val check_of_generator : Pauli.t -> check

(** [make ~n ops] — validate and flatten. *)
val make : n:int -> op list -> t

val num_qubits : t -> int

(** Number of syndrome tiles produced per {!run} (each spans
    [Plane.lanes plane] words in the output buffer). *)
val out_words : t -> int

(** [run_words t sampler plane out] — execute all ops in order (the
    plane is *not* cleared first, so multi-round drivers can
    accumulate), writing the extracted syndrome tiles into [out],
    row-major (check [i]'s lane [j] is word [i * lanes + j]; the
    first [out_words t * Plane.lanes plane] words).  The sampler's
    lane count must match the plane's. *)
val run_words : t -> Sampler.t -> Plane.t -> Mc.Words.t -> unit

(** [run_into t sampler plane out] — {!run_words} into an
    [int64 array] (a conversion, for callers that hold one). *)
val run_into : t -> Sampler.t -> Plane.t -> int64 array -> unit
