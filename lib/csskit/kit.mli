(** The generic CSS pipeline: a pair of GF(2) parity-check matrices
    in, a validated code, a distance probe and a ready-made decoder
    out.

    {!build} runs the whole pipeline: CSS construction via
    {!Codes.Css.build} (commutation check, k = n − rank H_X − rank
    H_Z, logical extraction), a minimum-weight logical probe when no
    distance is declared, and decoder selection.  The decoder is the
    CSS product of two classical side decoders — the X part of the
    correction from the H_Z syndrome, the Z part from the H_X
    syndrome — each the exact minimum-weight lookup of
    {!Codes.Css.classical_decoder} while the table fits the budget, a
    greedy syndrome-weight-descent fallback above it.  The resulting
    {!t} is what the batch classifier ({!Memory}) and the [css-memory]
    estimator consume.

    Everything built on first use (side decoders, flip tables; the
    {!Zoo} registry's codes) lives in {!Mc.Once} cells, so any number of
    threads or domains may force them concurrently. *)

(** A classical decoder for one CSS side: the side's syndrome (bit i =
    the side's check i, in generator order) to a correction support
    over the n qubits, or [None] when the syndrome is undecodable. *)
type side_decoder = Gf2.Bitvec.t -> Gf2.Bitvec.t option

(** Per-side logical-flip tables, indexed by a side syndrome as an int
    (bit i = the side's check i).  Entry [s] of [x_flips] has bit j
    set iff the X side's correction for [s] anticommutes with
    logical_z.(j); entry [s] of [z_flips] likewise for the Z side's
    correction against logical_x.(j).  {!undecodable} marks a
    syndrome the side decoder rejects. *)
type flip_tables = { x_flips : int array; z_flips : int array }

type t = {
  name : string;
  code : Codes.Stabilizer_code.t;
  hx : Gf2.Mat.t;
  hz : Gf2.Mat.t;
  n : int;
  k : int;
  distance : int;  (** declared or probed CSS distance *)
  correctable : int;  (** ⌊(distance − 1) / 2⌋, per side *)
  exact : bool;
      (** [true]: exact minimum-weight lookup; [false]: greedy
          fallback (table would exceed the budget) *)
  sides : (side_decoder * side_decoder) Mc.Once.t;
      (** (X side from the H_Z syndrome, Z side from the H_X one) *)
  flips : flip_tables option Mc.Once.t;
}

type error =
  | Css of Codes.Css.error  (** (H_X, H_Z) is not a CSS pair *)
  | Distance_not_found of { cap : int }
      (** the probe found no logical operator of weight ≤ [cap] *)

val error_to_string : error -> string

exception Invalid of { name : string; error : error }

(** [probe_distance ~hx ~hz ~n ()] — the distance/weight probe:
    enumerate supports by increasing weight and return the least
    weight of a vector in ker H_Z \ rowspace H_X or in
    ker H_X \ rowspace H_Z (an X- or Z-type logical), or [None] if
    none exists up to [cap] (default 7). *)
val probe_distance :
  ?cap:int -> hx:Gf2.Mat.t -> hz:Gf2.Mat.t -> n:int -> unit -> int option

(** [build ~name ~hx ~hz ()] — run the pipeline.  [?distance]
    declares a known distance (skipping the probe; verified codes
    should cross-check with {!probe_distance}); [?distance_cap] bounds
    the probe (default 7); [?table_budget] caps the per-side exact
    decode-table size (default 2¹⁷ entries) above which the greedy
    decoder is compiled instead. *)
val build :
  ?distance:int ->
  ?distance_cap:int ->
  ?table_budget:int ->
  name:string ->
  hx:Gf2.Mat.t ->
  hz:Gf2.Mat.t ->
  unit ->
  (t, error) result

(** [build_exn] — {!build}, raising {!Invalid}. *)
val build_exn :
  ?distance:int ->
  ?distance_cap:int ->
  ?table_budget:int ->
  name:string ->
  hx:Gf2.Mat.t ->
  hz:Gf2.Mat.t ->
  unit ->
  t

(** [sides t] — the two side decoders, built on first use: (X side,
    decoding the H_Z syndrome; Z side, decoding the H_X syndrome). *)
val sides : t -> side_decoder * side_decoder

(** [decoder t] — the CSS decoder composed from {!sides}: X part from
    the Z-generator syndrome bits, Z part from the X-generator bits,
    undecodable when either side is. *)
val decoder : t -> Codes.Stabilizer_code.decoder

(** The flip-table entry of a syndrome the side decoder rejects. *)
val undecodable : int

(** Widest side {!flip_tables} tabulates (2¹⁶ entries). *)
val max_table_checks : int

(** [flip_tables t] — both sides' flip tables, tabulated once from
    {!sides}; [None] when a side has more than {!max_table_checks}
    checks or k > 62. *)
val flip_tables : t -> flip_tables option

(** [decode t s] — correction for syndrome [s] (layout: Z-generator
    bits first, then X — the {!Codes.Css.make} convention). *)
val decode : t -> Gf2.Bitvec.t -> Pauli.t option

(** [syndrome t e] — the syndrome of error [e] under [t.code]. *)
val syndrome : t -> Pauli.t -> Gf2.Bitvec.t

(** [side_tables t] — the exact decoder's (bit-side, phase-side)
    syndrome tables in {!Codes.Css.side_table_entries} canonical form;
    raises [Invalid_argument] on a greedy-fallback code. *)
val side_tables : t -> (string * string) list * (string * string) list

(** [greedy_decode_side ~checks ~n syndrome] — the greedy fallback on
    one classical side, exposed for testing: repeatedly flip the bit
    that most reduces the residual syndrome weight; [Some support]
    once the syndrome is explained, [None] on a dead end. *)
val greedy_decode_side :
  checks:Gf2.Mat.t -> n:int -> Gf2.Bitvec.t -> Gf2.Bitvec.t option

(** [pp] renders e.g. ["[[23,1,7]] golay23 (exact)"]. *)
val pp : Format.formatter -> t -> unit
