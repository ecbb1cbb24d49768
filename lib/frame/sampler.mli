(** Word-level noise sampling for the bit-sliced engine.

    A sampler is a position-based walk over the raw outputs of one or
    more {!Mc.Rng} keys — one key per 64-shot {e lane}: every drawn
    word is a pure function of (key, position).  All lanes share one
    position counter, and every call consumes a number of positions
    that depends only on its probability argument — never on the lane
    count — so lane [j] of a wide sampler draws exactly the words a
    single-lane sampler for the same key would draw.  The batch
    engine, its per-shot scalar cross-check, and every tile width
    therefore see the identical noise: the basis of the bit-identical
    batch-vs-scalar and cross-width guarantees. *)

type t

(** [create key] — a fresh single-lane sampler at position 0. *)
val create : Mc.Rng.key -> t

(** [create_tile keys] — a sampler with one lane per key (the array is
    copied).  Lane [j] draws from [keys.(j)]. *)
val create_tile : Mc.Rng.key array -> t

(** Number of 64-shot lanes. *)
val lanes : t -> int

(** [uniform t] — next uniform 64-bit word of lane 0 (advances the
    shared position by 1 for every lane). *)
val uniform : t -> int64

(** Binary digits of p kept by {!bernoulli} (40: absolute bias
    < 2^-40). *)
val digits : int

(** [bernoulli t p] — a lane-0 word whose 64 bits are IID
    Bernoulli(p), sampled by the binary expansion of [p] from its most
    significant digit down.  The number of positions consumed depends
    only on [p].  Raises [Invalid_argument] on a NaN [p]. *)
val bernoulli : t -> float -> int64

(** {1 Compiled digit plans}

    A [plan] precomputes the clamped fixed-point digits of a
    probability so the hot path runs no float code and no digit scan.
    Sampling with [plan p] consumes exactly the positions
    [bernoulli _ p] would. *)

type plan

(** [plan p] — the digit plan of [p] (p <= 0 and p >= 1 draw nothing
    and read 0 and 1).  Raises [Invalid_argument] on a NaN [p]. *)
val plan : float -> plan

(** Positions consumed per sampling call of this plan. *)
val plan_draws : plan -> int

(** [bernoulli_plan_into t pl dst off] — one Bernoulli word per lane:
    word [off + j] of [dst] receives lane [j]'s word. *)
val bernoulli_plan_into : t -> plan -> Mc.Words.t -> int -> unit

(** [bernoulli_plan_xor_sel t pl dst ~sel ~stride] — whole-op noise
    injection: for each row [i] of [sel] in order, one fresh word per
    lane [j] is XORed into word [sel.(i) * stride + j] of [dst], each
    lane's words drawn in one bulk [Mc.Rng] call — the hot path of
    compiled [Flip_x]/[Flip_z] ops. *)
val bernoulli_plan_xor_sel :
  t -> plan -> Mc.Words.t -> sel:int array -> stride:int -> unit

(** A compiled three-fold Pauli channel: per bit, X with probability
    [px], Y with [py] (both planes set), Z with [pz], identity
    otherwise.  Sampled as an error word [e], then "has an X part"
    given [e], then "is a Y" given an X part; the conditional words
    are folded only on the bits where they matter. *)
type pauli_plan

(** Raises [Invalid_argument] if [px +. py +. pz] is NaN. *)
val pauli_plan : px:float -> py:float -> pz:float -> pauli_plan

(** [pauli_plan_xor_sel t pp ~x ~z ~sel ~stride] — for each row [i] of
    [sel] in order, draw one word of Pauli errors per lane [j] and XOR
    its X/Z planes into word [sel.(i) * stride + j] of [x] / [z]; one
    bulk [Mc.Rng] call per lane. *)
val pauli_plan_xor_sel :
  t -> pauli_plan -> x:Mc.Words.t -> z:Mc.Words.t -> sel:int array ->
  stride:int -> unit
