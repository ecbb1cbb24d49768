(** Splittable deterministic PRNG streams (SplitMix64-style).

    One root seed deterministically names a whole tree of independent
    streams: [split] derives a child key by hashing (parent, index)
    rather than by drawing from the parent, so stream [i] of a
    Monte-Carlo run is the same bits whether one domain computes all
    shards or sixteen domains race over them.  Keys are cheap value
    types; materialize a stdlib generator with {!to_state} at the
    point of use. *)

type key = int64

(** [root seed] — the key of the root stream for an integer seed. *)
val root : int -> key

(** [split k i] — the key of child stream [i] (i ≥ 0) of [k].
    Distinct indices yield distinct, statistically independent
    streams; no draws from [k] are consumed. *)
val split : key -> int -> key

(** [draw k n] — the [n]-th raw 64-bit output of stream [k]
    (stateless; exposed for independence testing). *)
val draw : key -> int -> int64

(** {1 Bernoulli digit folds}

    The inner loops of [Frame.Sampler], fused into the raw stream so
    they run without per-digit calls or boxing (the mixing constants
    are private).  [scaled] holds the binary digits of a probability
    p, digit [j] = bit [j], digit [stop - 1] the most significant; the
    fold reads digits [start .. stop - 1] and always accounts for
    [stop - start] positions, whatever it skips. *)

(** [fold_digits k ~pos ~scaled ~start ~stop] — a word of IID
    Bernoulli bits: with [u_j = draw k (pos + j - start)], the value
    of [acc <- if bit j of scaled then u_j lor acc else u_j land acc]
    folded for [j = start] to [stop - 1] from [acc = 0].  It is
    computed from the top digit down: a bit is decided at the first
    digit where [u_j] agrees with the digit (1-digit: [u_j = 1] reads
    1; 0-digit: [u_j = 0] reads 0), a bit undecided after digit
    [start] reads 0, and the draws stop once every bit is decided
    (~7.3 per word on average). *)
val fold_digits :
  key -> pos:int -> scaled:int64 -> start:int -> stop:int -> int64

(** [fold_digits_care k ~pos ~scaled ~start ~stop ~care] —
    [fold_digits k ~pos ~scaled ~start ~stop land care], drawing only
    until every bit of [care] is decided (none when [care = 0]). *)
val fold_digits_care :
  key -> pos:int -> scaled:int64 -> start:int -> stop:int -> care:int64 -> int64

(** A compiled Bernoulli plan: digits [start .. stop - 1] of [scaled],
    with the bits of [ones] forced to 1 (all ones for p >= 1, with
    [start = stop] so no draws; 0 otherwise).  A plan's word is
    [ones lor fold_digits k ~pos ~scaled ~start ~stop]. *)
type plan = { scaled : int64; start : int; ones : int64 }

(** [fold_digits_xor_sel k ~pos ~stop pl ~rows ~sel ~stride ~off] —
    for every [i], XOR plan [pl]'s word at positions
    [pos + i * (stop - pl.start) ..] into word
    [sel.(i) * stride + off] of [rows]: one call injects a whole op's
    noise for one lane. *)
val fold_digits_xor_sel :
  key ->
  pos:int ->
  stop:int ->
  plan ->
  rows:Words.t ->
  sel:int array ->
  stride:int ->
  off:int ->
  unit

(** [pauli_xor_sel k ~pos ~stop ~e ~hx ~y ~x ~z ~sel ~stride ~off] —
    for every [i], the Pauli word of row [i]: plan words [e] (an error
    fired), [hx] (it has an X part) and [y] (it is a Y), read at
    [pos + i * d], [+ de] and [+ de + dh] (each plan's [stop - start]
    draws; [d] their sum), give [x = e land hx] and
    [z = e land ((hx land y) lor lnot hx)], XORed into word
    [sel.(i) * stride + off] of [x] and of [z].  [hx] is folded only
    where [e] is set and [y] only where [e land hx] is: the bits that
    x and z read, so the words equal the three full plan words
    combined. *)
val pauli_xor_sel :
  key ->
  pos:int ->
  stop:int ->
  e:plan ->
  hx:plan ->
  y:plan ->
  x:Words.t ->
  z:Words.t ->
  sel:int array ->
  stride:int ->
  off:int ->
  unit

(** [to_state k] — a fresh [Random.State.t] seeded from the first
    four draws of [k]. *)
val to_state : key -> Random.State.t

(** [derive seed path] — a non-negative integer sub-seed obtained by
    walking [path] down the split tree from [root seed]; use it to
    give each experiment family its own independent stream so that
    run order and trial counts of one family cannot perturb
    another. *)
val derive : int -> int list -> int

(** {1 Stateful streams}

    [t] is the single randomness interface of the library: either a
    stream of raw outputs of a {!key}, or a thin wrapper around a
    legacy [Random.State.t].  Code written against [t] draws the very
    same values as its [Random.State]-based predecessor when handed
    {!of_random_state}, so migrating a signature never changes
    existing counts. *)

type t

(** [of_key k] — a fresh stream positioned at the first output of
    [k]. *)
val of_key : key -> t

(** [of_random_state s] — wrap a stdlib generator; every draw
    delegates to [s] (shared state, not a copy). *)
val of_random_state : Random.State.t -> t

(** [of_seed seed] = [of_key (root seed)]. *)
val of_seed : int -> t

(** [bits64 t] — next raw 64-bit draw. *)
val bits64 : t -> int64

val bool : t -> bool

(** [float t bound] — uniform in [\[0, bound)] with 53-bit
    resolution. *)
val float : t -> float -> float

(** [int t n] — uniform in [\[0, n)]; [n] must be positive. *)
val int : t -> int -> int
