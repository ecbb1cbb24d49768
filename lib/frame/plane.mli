(** Bit-sliced Pauli-frame state: a tile of X and Z words per qubit.
    A plane of [width = 64 * lanes] carries [lanes] words per qubit
    per plane; bit [k] of lane [j] is Monte-Carlo shot [64 * j + k] of
    the tile.  Frame propagation through Clifford gates and noise
    injection are word-wise XOR/AND, advancing all [width] shots per
    operation.

    The X and Z planes are unboxed word vectors ({!Mc.Words}),
    row-major: qubit [q]'s lane [j] is word [q * lanes + j].  Kernels
    read them in place through {!x_words} and {!z_words}; syndrome
    rows and transposes write into caller-held word vectors.  The
    entry points that take an [int64 array] ({!parity_check_into},
    {!row_shot_vec}, {!shot_vec}, {!transpose64}, {!transpose_rows},
    {!transpose_x}) convert to word vectors, run the same code and
    copy the words out: they allocate, and no library kernel calls
    them. *)

type t

(** [create ?width n] — an [n]-qubit all-identity frame tile.
    [width] (default 64) must be a positive multiple of 64. *)
val create : ?width:int -> int -> t

val num_qubits : t -> int

(** Words per qubit per plane ([width / 64]). *)
val lanes : t -> int

(** Shots per tile ([64 * lanes]). *)
val width : t -> int

(** [clear t] — reset every shot's frame to the identity. *)
val clear : t -> unit

(** Symplectic frame propagation (all lanes). *)
val cnot : t -> int -> int -> unit

val h : t -> int -> unit
val s_gate : t -> int -> unit

(** The X plane itself (not a copy): qubit [q]'s lane [j] is word
    [q * lanes + j]. *)
val x_words : t -> Mc.Words.t

(** The Z plane itself, laid out as {!x_words}. *)
val z_words : t -> Mc.Words.t

(** Word access (bit [k] of lane [j] = shot [64 * j + k]; [lane]
    defaults to 0).  A word returned across a module boundary is
    boxed: kernels read {!x_words} and {!z_words} instead. *)
val xor_x : ?lane:int -> t -> int -> int64 -> unit

val xor_z : ?lane:int -> t -> int -> int64 -> unit
val get_x : ?lane:int -> t -> int -> int64
val get_z : ?lane:int -> t -> int -> int64

(** [parity_x ?lane t qubits] — word whose bit [k] is the X-plane
    parity of lane shot [k] over [qubits]. *)
val parity_x : ?lane:int -> t -> int array -> int64

(** [parity_check_words t ~x_sel ~z_sel dst off] — one whole syndrome
    tile: for every lane [j], word [off + j] of [dst] receives the X
    parity over [x_sel] XOR the Z parity over [z_sel]. *)
val parity_check_words :
  t -> x_sel:int array -> z_sel:int array -> Mc.Words.t -> int -> unit

(** Word-sampled noise injection across all lanes over compiled
    {!Sampler} plans (the hot path of compiled programs): every qubit
    of [qubits], in order, gets one fresh fault word per lane. *)
val depolarize_plan :
  t -> Sampler.t -> qubits:int array -> Sampler.pauli_plan -> unit

val flip_x_plan : t -> Sampler.t -> qubits:int array -> Sampler.plan -> unit
val flip_z_plan : t -> Sampler.t -> qubits:int array -> Sampler.plan -> unit

(** [blit_x t dst off] — copy the whole row-major X plane
    ([num_qubits * lanes] words, qubit-major) into [dst] at word
    [off]. *)
val blit_x : t -> Mc.Words.t -> int -> unit

(** [bit w k] — bit [k] of a word, as a bool. *)
val bit : int64 -> int -> bool

(** [row_shot_words rows ~lanes ~lane ~pos ~len k] — one shot's
    bitstring from lane [lane] of row-major [lanes]-wide rows: bit [i]
    of the result is bit [k] of word [(pos + i) * lanes + lane] of
    [rows]. *)
val row_shot_words :
  Mc.Words.t -> lanes:int -> lane:int -> pos:int -> len:int -> int ->
  Gf2.Bitvec.t

(** [transpose_block b off] — in-place 64x64 bit-matrix transpose of
    words [off .. off + 63] of [b], LSB-first: afterwards bit [i] of
    word [off + k] is what bit [k] of word [off + i] was.  Allocates
    nothing. *)
val transpose_block : Mc.Words.t -> int -> unit

(** [transpose_words ~src ~lanes ~lane ~pos ~nrows dst] —
    tile-at-a-time shot extraction: gather rows
    [pos .. pos + nrows - 1] of lane [lane] from row-major [src] into
    [dst] and block-transpose them in place, so that word
    [64 * d + k] of [dst] holds word [d] of shot [k]'s bitstring.
    [dst] needs [ceil(nrows / 64) * 64] words; rows beyond [nrows]
    read as 0. *)
val transpose_words :
  src:Mc.Words.t -> lanes:int -> lane:int -> pos:int -> nrows:int ->
  Mc.Words.t -> unit

(** [extract_shot t k] — tile shot [k]'s frame as a [Pauli.t]
    (phase-free); [k] ranges over [0 .. width - 1]. *)
val extract_shot : t -> int -> Pauli.t

(** [extract_shot_x t k] — tile shot [k]'s X plane only (for
    X-error-only models such as the toric memory). *)
val extract_shot_x : t -> int -> Gf2.Bitvec.t

(** {1 [int64 array] entry points}

    Conversions over the word-vector functions above, kept for
    callers that hold [int64 array]s (the frozen benchmark replays
    and tests). *)

(** [parity_check_into t ~x_sel ~z_sel dst off] — as
    {!parity_check_words}, into [dst.(off .. off + lanes - 1)]. *)
val parity_check_into :
  t -> x_sel:int array -> z_sel:int array -> int64 array -> int -> unit

(** [row_shot_vec rows ~lanes ~lane ~pos ~len k] — {!row_shot_words}
    of an [int64 array]. *)
val row_shot_vec :
  int64 array -> lanes:int -> lane:int -> pos:int -> len:int -> int ->
  Gf2.Bitvec.t

(** [shot_vec words k] — transpose one shot out of a word array: bit
    [i] of the result is bit [k] of [words.(i)]. *)
val shot_vec : int64 array -> int -> Gf2.Bitvec.t

(** [load_shot words k v] — inverse of {!shot_vec}: write bitvector
    [v] into bit position [k] of each word. *)
val load_shot : int64 array -> int -> Gf2.Bitvec.t -> unit

(** [transpose64 a off] — {!transpose_block} of [a.(off .. off + 63)]. *)
val transpose64 : int64 array -> int -> unit

(** [transpose_rows ~src ~lanes ~lane ~pos ~nrows dst] —
    {!transpose_words} over [int64 array]s: [dst.(64 * d + k)] holds
    word [d] of shot [k]'s bitstring.  [dst] needs
    [ceil(nrows / 64) * 64] slots. *)
val transpose_rows :
  src:int64 array -> lanes:int -> lane:int -> pos:int -> nrows:int ->
  int64 array -> unit

(** [shot_of_transposed dst ~len k] — shot [k]'s bitstring from a
    buffer prepared by {!transpose_rows} with [nrows = len]. *)
val shot_of_transposed : int64 array -> len:int -> int -> Gf2.Bitvec.t

(** [transpose_x t ~lane dst] — {!transpose_rows} over the X plane of
    one lane ([nrows = num_qubits t]). *)
val transpose_x : t -> lane:int -> int64 array -> unit
