(** Unboxed vectors of 64-bit words: the storage of the bit-sliced
    frame engine.

    An [int64 array] boxes its elements, so every store into one
    allocates a block on the minor heap and runs the write barrier.  A
    [t] of [n] words is [8 * n] raw bytes instead, word [i] at byte
    offset [8 * i] in the host's byte order, so a store is one machine
    store.  Nothing outside this module sees the bytes: words go in
    and out only through {!get} and {!set} (or the conversions below),
    so the byte order never shows.

    {!get} and {!set} are the compiler's bounds-checked
    [%caml_bytes_get64] and [%caml_bytes_set64] primitives, compiled
    inline at every call site in any build profile; an offset outside
    the buffer raises [Invalid_argument "index out of bounds"].  They
    take a byte offset, [8 * i] for word [i], because a function that
    took the word index would be a call across modules, which boxes
    its [int64] result wherever the compiler cannot inline it.  Every
    other function here counts in words and checks its whole range
    before it writes.

    Writers: the bulk folds of {!Rng}, [Frame.Sampler], [Frame.Plane]
    (the X/Z planes, syndrome extraction and the in-place block
    transpose), [Frame.Program] (extract rows) and the per-worker
    buffers of the frame kernels [Csskit.Memory], [Toric.Noisy_memory]
    and [Codes.Pauli_frame]. *)

type t

(** [create n] — [n] words, all zero. *)
val create : int -> t

(** The vector of no words. *)
val empty : t

(** Number of words. *)
val length : t -> int

(** [get t (8 * i)] — word [i]. *)
external get : t -> int -> int64 = "%caml_bytes_get64"

(** [set t (8 * i) w] — word [i] becomes [w]. *)
external set : t -> int -> int64 -> unit = "%caml_bytes_set64"

(** [fill t pos len w] — words [pos .. pos + len - 1] become [w]. *)
val fill : t -> int -> int -> int64 -> unit

(** [blit src src_pos dst dst_pos len] — copy [len] words, as
    [Array.blit] does (overlapping ranges of one vector included). *)
val blit : t -> int -> t -> int -> int -> unit

(** [of_array a] — the words of [a], in order. *)
val of_array : int64 array -> t

(** [blit_to_array src src_pos dst dst_pos len] — copy [len] words
    into an [int64 array]. *)
val blit_to_array : t -> int -> int64 array -> int -> int -> unit
