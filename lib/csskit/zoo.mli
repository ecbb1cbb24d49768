(** The code zoo: cyclic and BCH-derived CSS codes fed through the
    {!Kit} pipeline.

    A length-[n] cyclic code is generated by a divisor g(x) of xⁿ + 1;
    its generator matrix is the n − deg g cyclic shifts of g's
    coefficient row, and its parity check is a kernel basis of that
    matrix (the {!Codes.Golay} idiom).  BCH codes specialize this: the
    generator polynomial is the least common multiple of the minimal
    polynomials of α^s over the defining set's cyclotomic cosets,
    computed in GF(2^m).  Self-dual-containing members (H·Hᵀ = 0) then
    feed {!Kit.build} with H_X = H_Z = H. *)

(** [cyclic_generator ~n poly] — the (n − deg g) × n generator matrix
    of cyclic shifts.  Raises [Invalid_argument] unless [poly] is a
    nonzero divisor of xⁿ + 1. *)
val cyclic_generator : n:int -> Gf2.Poly.t -> Gf2.Mat.t

(** [cyclic_parity_check ~n poly] — a parity-check matrix (kernel
    basis of the generator matrix). *)
val cyclic_parity_check : n:int -> Gf2.Poly.t -> Gf2.Mat.t

(** [cyclic ?distance ~name ~n ~poly ()] — the CSS code with
    H_X = H_Z = the cyclic parity check. *)
val cyclic :
  ?distance:int ->
  name:string ->
  n:int ->
  poly:Gf2.Poly.t ->
  unit ->
  (Kit.t, Kit.error) result

(** [cyclotomic_coset ~n s] — \{s, 2s, 4s, …\} mod n, sorted. *)
val cyclotomic_coset : n:int -> int -> int list

(** [minimal_polynomial ~m s] — the minimal polynomial of α^s over
    GF(2), α a primitive element of GF(2^m) (3 ≤ m ≤ 6). *)
val minimal_polynomial : m:int -> int -> Gf2.Poly.t

(** [bch_generator ~m ~defining] — the generator polynomial: the
    product of the distinct minimal polynomials over the defining
    set. *)
val bch_generator : m:int -> defining:int list -> Gf2.Poly.t

(** [bch ?distance ~name ~m ~defining ()] — the BCH-derived CSS code
    of length 2^m − 1. *)
val bch :
  ?distance:int ->
  name:string ->
  m:int ->
  defining:int list ->
  unit ->
  (Kit.t, Kit.error) result

(** [steane_parity_check ()] — the [7,4,3] Hamming check derived from
    the cyclic generator x³ + x + 1: the cyclic code is relabeled by
    matching parity-check columns (both matrices carry all 7 nonzero
    3-bit columns), which lands it {e exactly} on
    {!Codes.Hamming.parity_check} — so the pipeline-built Steane code
    reproduces the hand-written syndrome tables bit for bit. *)
val steane_parity_check : unit -> Gf2.Mat.t

(** {1 Registry} *)

type entry = {
  name : string;
  summary : string;
  code : Kit.t Mc.Once.t;  (** built on first use (decoders on theirs) *)
}

(** The registered members: [steane7] [[7,1,3]], [golay23] [[23,1,7]],
    [bch15] [[15,7,3]], [bch31] [[31,21,3]]. *)
val entries : entry list

val names : unit -> string list

(** [mem name] — registry membership, without forcing any build. *)
val mem : string -> bool

(** [find name] — the built code ([None] for unknown names). *)
val find : string -> Kit.t option

(** [get name] — {!find}, raising [Invalid_argument] on unknown
    names. *)
val get : string -> Kit.t
