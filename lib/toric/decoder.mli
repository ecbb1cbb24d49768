(** Union-find decoder for the toric code (Delfosse–Nickerson style),
    with peeling for the final pairing.

    Given the plaquette syndrome of an X-error pattern, clusters are
    grown half-an-edge at a time around the defects; clusters merge
    through fully grown edges (weighted union-find) until every
    cluster contains an even number of defects.  The fully grown edge
    set is then treated as an erasure and decoded by peeling a
    spanning forest.  Almost-linear time; threshold ≈ 9.9% for IID
    X noise, comfortably demonstrating §7's "intrinsically
    fault-tolerant" phase. *)

(** [decode lattice syndrome] — an X-correction (edge set) whose
    syndrome equals [syndrome].  A one-shot call ({!Match_graph.decode});
    hot loops hold a {!workspace} instead. *)
val decode : Lattice.t -> Gf2.Bitvec.t -> Gf2.Bitvec.t

(** Reusable decoding scratch for one lattice; one per domain or
    thread. *)
type workspace

val workspace : Lattice.t -> workspace

(** [correct_into w syndrome residual] — XOR {!decode}'s correction
    for [syndrome] into [residual], in place. *)
val correct_into : workspace -> Gf2.Bitvec.t -> Gf2.Bitvec.t -> unit

(** [greedy_decode lattice syndrome] — baseline ablation: repeatedly
    pair the two closest defects by torus Manhattan distance and
    connect them along a geodesic.  Simpler, lower threshold. *)
val greedy_decode : Lattice.t -> Gf2.Bitvec.t -> Gf2.Bitvec.t
