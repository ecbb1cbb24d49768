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
    syndrome equals [syndrome].  A one-shot call
    ({!Match_graph.decode}). *)
val decode : Lattice.t -> Gf2.Bitvec.t -> Gf2.Bitvec.t

(** The space-time matching graph of a syndrome history: node
    [(plaq, t)] is [t * num_plaquettes + plaq] for [layers] detection
    layers; spatial edges are qubit errors within a layer, temporal
    edges join a plaquette to itself in the next layer (a measurement
    error).  [qubit.(id)] is spatial edge [id]'s qubit, or [-1] for a
    temporal edge.  At one layer the graph is the plaquette graph
    ({!Lattice.graph}) edge for edge. *)
type space_time = { graph : Match_graph.t; qubit : int array }

(** [space_time lattice ~layers] ([layers >= 1]). *)
val space_time : Lattice.t -> layers:int -> space_time

(** [decode_space_time lattice st ~defects] — one-shot: match the
    detection events [defects] (one flag per node) in [st.graph] and
    return the selected spatial edges as an X-correction on the
    lattice's qubits. *)
val decode_space_time :
  Lattice.t -> space_time -> defects:bool array -> Gf2.Bitvec.t

(** [greedy_decode lattice syndrome] — baseline ablation: repeatedly
    pair the two closest defects by torus Manhattan distance and
    connect them along a geodesic.  Simpler, lower threshold. *)
val greedy_decode : Lattice.t -> Gf2.Bitvec.t -> Gf2.Bitvec.t
