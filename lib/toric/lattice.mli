(** The L×L toric-code lattice (§7, Fig. 17): qubits on edges, Z-type
    check operators on plaquettes, X-type checks on vertices.

    Coordinates are periodic.  Qubit indexing: horizontal edge
    h(x, y) = [2·(y·L + x)], vertical edge v(x, y) = [2·(y·L + x) + 1],
    so there are 2L² qubits.  Plaquette (x, y) is bounded by h(x, y),
    h(x, y+1), v(x, y) and v(x+1, y); the two plaquettes adjacent to
    an edge are its syndrome-graph endpoints for X-error decoding.
    (Vertex checks are the mirror image; by the code's X↔Z symmetry
    the decoder layer only ever works with plaquettes.) *)

type t

(** [create l] — an L×L torus (l ≥ 2), with its edge endpoints,
    winding selectors and plaquette graph precomputed. *)
val create : int -> t

val size : t -> int

(** [num_qubits t] = 2L². *)
val num_qubits : t -> int

(** [num_plaquettes t] = L². *)
val num_plaquettes : t -> int

val h_edge : t -> x:int -> y:int -> int
val v_edge : t -> x:int -> y:int -> int
val plaquette_index : t -> x:int -> y:int -> int

(** [plaquette_edges t ~x ~y] — the 4 qubits of plaquette (x,y). *)
val plaquette_edges : t -> x:int -> y:int -> int list

(** [vertex_edges t ~x ~y] — the 4 qubits meeting vertex (x,y). *)
val vertex_edges : t -> x:int -> y:int -> int list

(** [edge_endpoints t e] — the two plaquettes an edge separates (as
    plaquette indices), for building the X-error syndrome graph. *)
val edge_endpoints : t -> int -> int * int

(** [graph t] — the plaquette-adjacency graph the decoder matches on:
    one node per plaquette, one edge per qubit (edge id = qubit
    index) joining its {!edge_endpoints}.  Shared by every user of
    [t]; do not add edges to it. *)
val graph : t -> Match_graph.t

(** [syndrome t error] — plaquette parity vector of an X-error edge
    set. *)
val syndrome : t -> Gf2.Bitvec.t -> Gf2.Bitvec.t

(** [winding t error] — (parity of v(0,·) edges, parity of h(·,0)
    edges): the two homology coordinates of a trivial-syndrome edge
    set; (false,false) = contractible = stabilizer element. *)
val winding : t -> Gf2.Bitvec.t -> bool * bool

(** [winding_selectors t] — the qubits {!winding} takes the parities
    of: (v(0, y) for every y, h(x, 0) for every x). *)
val winding_selectors : t -> int array * int array

(** [logical_x1 t] / [logical_x2 t] — representative noncontractible
    loops (edge sets) winding the torus in the two directions. *)
val logical_x1 : t -> Gf2.Bitvec.t

val logical_x2 : t -> Gf2.Bitvec.t
