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
    ({!Lattice.graph}) edge for edge.  [shape] is [(L, layers)], which
    names the graph's syndrome table (below). *)
type space_time = private {
  graph : Match_graph.t;
  qubit : int array;
  shape : int * int;
}

(** [space_time lattice ~layers] ([layers >= 1]). *)
val space_time : Lattice.t -> layers:int -> space_time

(** [decode_space_time lattice st ~defects] — one-shot: match the
    detection events [defects] (one flag per node) in [st.graph] and
    return the selected spatial edges as an X-correction on the
    lattice's qubits. *)
val decode_space_time :
  Lattice.t -> space_time -> defects:bool array -> Gf2.Bitvec.t

(** {1 Batch decoding through a shared syndrome table}

    A space-time graph with at most 62 nodes and 62 edges (so a
    syndrome and its correction each fit in one [int]: L5 and L4 at
    one layer, L3 up to two, L2 up to five) decodes through a table
    of past answers in front of union-find.  Larger graphs go to
    union-find every time.

    - {b Key and slot.}  A syndrome's key has bit [v] set for each
      detection node [v].  A table of [2^b] slots for a graph with
      [n] nodes uses the key itself as the slot when [n <= b], so it
      holds every syndrome; otherwise the slot is the top [b] bits of
      the key times an odd 63-bit constant (Fibonacci hashing).
    - {b Size.}  A shape's first table has [2^min(n, 12)] slots.  Once
      it has taken as many misses as it has slots, it is replaced by
      one of [2^min(n, 16)] slots that keeps its entries (a stored
      set's boundary names its key).  A fresh process that decodes a
      few thousand shots so touches 32 KiB, not 512 KiB.
    - {b Exactness.}  A slot holds an edge set as a bitmask (0 =
      empty) and answers a key only when that set's boundary (the
      XOR of its edges' endpoint bits) equals the key.  Every stored
      set is {!Match_graph.decode_into}'s answer for its own key,
      which is a fixed function of the graph and the defect set and
      whose boundary is that key; so a set that passes is the decode
      of this syndrome, and a collision, a stale set or an empty slot
      is a miss.  A miss runs union-find and overwrites the slot.
      Every answer is therefore the edge set {!Match_graph.decode_into}
      returns.
    - {b Sharing.}  One table per [shape] serves the whole process.
      It is built on the shape's first defect shot (under a mutex,
      zero-filled), and the full-size table replaces it for good.
      All domains and threads read and write slots without a lock.
      A slot is one word, so a racing read sees a whole stored mask,
      and the boundary check decides it.  Noise parameters are not
      part of the key.
    - {b Memory.}  At most 2^16 words outside the OCaml heap: 512 KiB
      per shape (4 KiB for L3 at one layer). *)

(** Per-worker decoding state for one space-time graph: a
    {!Match_graph.workspace}, the shape's table once the first
    decode has fetched it, and an output buffer.  One per domain or
    thread. *)
type workspace

(** [workspace st] — no table is touched until the first decode. *)
val workspace : space_time -> workspace

(** [decode_into w ~defects ~count] — decode the distinct defect nodes
    [defects.(0 .. count - 1)]; returns the number [s] of selected
    edges, whose ids are [(selected w).(0 .. s - 1)] (in no particular
    order) until the next call.  The same edge set as
    {!Match_graph.decode_into}, and the same [Invalid_argument] on
    repeated or out-of-range nodes and on odd parity. *)
val decode_into : workspace -> defects:int array -> count:int -> int

val selected : workspace -> int array

(** [uf_calls w] — how many of [w]'s decodes ran union-find: all of
    them on a graph with no table, the misses on one with a table.
    It depends on what the shared table held, so on other runs and on
    domain timing: a metric, never a result. *)
val uf_calls : workspace -> int

(** [table_slot st key] — the slot syndrome key [key] maps to in
    [st]'s shared table ([None]: the graph has no table).  Builds the
    table if needed.  For tests that force two syndromes into one
    slot. *)
val table_slot : space_time -> int -> int option

(** [drop_tables ()] — forget every shared table, so each shape's
    next first decode builds a cold one.  A test hook: workspaces
    that already hold a table keep using it. *)
val drop_tables : unit -> unit

(** [greedy_decode lattice syndrome] — baseline ablation: repeatedly
    pair the two closest defects by torus Manhattan distance and
    connect them along a geodesic.  Simpler, lower threshold. *)
val greedy_decode : Lattice.t -> Gf2.Bitvec.t -> Gf2.Bitvec.t
