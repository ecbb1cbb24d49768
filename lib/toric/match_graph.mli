(** Generic union-find + peeling matching decoder over an arbitrary
    graph.

    Nodes carry defect marks (an even number per connected component
    once boundary conditions are periodic); the decoder returns an
    edge set whose boundary is exactly the defect set.  Used by the
    2-D toric decoder ({!Decoder}) and by the space-time (3-D) decoder
    that handles noisy syndrome measurements ({!Noisy_memory}).

    Decoding runs in a {!workspace} whose per-call state is
    generation-stamped: a call touches only the clusters grown from
    its defects, never the whole graph.  The selected edge set is a
    fixed function of the graph and the defect set (growth order,
    union by rank and peeling order are all deterministic), so every
    entry point returns the same edges for the same input. *)

type t

(** [create ~num_nodes] — an empty graph. *)
val create : num_nodes:int -> t

val num_nodes : t -> int
val num_edges : t -> int

(** [add_edge g a b] — returns the new edge's id. *)
val add_edge : t -> int -> int -> int

(** [endpoints g e]. *)
val endpoints : t -> int -> int * int

(** [decode g ~defects] — an edge set (indexed by edge id) whose
    boundary equals the defect set.  Requires even defect parity per
    connected component; raises [Invalid_argument] otherwise.  A
    one-shot call: it borrows the graph's spare {!workspace}, or makes
    a fresh one when a concurrent call holds the spare, so any number
    of domains and threads may decode on one graph at once. *)
val decode : t -> defects:bool array -> bool array

(** Reusable decoding scratch for one graph; one per domain or thread
    (a workspace is not safe to share).  Edges added to the graph
    after the workspace was made are not seen by it. *)
type workspace

(** [workspace g] — scratch sized for [g]'s current nodes and edges. *)
val workspace : t -> workspace

(** [decode_into w ~defects ~count] — decode the distinct defect nodes
    [defects.(0 .. count - 1)]; returns the number [s] of selected
    edges, whose ids are [(selected w).(0 .. s - 1)] (in no particular
    order) until the next call.  Same edges as {!decode}, same
    [Invalid_argument] on odd parity. *)
val decode_into : workspace -> defects:int array -> count:int -> int

val selected : workspace -> int array
