module Bitvec = Gf2.Bitvec

(* The 2-D decoder is the generic union-find/peeling engine
   (Match_graph) run on the lattice's plaquette graph, whose edge ids
   are qubit indices. *)

let decode lat syndrome =
  let n_nodes = Lattice.num_plaquettes lat in
  if Bitvec.length syndrome <> n_nodes then invalid_arg "Decoder.decode";
  let defects = Array.init n_nodes (Bitvec.get syndrome) in
  let selected = Match_graph.decode (Lattice.graph lat) ~defects in
  let correction = Bitvec.create (Lattice.num_qubits lat) in
  Array.iteri (fun e on -> if on then Bitvec.set correction e true) selected;
  correction

(* --- space-time graph ------------------------------------------------ *)

type space_time = {
  graph : Match_graph.t;
  qubit : int array;
  shape : int * int;
}

(* Node (plaq, t) is [t * np + plaq].  Layer t's spatial edges come in
   qubit order, then (below the last layer) its temporal edges in
   plaquette order, so at one layer the edge ids are the qubit
   indices of the plaquette graph. *)
let space_time lat ~layers =
  if layers < 1 then invalid_arg "Decoder.space_time: layers >= 1";
  let np = Lattice.num_plaquettes lat and nq = Lattice.num_qubits lat in
  let graph = Match_graph.create ~num_nodes:(np * layers) in
  let qubit = Array.make ((nq * layers) + (np * (layers - 1))) (-1) in
  for t = 0 to layers - 1 do
    for e = 0 to nq - 1 do
      let a, b = Lattice.edge_endpoints lat e in
      qubit.(Match_graph.add_edge graph ((t * np) + a) ((t * np) + b)) <- e
    done;
    if t < layers - 1 then
      for plaq = 0 to np - 1 do
        ignore
          (Match_graph.add_edge graph ((t * np) + plaq) (((t + 1) * np) + plaq))
      done
  done;
  { graph; qubit; shape = (Lattice.size lat, layers) }

let decode_space_time lat st ~defects =
  let selected = Match_graph.decode st.graph ~defects in
  let correction = Bitvec.create (Lattice.num_qubits lat) in
  Array.iteri
    (fun id on ->
      (* a temporal edge is a diagnosed measurement error *)
      if on && st.qubit.(id) >= 0 then Bitvec.flip correction st.qubit.(id))
    selected;
  correction

(* --- shared syndrome tables -------------------------------------------

   A syndrome's key is the bitmask of its detection nodes, and a slot
   holds a selected edge set as a bitmask (bit e = edge e; 0 = empty).
   Slot contents are trusted only through their boundary: a slot
   answers key k when the XOR over its edges e of [bnd.(e)] (the
   bits of e's two endpoints) is k.  Every stored set is
   [Match_graph.decode_into]'s answer for its own key, and that
   answer's boundary is that key, so a set that passes is the decode
   of k; a collision, a stale set or an empty slot is a miss, which
   decodes and overwrites the slot.

   Slots live in a [Bigarray] outside the OCaml heap, zero-filled
   when the table is built, and domains read and write them without
   a lock.  An [int] element is one aligned word, loaded or stored by
   one instruction on every OCaml 5 target, so a racing read returns
   a whole mask that some writer stored (the Stdlib's tearing caveat
   is about multi-word elements and operations over several
   elements), and the boundary check keeps that answer exact.

   A shape's first table has 2^min(n, 12) slots and is replaced, once
   it has taken as many misses as it has slots, by one of
   2^min(n, 16) that holds its entries (a mask's boundary is its
   key).  First-touching 512 KiB takes 128 page faults (4 KiB pages),
   which a fresh process answering a few thousand shots would pay for
   few hits. *)

let max_bits = 62 (* key and mask bits in a 63-bit int, sign bit spare *)
let first_bits = 12
let slot_bits = 16
let fib = 0x4F1BBCDCBFA53E0B (* odd, ~2^63 / golden ratio *)

(* [bit_index.((1 lsl k) mod 67) = k]: 2 has order 66 mod 67, so the
   62 powers land in distinct cells (a constant [mod] is a multiply) *)
let bit_index =
  let t = Array.make 67 0 in
  for k = 0 to max_bits - 1 do
    t.((1 lsl k) mod 67) <- k
  done;
  t

type table = {
  slots : (int, Bigarray.int_elt, Bigarray.c_layout) Bigarray.Array1.t;
  bits : int;  (* 2^bits slots *)
  nodes : int;
  bnd : int array;  (* edge -> (1 lsl a) lor (1 lsl b) *)
  misses : int Atomic.t;  (* counted until the table is replaced *)
}

let has_table st =
  Match_graph.num_nodes st.graph <= max_bits
  && Match_graph.num_edges st.graph <= max_bits

(* Up to [bits] nodes the slot is the key itself. *)
let slot t key =
  if t.nodes > t.bits then (key * fib) lsr (63 - t.bits) else key

let full t = t.bits = min t.nodes slot_bits

let table st ~bits =
  let slots =
    Bigarray.Array1.create Bigarray.int Bigarray.c_layout (1 lsl bits)
  in
  Bigarray.Array1.fill slots 0;
  let bnd =
    Array.init (Match_graph.num_edges st.graph) (fun e ->
        let a, b = Match_graph.endpoints st.graph e in
        (1 lsl a) lor (1 lsl b))
  in
  { slots; bits; nodes = Match_graph.num_nodes st.graph; bnd;
    misses = Atomic.make 0 }

let tables : ((int * int) * table) list ref = ref []
let tables_lock = Mutex.create ()

let shared_table st =
  Mutex.protect tables_lock (fun () ->
      match List.assoc_opt st.shape !tables with
      | Some t -> t
      | None ->
        let n = Match_graph.num_nodes st.graph in
        let t = table st ~bits:(min n first_bits) in
        tables := (st.shape, t) :: !tables;
        t)

let boundary t mask =
  let rest = ref mask and b = ref 0 in
  while !rest <> 0 do
    let low = !rest land (- !rest) in
    b := !b lxor t.bnd.(bit_index.(low mod 67));
    rest := !rest lxor low
  done;
  !b

(* The full-size successor of [small], built by whoever asks first.
   Each copied entry is a whole mask, stored under the key its
   boundary names. *)
let grown st small =
  Mutex.protect tables_lock (fun () ->
      match List.assoc_opt st.shape !tables with
      | Some t when t != small -> t
      | _ ->
        let t = table st ~bits:(min small.nodes slot_bits) in
        for i = 0 to (1 lsl small.bits) - 1 do
          let m = small.slots.{i} in
          if m <> 0 then t.slots.{slot t (boundary t m)} <- m
        done;
        tables := (st.shape, t) :: List.remove_assoc st.shape !tables;
        t)

let drop_tables () = Mutex.protect tables_lock (fun () -> tables := [])

let table_slot st key =
  if has_table st then Some (slot (shared_table st) key) else None

type workspace = {
  st : space_time;
  ws : Match_graph.workspace;
  tabled : bool;
  mutable table : table option;  (* the shape's, from the first decode on *)
  sel : int array;  (* a hit's edges *)
  mutable hit : bool;  (* the last decode's edges are in [sel], not [ws] *)
  mutable uf_calls : int;
}

let workspace st =
  { st; ws = Match_graph.workspace st.graph; tabled = has_table st; table = None;
    sel = Array.make (Match_graph.num_edges st.graph) 0; hit = false;
    uf_calls = 0 }

let selected w = if w.hit then w.sel else Match_graph.selected w.ws
let uf_calls w = w.uf_calls

let union_find w ~defects ~count =
  w.uf_calls <- w.uf_calls + 1;
  w.hit <- false;
  Match_graph.decode_into w.ws ~defects ~count

let lookup w t ~defects ~count =
  let key = ref 0 in
  for i = 0 to count - 1 do
    let v = defects.(i) in
    if v < 0 || v >= t.nodes || !key land (1 lsl v) <> 0 then
      invalid_arg "Decoder.decode_into: defects must be distinct nodes";
    key := !key lor (1 lsl v)
  done;
  let key = !key in
  (* expand the slot's edge set into [sel], summing its boundary *)
  let rest = ref t.slots.{slot t key} and sum = ref 0 and s = ref 0 in
  while !rest <> 0 do
    let low = !rest land (- !rest) in
    let e = bit_index.(low mod 67) in
    sum := !sum lxor t.bnd.(e);
    w.sel.(!s) <- e;
    incr s;
    rest := !rest lxor low
  done;
  if !sum = key then begin
    w.hit <- true;
    !s
  end
  else begin
    let s = union_find w ~defects ~count and mask = ref 0 in
    let sel = Match_graph.selected w.ws in
    for i = 0 to s - 1 do
      mask := !mask lor (1 lsl sel.(i))
    done;
    (* grow before storing, so this answer lands in the table kept *)
    let t =
      if full t || Atomic.fetch_and_add t.misses 1 < 1 lsl t.bits then t
      else begin
        let g = grown w.st t in
        w.table <- Some g;
        g
      end
    in
    t.slots.{slot t key} <- !mask;
    s
  end

let decode_into w ~defects ~count =
  match w.table with
  | Some t -> lookup w t ~defects ~count
  | None when w.tabled ->
    let t = shared_table w.st in
    w.table <- Some t;
    lookup w t ~defects ~count
  | None -> union_find w ~defects ~count

(* --- greedy baseline ------------------------------------------------ *)

let torus_dist l a b =
  let d = abs (a - b) in
  min d (l - d)

let geodesic lat correction (x1, y1) (x2, y2) =
  let l = Lattice.size lat in
  (* walk in x then in y along shortest wraps *)
  let step_x = if ((x2 - x1) mod l + l) mod l <= l / 2 then 1 else -1 in
  let x = ref x1 in
  while !x <> x2 do
    let vx = if step_x = 1 then !x + 1 else !x in
    Bitvec.flip correction (Lattice.v_edge lat ~x:vx ~y:y1);
    x := (!x + step_x + l) mod l
  done;
  let step_y = if ((y2 - y1) mod l + l) mod l <= l / 2 then 1 else -1 in
  let y = ref y1 in
  while !y <> y2 do
    let hy = if step_y = 1 then !y + 1 else !y in
    Bitvec.flip correction (Lattice.h_edge lat ~x:x2 ~y:hy);
    y := (!y + step_y + l) mod l
  done

let greedy_decode lat syndrome =
  let l = Lattice.size lat in
  let defects = ref [] in
  Bitvec.iteri
    (fun i set -> if set then defects := (i mod l, i / l) :: !defects)
    syndrome;
  let correction = Bitvec.create (Lattice.num_qubits lat) in
  let rec pair = function
    | [] -> ()
    | [ _ ] -> invalid_arg "greedy_decode: odd number of defects"
    | (d :: _) as ds ->
      let rest = List.tl ds in
      let best =
        List.fold_left
          (fun (bd, bdist) d2 ->
            let dist =
              torus_dist l (fst d) (fst d2) + torus_dist l (snd d) (snd d2)
            in
            if dist < bdist then (d2, dist) else (bd, bdist))
          (List.hd rest, max_int) rest
      in
      let mate = fst best in
      geodesic lat correction d mate;
      pair (List.filter (fun x -> x <> d && x <> mate) ds)
  in
  pair !defects;
  correction
