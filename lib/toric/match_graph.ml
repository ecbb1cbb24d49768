(* Incidence in CSR form: node v's edge ids are inc.(off.(v) ..
   off.(v + 1) - 1), in descending id order — the order the decoder's
   boundary lists and peeling DFS visit them (see [decode_into]). *)
type csr = { off : int array; inc : int array; ea : int array; eb : int array }

(* Per-call state is generation-stamped: a node's union-find entry is
   live only if [stamp.(v) = gen] and an edge's growth only if
   [edge.(e) lsr 2 = gen] (growth in the low two bits), so a call
   initialises exactly what it touches.  Boundary lists are singly
   linked cells numbered by CSR position — cell i holds edge inc.(i)
   and its successor is [cell_next.(i)] ([nil]-terminated) — linked
   into each node's incidence run when the node is first touched and
   only relinked after that. *)
type workspace = {
  c : csr;
  mutable gen : int;
  mutable tick : int;  (* one per growth round and per peel pass *)
  stamp : int array;
  parent : int array;
  rank : int array;
  parity : bool array;  (* cluster defect parity, at roots *)
  head : int array;  (* first boundary cell, at roots *)
  defect : bool array;  (* peeling's running defect marks *)
  seen : int array;  (* tick stamp: listed this round / visited by the DFS *)
  low : int array;  (* per cluster root: least member *)
  pedge : int array;
  pnode : int array;
  edge : int array;  (* gen * 4 + growth *)
  cell_next : int array;
  touched : int array;  (* nodes initialised this call, in order *)
  mutable n_touched : int;
  roots : int array;  (* odd-root candidates, then this round's, descending *)
  stack : int array;
  order : int array;  (* DFS pop order of the current component *)
  sel : int array;  (* selected edge ids *)
  mutable n_sel : int;
}

type t = {
  n : int;
  mutable ea : int array;  (* edge -> first endpoint *)
  mutable eb : int array;  (* edge -> second endpoint *)
  mutable n_edges : int;
  csr : csr option Atomic.t;  (* built on first decode; reset by add_edge *)
  spare : workspace option Atomic.t;  (* for one-shot [decode] calls *)
}

let create ~num_nodes =
  { n = num_nodes; ea = Array.make 16 0; eb = Array.make 16 0; n_edges = 0;
    csr = Atomic.make None; spare = Atomic.make None }

let num_nodes g = g.n
let num_edges g = g.n_edges

let add_edge g a b =
  if a < 0 || a >= g.n || b < 0 || b >= g.n || a = b then
    invalid_arg "Match_graph.add_edge";
  if g.n_edges = Array.length g.ea then begin
    let grow a = Array.append a (Array.make (Array.length a) 0) in
    g.ea <- grow g.ea;
    g.eb <- grow g.eb
  end;
  let id = g.n_edges in
  g.ea.(id) <- a;
  g.eb.(id) <- b;
  g.n_edges <- id + 1;
  Atomic.set g.csr None;
  id

let endpoints g e =
  if e < 0 || e >= g.n_edges then invalid_arg "Match_graph.endpoints";
  (g.ea.(e), g.eb.(e))

(* Racing domains may each build it; the copies are identical. *)
let csr g =
  match Atomic.get g.csr with
  | Some c -> c
  | None ->
    let m = g.n_edges in
    let ea = Array.sub g.ea 0 m and eb = Array.sub g.eb 0 m in
    let off = Array.make (g.n + 1) 0 in
    for e = 0 to m - 1 do
      off.(ea.(e) + 1) <- off.(ea.(e) + 1) + 1;
      off.(eb.(e) + 1) <- off.(eb.(e) + 1) + 1
    done;
    for v = 0 to g.n - 1 do
      off.(v + 1) <- off.(v + 1) + off.(v)
    done;
    let fill = Array.sub off 0 g.n and inc = Array.make (2 * m) 0 in
    let place v e =
      inc.(fill.(v)) <- e;
      fill.(v) <- fill.(v) + 1
    in
    for e = m - 1 downto 0 do
      place ea.(e) e;
      place eb.(e) e
    done;
    let c = { off; inc; ea; eb } in
    Atomic.set g.csr (Some c);
    c

(* --- workspace ------------------------------------------------------ *)

let nil = -1

let workspace g =
  let c = csr g in
  let nodes () = Array.make g.n 0 in
  { c; gen = 0; tick = 0; stamp = nodes (); parent = nodes (); rank = nodes ();
    parity = Array.make g.n false; head = nodes (); defect = Array.make g.n false;
    seen = nodes (); low = nodes (); pedge = nodes (); pnode = nodes ();
    edge = Array.make (Array.length c.ea) 0;
    cell_next = Array.make (Array.length c.inc) 0; touched = nodes ();
    n_touched = 0; roots = nodes (); stack = nodes (); order = nodes ();
    sel = nodes (); n_sel = 0 }

(* First touch this call: a singleton root, its boundary the node's
   incidence run (descending edge order). *)
let[@inline] touch w v =
  w.stamp.(v) <- w.gen;
  w.parent.(v) <- v;
  w.rank.(v) <- 0;
  w.parity.(v) <- false;
  w.defect.(v) <- false;
  w.low.(v) <- v;
  w.touched.(w.n_touched) <- v;
  w.n_touched <- w.n_touched + 1;
  let first = w.c.off.(v) and last = w.c.off.(v + 1) - 1 in
  if last < first then w.head.(v) <- nil
  else begin
    for i = first to last - 1 do
      w.cell_next.(i) <- i + 1
    done;
    w.cell_next.(last) <- nil;
    w.head.(v) <- first
  end

(* Every node on a parent path was touched when it was linked. *)
let[@inline] find w v =
  if w.stamp.(v) <> w.gen then begin
    touch w v;
    v
  end
  else begin
    let r = ref v in
    while w.parent.(!r) <> !r do
      r := w.parent.(!r)
    done;
    let r = !r and x = ref v in
    while !x <> r do
      let next = w.parent.(!x) in
      w.parent.(!x) <- r;
      x := next
    done;
    r
  end

(* Union by rank; the smaller root's boundary is reversed onto the
   front of the bigger's (the reference's [List.rev_append]), and the
   merged root keeps the lesser of the two least members. *)
let union w a b =
  let ra = find w a and rb = find w b in
  if ra <> rb then begin
    let big = if w.rank.(ra) >= w.rank.(rb) then ra else rb in
    let small = if big = ra then rb else ra in
    w.parent.(small) <- big;
    if w.rank.(big) = w.rank.(small) then w.rank.(big) <- w.rank.(big) + 1;
    w.parity.(big) <- w.parity.(big) <> w.parity.(small);
    if w.low.(small) < w.low.(big) then w.low.(big) <- w.low.(small);
    let acc = ref w.head.(big) and cell = ref w.head.(small) in
    while !cell <> nil do
      let next = w.cell_next.(!cell) in
      w.cell_next.(!cell) <- !acc;
      acc := !cell;
      cell := next
    done;
    w.head.(big) <- !acc;
    w.head.(small) <- nil
  end

let[@inline] growth w e =
  let s = w.edge.(e) in
  if s lsr 2 = w.gen then s land 3 else 0

(* Grow every odd cluster's boundary by half an edge per round until
   no cluster is odd.  Odd roots are visited in descending node order
   each round; a root's boundary cells are consumed in list order,
   edges reaching growth 2 merge their endpoints' clusters and the
   rest are put back, in order, in front of the (possibly merged)
   root's list.  Only an odd root of round t (or what it merged into)
   can be odd in round t + 1, so this round's roots are the next
   round's candidates. *)
let grow w ~count =
  let progressed = ref true and n_roots = ref count in
  while !n_roots > 0 do
    w.tick <- w.tick + 1;
    let candidates = !n_roots in
    n_roots := 0;
    (* filter the candidates in place, then insertion-sort them
       descending (they arrive almost sorted) *)
    for i = 0 to candidates - 1 do
      let r = find w w.roots.(i) in
      if w.parity.(r) && w.seen.(r) <> w.tick then begin
        w.seen.(r) <- w.tick;
        let j = ref !n_roots in
        while !j > 0 && w.roots.(!j - 1) < r do
          w.roots.(!j) <- w.roots.(!j - 1);
          decr j
        done;
        w.roots.(!j) <- r;
        incr n_roots
      end
    done;
    if !n_roots > 0 then begin
      if not !progressed then
        invalid_arg "Match_graph.decode: odd defect parity in a component";
      progressed := false;
      for i = 0 to !n_roots - 1 do
        let r = find w w.roots.(i) in
        if w.parity.(r) then begin
          let cell = ref w.head.(r) in
          w.head.(r) <- nil;
          let keep = ref nil and last = ref nil in
          while !cell <> nil do
            let c = !cell in
            cell := w.cell_next.(c);
            let e = w.c.inc.(c) in
            let g = growth w e in
            if g < 2 then begin
              progressed := true;
              w.edge.(e) <- (w.gen lsl 2) lor (g + 1);
              if g = 1 then union w w.c.ea.(e) w.c.eb.(e)
              else begin
                w.cell_next.(c) <- nil;
                if !last = nil then keep := c else w.cell_next.(!last) <- c;
                last := c
              end
            end
          done;
          if !keep <> nil then begin
            let r' = find w r in
            w.cell_next.(!last) <- w.head.(r');
            w.head.(r') <- !keep
          end
        end
      done
    end
  done

(* Peel one fully grown cluster: DFS from its least node over grown
   edges (descending edge order, as the reference's adjacency lists),
   then walk the pop order backwards, moving each defect to its DFS
   parent across the connecting edge.  [w.tick] marks visited nodes. *)
let peel w start =
  let c = w.c in
  w.seen.(start) <- w.tick;
  w.pedge.(start) <- -1;
  w.stack.(0) <- start;
  let sp = ref 1 and n_order = ref 0 in
  while !sp > 0 do
    decr sp;
    let v = w.stack.(!sp) in
    w.order.(!n_order) <- v;
    incr n_order;
    for i = c.off.(v) to c.off.(v + 1) - 1 do
      let e = c.inc.(i) in
      if growth w e = 2 then begin
        let u = if c.ea.(e) = v then c.eb.(e) else c.ea.(e) in
        if w.seen.(u) <> w.tick then begin
          w.seen.(u) <- w.tick;
          w.pedge.(u) <- e;
          w.pnode.(u) <- v;
          w.stack.(!sp) <- u;
          incr sp
        end
      end
    done
  done;
  for i = !n_order - 1 downto 0 do
    let v = w.order.(i) in
    if w.pedge.(v) >= 0 && w.defect.(v) then begin
      w.sel.(w.n_sel) <- w.pedge.(v);
      w.n_sel <- w.n_sel + 1;
      w.defect.(v) <- false;
      let p = w.pnode.(v) in
      w.defect.(p) <- not w.defect.(p)
    end
  done

let decode_into w ~defects ~count =
  let n = Array.length w.stamp in
  if count < 0 || count > n || count > Array.length defects then
    invalid_arg "Match_graph.decode_into: count";
  w.gen <- w.gen + 1;
  w.n_touched <- 0;
  w.n_sel <- 0;
  for i = 0 to count - 1 do
    let v = defects.(i) in
    if v < 0 || v >= n || w.stamp.(v) = w.gen then
      invalid_arg "Match_graph.decode_into: defects must be distinct nodes";
    touch w v;
    w.parity.(v) <- true;
    w.defect.(v) <- true;
    w.roots.(i) <- v
  done;
  grow w ~count;
  (* clusters of two or more nodes (rank > 0 at the root) are exactly
     the components of grown edges; each is peeled from its least
     member, as the reference's ascending DFS starts do.  Components
     are disjoint, so the order they are peeled in does not change
     the selected set. *)
  w.tick <- w.tick + 1;
  for i = 0 to w.n_touched - 1 do
    let v = w.touched.(i) in
    if w.parent.(v) = v && w.rank.(v) > 0 then peel w w.low.(v)
  done;
  w.n_sel

let selected w = w.sel

(* One-shot calls borrow the graph's spare workspace; a caller that
   finds it taken (a concurrent call) or stale (edges added since)
   makes a fresh one, which becomes the spare afterwards.  Callers
   that decode one-shot in a loop (Noisy_memory, Circuit_memory,
   run_mc) would otherwise allocate O(nodes + edges) scratch per
   call. *)
let decode g ~defects =
  if Array.length defects <> g.n then invalid_arg "Match_graph.decode";
  let w =
    match Atomic.exchange g.spare None with
    | Some w when w.c == csr g -> w
    | _ -> workspace g
  in
  let nodes = Array.make g.n 0 and count = ref 0 in
  Array.iteri
    (fun v d ->
      if d then begin
        nodes.(!count) <- v;
        incr count
      end)
    defects;
  let n_sel = decode_into w ~defects:nodes ~count:!count in
  let selected = Array.make g.n_edges false in
  for i = 0 to n_sel - 1 do
    selected.(w.sel.(i)) <- true
  done;
  Atomic.set g.spare (Some w);
  selected
