(* The reference union-find matcher: the library's [Toric.Match_graph]
   as it stood before the workspace decoder (list boundaries, dense
   per-call state), kept verbatim as the oracle the rewrite must
   match edge for edge — a different valid matching would change
   failure counts. *)

type t = {
  n : int;
  mutable edges : (int * int) array;
  mutable n_edges : int;
  mutable incident : int list array; (* node -> incident edge ids *)
}

let create ~num_nodes =
  { n = num_nodes;
    edges = Array.make 16 (0, 0);
    n_edges = 0;
    incident = Array.make num_nodes [] }

let num_nodes g = g.n
let num_edges g = g.n_edges

let add_edge g a b =
  if a < 0 || a >= g.n || b < 0 || b >= g.n || a = b then
    invalid_arg "Match_graph.add_edge";
  if g.n_edges = Array.length g.edges then begin
    let bigger = Array.make (2 * g.n_edges) (0, 0) in
    Array.blit g.edges 0 bigger 0 g.n_edges;
    g.edges <- bigger
  end;
  let id = g.n_edges in
  g.edges.(id) <- (a, b);
  g.n_edges <- id + 1;
  g.incident.(a) <- id :: g.incident.(a);
  g.incident.(b) <- id :: g.incident.(b);
  id

let endpoints g e = g.edges.(e)

(* --- union-find with parity and boundary lists --------------------- *)

type uf = {
  parent : int array;
  rank : int array;
  parity : bool array;
  boundary : int list array;
}

let rec find u i =
  if u.parent.(i) = i then i
  else begin
    let r = find u u.parent.(i) in
    u.parent.(i) <- r;
    r
  end

let union u a b =
  let ra = find u a and rb = find u b in
  if ra = rb then ra
  else begin
    let big, small = if u.rank.(ra) >= u.rank.(rb) then (ra, rb) else (rb, ra) in
    u.parent.(small) <- big;
    if u.rank.(big) = u.rank.(small) then u.rank.(big) <- u.rank.(big) + 1;
    u.parity.(big) <- u.parity.(big) <> u.parity.(small);
    u.boundary.(big) <- List.rev_append u.boundary.(small) u.boundary.(big);
    u.boundary.(small) <- [];
    big
  end

let decode g ~defects =
  if Array.length defects <> g.n then invalid_arg "Match_graph.decode";
  let u =
    { parent = Array.init g.n Fun.id;
      rank = Array.make g.n 0;
      parity = Array.copy defects;
      boundary = Array.copy g.incident }
  in
  let growth = Array.make g.n_edges 0 in
  let erasure = Array.make g.n_edges false in
  let progressed = ref true in
  let rec grow_round () =
    let odd_roots = ref [] in
    for i = 0 to g.n - 1 do
      if find u i = i && u.parity.(i) then odd_roots := i :: !odd_roots
    done;
    match !odd_roots with
    | [] -> ()
    | roots ->
      if not !progressed then
        invalid_arg "Match_graph.decode: odd defect parity in a component";
      progressed := false;
      List.iter
        (fun r ->
          let r = find u r in
          if u.parity.(r) then begin
            let edges = u.boundary.(r) in
            u.boundary.(r) <- [];
            let keep = ref [] in
            List.iter
              (fun e ->
                if growth.(e) < 2 then begin
                  progressed := true;
                  growth.(e) <- growth.(e) + 1;
                  if growth.(e) = 2 then begin
                    erasure.(e) <- true;
                    let a, b = g.edges.(e) in
                    ignore (union u a b)
                  end
                  else keep := e :: !keep
                end)
              edges;
            let r' = find u r in
            u.boundary.(r') <- List.rev_append !keep u.boundary.(r')
          end)
        roots;
      grow_round ()
  in
  grow_round ();
  (* peeling on the erasure: spanning forest, leaves first *)
  let adj = Array.make g.n [] in
  for e = 0 to g.n_edges - 1 do
    if erasure.(e) then begin
      let a, b = g.edges.(e) in
      adj.(a) <- (e, b) :: adj.(a);
      adj.(b) <- (e, a) :: adj.(b)
    end
  done;
  let visited = Array.make g.n false in
  let parent_edge = Array.make g.n (-1) in
  let parent_node = Array.make g.n (-1) in
  let order = ref [] in
  for start = 0 to g.n - 1 do
    if (not visited.(start)) && adj.(start) <> [] then begin
      let stack = Stack.create () in
      Stack.push start stack;
      visited.(start) <- true;
      let component = ref [] in
      while not (Stack.is_empty stack) do
        let v = Stack.pop stack in
        component := v :: !component;
        List.iter
          (fun (e, w) ->
            if not visited.(w) then begin
              visited.(w) <- true;
              parent_edge.(w) <- e;
              parent_node.(w) <- v;
              Stack.push w stack
            end)
          adj.(v)
      done;
      (* reversed pop order puts children before parents *)
      order := !component @ !order
    end
  done;
  let defect = Array.copy defects in
  let selected = Array.make g.n_edges false in
  List.iter
    (fun v ->
      if parent_edge.(v) >= 0 && defect.(v) then begin
        selected.(parent_edge.(v)) <- true;
        defect.(v) <- false;
        let p = parent_node.(v) in
        defect.(p) <- not defect.(p)
      end)
    !order;
  selected
