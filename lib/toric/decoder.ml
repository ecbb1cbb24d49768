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

type space_time = { graph : Match_graph.t; qubit : int array }

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
  { graph; qubit }

let decode_space_time lat st ~defects =
  let selected = Match_graph.decode st.graph ~defects in
  let correction = Bitvec.create (Lattice.num_qubits lat) in
  Array.iteri
    (fun id on ->
      (* a temporal edge is a diagnosed measurement error *)
      if on && st.qubit.(id) >= 0 then Bitvec.flip correction st.qubit.(id))
    selected;
  correction

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
