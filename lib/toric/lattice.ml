module Bitvec = Gf2.Bitvec

(* Everything but [l] is derived once by [create]: edge endpoints (so
   syndromes need no per-bit coordinate arithmetic), the winding
   selectors, and the plaquette graph the decoder matches on (edge
   id = qubit index). *)
type t = {
  l : int;
  ea : int array;  (* qubit -> first adjacent plaquette *)
  eb : int array;  (* qubit -> second adjacent plaquette *)
  wx : int array;  (* v(0, y) for every y *)
  wy : int array;  (* h(x, 0) for every x *)
  graph : Match_graph.t;
}

let wrap l x = ((x mod l) + l) mod l
let plaquette_of l ~x ~y = (wrap l y * l) + wrap l x

(* h(x,y) separates plaquettes (x,y) and (x,y−1); v(x,y) separates
   (x,y) and (x−1,y). *)
let endpoints_of l e =
  let idx = e / 2 in
  let x = idx mod l and y = idx / l in
  if e land 1 = 0 then (plaquette_of l ~x ~y, plaquette_of l ~x ~y:(y - 1))
  else (plaquette_of l ~x ~y, plaquette_of l ~x:(x - 1) ~y)

let create l =
  if l < 2 then invalid_arg "Lattice.create: need L >= 2";
  let ends = Array.init (2 * l * l) (endpoints_of l) in
  let graph = Match_graph.create ~num_nodes:(l * l) in
  Array.iter (fun (a, b) -> ignore (Match_graph.add_edge graph a b)) ends;
  { l;
    ea = Array.map fst ends;
    eb = Array.map snd ends;
    wx = Array.init l (fun y -> (2 * plaquette_of l ~x:0 ~y) + 1);
    wy = Array.init l (fun x -> 2 * plaquette_of l ~x ~y:0);
    graph }

let size t = t.l
let num_qubits t = 2 * t.l * t.l
let num_plaquettes t = t.l * t.l
let h_edge t ~x ~y = 2 * plaquette_of t.l ~x ~y
let v_edge t ~x ~y = h_edge t ~x ~y + 1
let plaquette_index t ~x ~y = plaquette_of t.l ~x ~y

let plaquette_edges t ~x ~y =
  [ h_edge t ~x ~y; h_edge t ~x ~y:(y + 1); v_edge t ~x ~y; v_edge t ~x:(x + 1) ~y ]

let vertex_edges t ~x ~y =
  (* vertex (x,y) touches the two horizontal edges h(x−1,y), h(x,y)
     and the two vertical edges v(x,y−1), v(x,y) *)
  [ h_edge t ~x:(x - 1) ~y; h_edge t ~x ~y; v_edge t ~x ~y:(y - 1); v_edge t ~x ~y ]

let edge_endpoints t e = (t.ea.(e), t.eb.(e))
let graph t = t.graph
let winding_selectors t = (Array.copy t.wx, Array.copy t.wy)

let syndrome t error =
  if Bitvec.length error <> num_qubits t then invalid_arg "Lattice.syndrome";
  let s = Bitvec.create (num_plaquettes t) in
  for e = 0 to num_qubits t - 1 do
    if Bitvec.get error e then begin
      Bitvec.flip s t.ea.(e);
      Bitvec.flip s t.eb.(e)
    end
  done;
  s

let parity error sel =
  let odd = ref false in
  for i = 0 to Array.length sel - 1 do
    if Bitvec.get error sel.(i) then odd := not !odd
  done;
  !odd

let winding t error = (parity error t.wx, parity error t.wy)

let logical_x1 t =
  let v = Bitvec.create (num_qubits t) in
  for x = 0 to t.l - 1 do
    Bitvec.set v (v_edge t ~x ~y:0) true
  done;
  v

let logical_x2 t =
  let v = Bitvec.create (num_qubits t) in
  for y = 0 to t.l - 1 do
    Bitvec.set v (h_edge t ~x:0 ~y) true
  done;
  v
