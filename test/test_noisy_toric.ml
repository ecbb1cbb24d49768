open Ftqc
module Mg = Toric.Match_graph

let check = Alcotest.(check bool)
let rng () = Random.State.make [| 103 |]

(* --- generic matching graph -------------------------------------------- *)

let path_graph n =
  let g = Mg.create ~num_nodes:n in
  for i = 0 to n - 2 do
    ignore (Mg.add_edge g i (i + 1))
  done;
  g

let boundary g selected =
  let marks = Array.make (Mg.num_nodes g) false in
  Array.iteri
    (fun e on ->
      if on then begin
        let a, b = Mg.endpoints g e in
        marks.(a) <- not marks.(a);
        marks.(b) <- not marks.(b)
      end)
    selected;
  marks

let test_path_matching () =
  let g = path_graph 10 in
  let defects = Array.make 10 false in
  defects.(2) <- true;
  defects.(7) <- true;
  let sel = Mg.decode g ~defects in
  check "boundary = defects" true (boundary g sel = defects);
  (* the unique path between 2 and 7 has 5 edges *)
  let count = Array.fold_left (fun a b -> if b then a + 1 else a) 0 sel in
  Alcotest.(check int) "path length" 5 count

let test_multi_pair_matching () =
  let r = rng () in
  let g = path_graph 30 in
  for _ = 1 to 50 do
    let defects = Array.make 30 false in
    (* random even defect set *)
    let k = 2 * (1 + Random.State.int r 5) in
    let placed = ref 0 in
    while !placed < k do
      let i = Random.State.int r 30 in
      if not defects.(i) then begin
        defects.(i) <- true;
        incr placed
      end
    done;
    let sel = Mg.decode g ~defects in
    check "boundary matches defects" true (boundary g sel = defects)
  done

let test_odd_parity_rejected () =
  let g = path_graph 4 in
  let defects = Array.make 4 false in
  defects.(1) <- true;
  try
    ignore (Mg.decode g ~defects);
    Alcotest.fail "odd parity accepted"
  with Invalid_argument _ -> ()

let test_disconnected_components () =
  let g = Mg.create ~num_nodes:6 in
  ignore (Mg.add_edge g 0 1);
  ignore (Mg.add_edge g 1 2);
  ignore (Mg.add_edge g 3 4);
  ignore (Mg.add_edge g 4 5);
  let defects = [| true; false; true; true; false; true |] in
  let sel = Mg.decode g ~defects in
  check "per-component pairing" true (boundary g sel = defects)

(* --- noisy-measurement memory ------------------------------------------ *)

let test_perfect_measurement_limit () =
  (* with q = 0 and a couple of rounds, results behave like the 2-D
     memory at the accumulated error rate *)
  let r = rng () in
  let res = Toric.Noisy_memory.run ~l:6 ~rounds:2 ~p:0.01 ~q:0.0 ~trials:2000 r in
  check "low failure at p=0.01, q=0" true (res.rate < 0.02)

let test_measurement_errors_tolerated () =
  (* pure measurement noise at a below-threshold rate is almost always
     diagnosed as such (matched through temporal edges); it can only
     hurt indirectly, via spatial miscorrections, which are rare *)
  let r = rng () in
  let pure_meas =
    Toric.Noisy_memory.run ~l:6 ~rounds:6 ~p:0.0 ~q:0.02 ~trials:2000 r
  in
  let both =
    Toric.Noisy_memory.run ~l:6 ~rounds:6 ~p:0.02 ~q:0.02 ~trials:2000 r
  in
  check "pure measurement noise mostly harmless" true
    (pure_meas.rate < 0.01);
  check "much safer than data+measurement noise" true
    (pure_meas.failures * 3 < max 1 both.failures)

let test_threshold_behaviour () =
  let r = rng () in
  let low_small = Toric.Noisy_memory.run ~l:4 ~rounds:4 ~p:0.01 ~q:0.01 ~trials:2000 r in
  let low_big = Toric.Noisy_memory.run ~l:8 ~rounds:8 ~p:0.01 ~q:0.01 ~trials:2000 r in
  check "below threshold bigger is better" true
    (low_big.failures <= low_small.failures);
  let hi_small = Toric.Noisy_memory.run ~l:4 ~rounds:4 ~p:0.05 ~q:0.05 ~trials:1000 r in
  let hi_big = Toric.Noisy_memory.run ~l:8 ~rounds:8 ~p:0.05 ~q:0.05 ~trials:1000 r in
  check "above threshold bigger is worse" true
    (hi_big.failures >= hi_small.failures)

(* --- circuit-level memory ------------------------------------------------ *)

let test_circuit_memory_noiseless () =
  let r = rng () in
  let res =
    Toric.Circuit_memory.run ~l:3 ~rounds:3 ~noise:Ft.Noise.none ~trials:20 r
  in
  check "noise-free circuit memory never fails" true (res.failures = 0)

let test_circuit_memory_low_noise () =
  let r = rng () in
  let res =
    Toric.Circuit_memory.run ~l:3 ~rounds:3 ~noise:(Ft.Noise.uniform 1e-3)
      ~trials:300 r
  in
  check "low-noise circuit memory mostly survives" true (res.rate < 0.02)

let test_circuit_memory_protected_phase () =
  let r = rng () in
  let low_small =
    Toric.Circuit_memory.run ~l:3 ~rounds:3 ~noise:(Ft.Noise.uniform 3e-3)
      ~trials:400 r
  in
  let low_big =
    Toric.Circuit_memory.run ~l:5 ~rounds:5 ~noise:(Ft.Noise.uniform 3e-3)
      ~trials:400 r
  in
  check "below threshold bigger lattice no worse" true
    (low_big.failures <= low_small.failures + 2)

(* --- union-find = the reference matcher ------------------------------ *)

(* The workspace decoder must select exactly the reference's edges
   (test/match_graph_oracle.ml, the pre-workspace implementation): a
   different valid matching would change failure counts.  Graphs: the
   toric plaquette graph for L = 2..8 (L = 2 has parallel edges) and
   2-4-round space-time graphs built as Noisy_memory builds them (or,
   without the temporal edges, 2-4 disconnected copies); each defect
   set is a random subset, so odd totals exercise the odd-parity
   rejection too. *)
let both_graphs ~l ~rounds ~temporal =
  let lat = Toric.Lattice.create l in
  let np = Toric.Lattice.num_plaquettes lat in
  let g = Mg.create ~num_nodes:(np * rounds) in
  let o = Match_graph_oracle.create ~num_nodes:(np * rounds) in
  let add a b =
    let id = Mg.add_edge g a b in
    assert (Match_graph_oracle.add_edge o a b = id)
  in
  for t = 0 to rounds - 1 do
    for e = 0 to Toric.Lattice.num_qubits lat - 1 do
      let a, b = Toric.Lattice.edge_endpoints lat e in
      add ((t * np) + a) ((t * np) + b)
    done;
    if temporal && t < rounds - 1 then
      for p = 0 to np - 1 do
        add ((t * np) + p) (((t + 1) * np) + p)
      done
  done;
  (g, o)

let outcome f = match f () with sel -> Ok sel | exception Invalid_argument m -> Error m

let prop_matches_reference =
  QCheck.Test.make ~name:"union-find selects the reference matcher's edges"
    ~count:400
    (QCheck.make
       ~print:(fun (l, rounds, temporal, seed) ->
         Printf.sprintf "L=%d rounds=%d temporal=%b seed=%d" l rounds temporal
           seed)
       QCheck.Gen.(quad (int_range 2 8) (int_range 1 4) bool int))
    (fun (l, rounds, temporal, seed) ->
      let g, o = both_graphs ~l ~rounds ~temporal in
      let w = Mg.workspace g in
      let n = Mg.num_nodes g in
      let r = Random.State.make [| seed |] in
      List.for_all
        (fun _ ->
          (* mostly sparse, as below threshold, some dense *)
          let density = 0.5 *. (Random.State.float r 1.0 ** 2.0) in
          let defects = Array.init n (fun _ -> Random.State.float r 1.0 < density) in
          let expected = outcome (fun () -> Match_graph_oracle.decode o ~defects) in
          let nodes = Array.of_list (List.filter (fun v -> defects.(v)) (List.init n Fun.id)) in
          let sparse () =
            let s = Mg.decode_into w ~defects:nodes ~count:(Array.length nodes) in
            let sel = Array.make (Mg.num_edges g) false in
            Array.iteri (fun i e -> if i < s then sel.(e) <- true) (Mg.selected w);
            sel
          in
          expected = outcome (fun () -> Mg.decode g ~defects)
          && expected = outcome sparse)
        (List.init 60 Fun.id))

let suites =
  [ ( "toric.match_graph",
      [ Alcotest.test_case "path matching" `Quick test_path_matching;
        Alcotest.test_case "multi-pair matching" `Quick
          test_multi_pair_matching;
        Alcotest.test_case "odd parity rejected" `Quick
          test_odd_parity_rejected;
        Alcotest.test_case "disconnected components" `Quick
          test_disconnected_components;
        QCheck_alcotest.to_alcotest prop_matches_reference ] );
    ( "toric.noisy_memory",
      [ Alcotest.test_case "perfect measurement limit" `Quick
          test_perfect_measurement_limit;
        Alcotest.test_case "measurement noise alone harmless" `Quick
          test_measurement_errors_tolerated;
        Alcotest.test_case "threshold behaviour" `Slow
          test_threshold_behaviour ] );
    ( "toric.circuit_memory",
      [ Alcotest.test_case "noise-free" `Quick test_circuit_memory_noiseless;
        Alcotest.test_case "low noise" `Quick test_circuit_memory_low_noise;
        Alcotest.test_case "protected phase" `Slow
          test_circuit_memory_protected_phase ] ) ]
