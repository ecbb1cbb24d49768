(* The shared syndrome table in front of union-find
   ([Toric.Decoder.decode_into]).  Every answer must be the edge set
   [Match_graph.decode_into] selects, whether it comes from the table
   or from union-find, on cold and warm tables, after evictions and
   under concurrent domains.  [Decoder.drop_tables] gives a test a cold
   table; [Decoder.uf_calls] tells a hit from a miss. *)

open Ftqc
module Decoder = Toric.Decoder
module Mg = Toric.Match_graph

let space_time ~l ~rounds =
  Decoder.space_time (Toric.Lattice.create l) ~layers:rounds

(* key bit [v] = detection node [v]; ascending node list *)
let nodes_of key =
  let nodes = Array.make 62 0 and count = ref 0 in
  for v = 0 to 61 do
    if key land (1 lsl v) <> 0 then begin
      nodes.(!count) <- v;
      incr count
    end
  done;
  (nodes, !count)

let mask sel s =
  let m = ref 0 in
  for i = 0 to s - 1 do
    m := !m lor (1 lsl sel.(i))
  done;
  !m

let reference ws key =
  let nodes, count = nodes_of key in
  mask (Mg.selected ws) (Mg.decode_into ws ~defects:nodes ~count)

(* The edge set [w] returns for [key], and whether it ran union-find. *)
let through w key =
  let nodes, count = nodes_of key in
  let u0 = Decoder.uf_calls w in
  let m = mask (Decoder.selected w) (Decoder.decode_into w ~defects:nodes ~count) in
  (m, Decoder.uf_calls w - u0 = 1)

let even key =
  let rec pop k = if k = 0 then 0 else (k land 1) + pop (k lsr 1) in
  pop key land 1 = 0

(* Every nonzero even syndrome of a (connected) graph, on a cold table:
   the first decode is a miss, the second a hit, both the reference's
   edges.  L4 and L3 r2 have more syndromes than their first table has
   slots, so they also cross its replacement by the full-size table.
   A complete table (at most 16 nodes) then holds every syndrome once
   a pass has restored what the first table's collisions evicted. *)
let exhaustive ~l ~rounds () =
  Decoder.drop_tables ();
  let st = space_time ~l ~rounds in
  let n = Mg.num_nodes st.Decoder.graph in
  let w = Decoder.workspace st and ws = Mg.workspace st.Decoder.graph in
  let bad = ref 0 in
  for key = 1 to (1 lsl n) - 1 do
    if even key then begin
      let expected = reference ws key in
      let m1, miss1 = through w key in
      let m2, miss2 = through w key in
      if m1 <> expected || m2 <> expected || (not miss1) || miss2 then incr bad
    end
  done;
  Alcotest.(check int)
    (Printf.sprintf "L%d r%d: syndromes answered wrong or not miss-then-hit" l rounds)
    0 !bad;
  if n <= 16 then begin
    Alcotest.(check (option int)) "complete table: slot = key" (Some 0x155)
      (Decoder.table_slot st 0x155);
    let pass () =
      let u0 = Decoder.uf_calls w in
      for key = 1 to (1 lsl n) - 1 do
        if even key && fst (through w key) <> reference ws key then incr bad
      done;
      Decoder.uf_calls w - u0
    in
    ignore (pass ());
    let misses = pass () in
    Alcotest.(check int) "complete table: later passes exact" 0 !bad;
    Alcotest.(check int) "complete table: a pass after a refill is all hits" 0
      misses
  end

let test_graph_sizes () =
  let has ~l ~rounds = Decoder.table_slot (space_time ~l ~rounds) 3 <> None in
  List.iter
    (fun (l, rounds, expected) ->
      Alcotest.(check bool)
        (Printf.sprintf "L%d r%d has a table" l rounds)
        expected (has ~l ~rounds))
    [ (2, 5, true); (2, 6, false); (3, 2, true); (3, 3, false); (4, 1, true);
      (4, 2, false); (5, 1, true); (6, 1, false) ]

(* L5 at one round (25 nodes, hashed): a random syndrome and a second
   one forced into the same slot, decoded alternately, so each call
   after the first finds the other's edges there. *)
let prop_evicting_pairs =
  QCheck.Test.make ~name:"slot-sharing syndromes evict each other exactly"
    ~count:60
    (QCheck.make ~print:string_of_int QCheck.Gen.int)
    (fun seed ->
      let st = space_time ~l:5 ~rounds:1 in
      let n = Mg.num_nodes st.Decoder.graph in
      let w = Decoder.workspace st and ws = Mg.workspace st.Decoder.graph in
      let slot key = Option.get (Decoder.table_slot st key) in
      let r = Random.State.make [| seed |] in
      let rec random_even () =
        let key = Random.State.bits r land ((1 lsl n) - 1) in
        if key <> 0 && even key then key else random_even ()
      in
      let a = random_even () in
      let rec partner () =
        let b = random_even () in
        if b <> a && slot b = slot a then b else partner ()
      in
      let b = partner () in
      let ea = reference ws a and eb = reference ws b in
      let first, _ = through w a in
      first = ea
      && List.for_all
           (fun (key, expected) -> through w key = (expected, true))
           [ (b, eb); (a, ea); (b, eb); (a, ea) ])

(* Four domains run the batch kernel at once on one cold L5 table;
   each count must equal the per-shot reference engine's, and again
   on the warm table. *)
let test_concurrent_domains () =
  let trials = 16_384 in
  let seeds = [ 31; 32; 33; 34 ] in
  let run engine seed obs =
    (Toric.Memory.run_batch ~domains:1 ~obs ~engine ~tile_width:256 ~l:5 ~p:0.05
       ~trials ~seed ())
      .Toric.Memory.failures
  in
  let scalar = List.map (fun seed -> run `Scalar seed Obs.none) seeds in
  let concurrently () =
    let obs = List.map (fun _ -> Obs.create ()) seeds in
    let spawned =
      List.map2 (fun seed o -> Domain.spawn (fun () -> run `Batch seed o)) seeds obs
    in
    (List.map Domain.join spawned, obs)
  in
  Decoder.drop_tables ();
  let cold, cold_obs = concurrently () in
  Alcotest.(check (list int)) "cold table: batch = scalar" scalar cold;
  let warm, warm_obs = concurrently () in
  Alcotest.(check (list int)) "warm table: same counts" scalar warm;
  let total name obs = List.fold_left (fun a o -> a + Obs.counter o name) 0 obs in
  Alcotest.(check int) "defect shots do not depend on the table"
    (total "toric.defect_shots" cold_obs)
    (total "toric.defect_shots" warm_obs);
  Alcotest.(check bool) "the warm table answers more shots" true
    (total "toric.uf_calls" warm_obs < total "toric.uf_calls" cold_obs)

(* The kernel's counters: on one domain (no warm-up tile) every shot
   is judged once; union-find runs on every defect shot of a graph
   with no table, and a rerun of the same shots on a complete table
   (L3, 512 slots from the start) runs it on none. *)
let test_counters () =
  let counters ~l =
    let obs = Obs.create () in
    ignore
      (Toric.Memory.run_batch ~domains:1 ~obs ~tile_width:256 ~l ~p:0.05
         ~trials:4000 ~seed:41 ());
    Alcotest.(check int) "shots judged" 4000 (Obs.counter obs "toric.shots");
    (Obs.counter obs "toric.defect_shots", Obs.counter obs "toric.uf_calls")
  in
  let shots, uf = counters ~l:6 in
  Alcotest.(check bool) "L6 has defect shots" true (shots > 1000);
  Alcotest.(check int) "L6 (no table): one union-find per defect shot" shots uf;
  Decoder.drop_tables ();
  let shots, cold = counters ~l:3 in
  let shots', warm = counters ~l:3 in
  Alcotest.(check int) "L3 defect shots repeat" shots shots';
  Alcotest.(check bool) "L3 cold: some syndromes repeat" true (cold < shots);
  Alcotest.(check int) "L3 warm: every syndrome in the table" 0 warm

let suites =
  [ ( "toric.table",
      [ Alcotest.test_case "exhaustive L3 r1" `Quick (exhaustive ~l:3 ~rounds:1);
        Alcotest.test_case "exhaustive L4 r1" `Quick (exhaustive ~l:4 ~rounds:1);
        Alcotest.test_case "exhaustive L3 r2" `Quick (exhaustive ~l:3 ~rounds:2);
        Alcotest.test_case "which graphs get a table" `Quick test_graph_sizes;
        QCheck_alcotest.to_alcotest prop_evicting_pairs;
        Alcotest.test_case "concurrent domains, cold and warm" `Quick
          test_concurrent_domains;
        Alcotest.test_case "defect-shot and union-find counters" `Quick
          test_counters ] ) ]
