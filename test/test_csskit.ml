open Ftqc
module Code = Codes.Stabilizer_code
module Bitvec = Gf2.Bitvec
module Mat = Gf2.Mat

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

(* name, n, k, distance for every registered zoo member *)
let zoo_params =
  [ ("steane7", 7, 1, 3); ("golay23", 23, 1, 7); ("bch15", 15, 7, 3);
    ("bch31", 31, 21, 3) ]

(* [e] is handled exactly when decoding its syndrome leaves a residual
   in the stabilizer group. *)
let corrects t e = Code.correct (Csskit.decoder t) t.Csskit.code e = `Ok

(* all supports of weight [w] over [n] bits, as index lists *)
let rec supports n w start =
  if w = 0 then [ [] ]
  else if start >= n then []
  else
    List.map (fun s -> start :: s) (supports n (w - 1) (start + 1))
    @ supports n w (start + 1)

let bv_of_support n s =
  let v = Bitvec.create n in
  List.iter (fun i -> Bitvec.set v i true) s;
  v

(* --- registry -------------------------------------------------------- *)

let test_zoo_registry () =
  List.iter
    (fun (name, n, k, d) ->
      check ("mem " ^ name) true (Csskit.Zoo.mem name);
      check ("names has " ^ name) true
        (List.mem name (Csskit.Zoo.names ()));
      let t = Csskit.Zoo.get name in
      check_int (name ^ " n") n t.Csskit.n;
      check_int (name ^ " k") k t.Csskit.k;
      check_int (name ^ " distance") d t.Csskit.distance;
      check_int (name ^ " correctable") ((d - 1) / 2) t.Csskit.correctable;
      check (name ^ " exact decoder") true t.Csskit.exact;
      check_int (name ^ " code n") n t.Csskit.code.Code.n;
      check_int (name ^ " code k") k t.Csskit.code.Code.k)
    zoo_params;
  check "mem nosuch" false (Csskit.Zoo.mem "nosuch");
  check "find nosuch" true (Csskit.Zoo.find "nosuch" = None);
  check "get nosuch raises" true
    (match Csskit.Zoo.get "nosuch" with
    | exception Invalid_argument _ -> true
    | _ -> false)

(* --- hand-written anchors -------------------------------------------- *)

(* The acceptance bar: the pipeline-built Steane and Golay codes must
   reproduce the hand-written codes' checks, generators and syndrome
   tables bit for bit. *)
let test_steane_matches_hamming () =
  let t = Csskit.Zoo.get "steane7" in
  check "hx = Hamming H" true
    (Mat.equal t.Csskit.hx Codes.Hamming.parity_check);
  check "hz = Hamming H" true
    (Mat.equal t.Csskit.hz Codes.Hamming.parity_check);
  let ref_code = Codes.Css.steane_from_hamming () in
  check "generators identical" true
    (Array.for_all2 Pauli.equal t.Csskit.code.Code.generators
       ref_code.Code.generators);
  let expect =
    Codes.Css.side_table_entries ~checks:Codes.Hamming.parity_check ~n:7
      ~max_weight:1
  in
  let bit, phase = Csskit.side_tables t in
  check "bit-side syndrome table" true (bit = expect);
  check "phase-side syndrome table" true (phase = expect)

let test_golay_matches_handwritten () =
  let t = Csskit.Zoo.get "golay23" in
  check "hx = Golay H" true (Mat.equal t.Csskit.hx Codes.Golay.parity_check);
  check "hz = Golay H" true (Mat.equal t.Csskit.hz Codes.Golay.parity_check);
  check "generators identical" true
    (Array.for_all2 Pauli.equal t.Csskit.code.Code.generators
       Codes.Golay.code.Code.generators);
  let expect =
    Codes.Css.side_table_entries ~checks:Codes.Golay.parity_check ~n:23
      ~max_weight:3
  in
  let bit, phase = Csskit.side_tables t in
  check "bit-side syndrome table" true (bit = expect);
  check "phase-side syndrome table" true (phase = expect)

(* --- the correction property ----------------------------------------- *)

(* Every zoo member's decoder corrects every error of weight up to
   ⌊(d−1)/2⌋ per side: all single-qubit X/Y/Z, and all X-type, Z-type
   and Y-type errors on supports up to the correctable weight. *)
let test_decoder_corrects_within_t () =
  List.iter
    (fun (name, _, _, _) ->
      let t = Csskit.Zoo.get name in
      let n = t.Csskit.n in
      List.iter
        (fun (ln, l) ->
          for q = 0 to n - 1 do
            check (Printf.sprintf "%s corrects %s at %d" name ln q) true
              (corrects t (Pauli.single n q l))
          done)
        [ ("X", Pauli.X); ("Y", Pauli.Y); ("Z", Pauli.Z) ];
      for w = 2 to t.Csskit.correctable do
        List.iter
          (fun s ->
            let v = bv_of_support n s in
            let zero = Bitvec.create n in
            let lbl ty =
              Printf.sprintf "%s corrects weight-%d %s-type" name w ty
            in
            check (lbl "X") true
              (corrects t (Pauli.of_bits ~x:v ~z:zero ()));
            check (lbl "Z") true
              (corrects t (Pauli.of_bits ~x:zero ~z:v ()));
            check (lbl "Y") true (corrects t (Pauli.of_bits ~x:v ~z:v ())))
          (supports n w 0)
      done)
    zoo_params

let test_golay_mixed_support () =
  (* X and Z parts on disjoint supports: each classical side decodes
     independently, so weight 3 + 3 mixed errors are still handled *)
  let t = Csskit.Zoo.get "golay23" in
  let x = bv_of_support 23 [ 0; 5; 11 ] and z = bv_of_support 23 [ 2; 7; 19 ] in
  check "disjoint X/Z supports corrected" true
    (corrects t (Pauli.of_bits ~x ~z ()))

(* --- greedy fallback -------------------------------------------------- *)

let test_greedy_fallback () =
  let h = Codes.Hamming.parity_check in
  let t =
    Csskit.build_exn ~distance:3 ~table_budget:1 ~name:"steane-greedy" ~hx:h
      ~hz:h ()
  in
  check "fallback is not exact" false t.Csskit.exact;
  List.iter
    (fun l ->
      for q = 0 to 6 do
        check "greedy corrects weight 1" true (corrects t (Pauli.single 7 q l))
      done)
    [ Pauli.X; Pauli.Y; Pauli.Z ];
  check "side_tables raises on greedy codes" true
    (match Csskit.side_tables t with
    | exception Invalid_argument _ -> true
    | _ -> false);
  (* the exposed one-side descent explains each single-bit syndrome by
     exactly that bit *)
  for i = 0 to 6 do
    let e = Bitvec.create 7 in
    Bitvec.set e i true;
    match Csskit.greedy_decode_side ~checks:h ~n:7 (Codes.Hamming.syndrome e) with
    | Some sup ->
      check (Printf.sprintf "greedy side support %d" i) true
        (Bitvec.equal sup e)
    | None -> Alcotest.fail "greedy side hit a dead end on weight 1"
  done

(* --- distance probe --------------------------------------------------- *)

let test_probe_distance () =
  let h = Codes.Hamming.parity_check in
  check "steane probes to 3" true
    (Csskit.probe_distance ~hx:h ~hz:h ~n:7 () = Some 3);
  let b = Csskit.Zoo.get "bch15" in
  check "bch15 probes to 3" true
    (Csskit.probe_distance ~hx:b.Csskit.hx ~hz:b.Csskit.hz ~n:15 () = Some 3);
  let g = Codes.Golay.parity_check in
  (* the Golay distance (7) exceeds the cap, so the bounded probe must
     report that it found nothing *)
  check "golay capped probe finds none" true
    (Csskit.probe_distance ~cap:4 ~hx:g ~hz:g ~n:23 () = None)

(* --- structured build errors ------------------------------------------ *)

let test_build_errors () =
  let h = Codes.Hamming.parity_check in
  (match Csskit.build ~distance_cap:1 ~name:"capped" ~hx:h ~hz:h () with
  | Error (Csskit.Distance_not_found { cap }) -> check_int "cap echoed" 1 cap
  | Ok _ -> Alcotest.fail "distance 3 must not be found under cap 1"
  | Error e -> Alcotest.failf "unexpected error %s" (Csskit.error_to_string e));
  (* a single-bit hz row anticommutes with some Hamming row (H has no
     zero column), so the CSS commutation check must trip *)
  let e0 = Bitvec.create 7 in
  Bitvec.set e0 0 true;
  (match Csskit.build ~name:"bad" ~hx:h ~hz:(Mat.of_rows [ e0 ]) () with
  | Error (Csskit.Css _) -> ()
  | Ok _ -> Alcotest.fail "non-commuting pair accepted"
  | Error e -> Alcotest.failf "unexpected error %s" (Csskit.error_to_string e));
  check "build_exn raises Invalid" true
    (match Csskit.build_exn ~name:"bad" ~hx:h ~hz:(Mat.of_rows [ e0 ]) () with
    | exception Csskit.Invalid { name = "bad"; _ } -> true
    | _ -> false)

(* --- cyclic / BCH constructions --------------------------------------- *)

let test_cyclic_and_bch () =
  (* x³ + x + 1 divides x⁷ + 1: 4 generator rows, 3 check rows *)
  let g = Csskit.Zoo.cyclic_generator ~n:7 (Gf2.Poly.of_exponents [ 0; 1; 3 ]) in
  check_int "cyclic generator rows" 4 (Mat.rows g);
  let h = Csskit.Zoo.cyclic_parity_check ~n:7 (Gf2.Poly.of_exponents [ 0; 1; 3 ]) in
  check_int "cyclic parity rows" 3 (Mat.rows h);
  check "non-divisor rejected" true
    (match
       Csskit.Zoo.cyclic_generator ~n:7 (Gf2.Poly.of_exponents [ 0; 1; 2 ])
     with
    | exception Invalid_argument _ -> true
    | _ -> false);
  check "coset of 1 mod 15" true
    (Csskit.Zoo.cyclotomic_coset ~n:15 1 = [ 1; 2; 4; 8 ]);
  (* the minimal polynomial of a primitive α over GF(2⁴) is degree 4
     and divides x¹⁵ + 1 *)
  let m1 = Csskit.Zoo.minimal_polynomial ~m:4 1 in
  check_int "min poly degree" 4 (Gf2.Poly.degree m1);
  check "min poly divides x^15+1" true
    (Gf2.Poly.divides m1 (Gf2.Poly.xn_plus_one 15));
  (* BCH with defining set {1} over GF(2⁴) is the [15, 11] Hamming
     code; its generator is exactly that minimal polynomial *)
  check "bch generator = min poly" true
    (Gf2.Poly.equal (Csskit.Zoo.bch_generator ~m:4 ~defining:[ 1 ]) m1)

(* --- batch classifier: bit-identity ----------------------------------- *)

(* The L x L toric code as a CSS pair: plaquette checks in H_Z, vertex
   checks in H_X, one dependent row dropped from each. *)
let toric_css l =
  let lat = Toric.Lattice.create l in
  let rows f =
    Mat.of_rows
      (List.init ((l * l) - 1) (fun i ->
           bv_of_support (Toric.Lattice.num_qubits lat) (f ~x:(i mod l) ~y:(i / l))))
  in
  Csskit.build_exn ~distance:l ~name:(Printf.sprintf "toric%d" l)
    ~hx:(rows (Toric.Lattice.vertex_edges lat))
    ~hz:(rows (Toric.Lattice.plaquette_edges lat))
    ()

(* The `Scalar engine replays the identical sampler stream through the
   scalar decoder, so counts must be bit-identical to `Batch at every
   tile width and domain count — steane7, golay23 and bch15 (k = 7)
   exercise the per-side flip tables.  The toric codes as CSS pairs
   add undecodable syndromes, where a round toggles every logical
   whatever the error, on both paths: L = 2 (3-check sides) and L = 4
   (15-check sides) the flip tables, L = 5 (24-check sides) the
   memo. *)
let css_counts t ~tile_width ~domains ~engine () =
  (Csskit.Memory.memory_failure_batch ~domains ~engine ~tile_width t ~eps:0.08
     ~rounds:2 ~trials:700 ~seed:97 ())
    .Mc.Stats.failures

let test_batch_scalar_identity () =
  List.iter
    (fun t ->
      let name = t.Csskit.name in
      List.iter
        (fun tile_width ->
          let reference =
            css_counts t ~tile_width ~domains:1 ~engine:`Scalar ()
          in
          List.iter
            (fun domains ->
              check_int
                (Printf.sprintf "%s w=%d batch = scalar (domains %d)" name
                   tile_width domains)
                reference
                (css_counts t ~tile_width ~domains ~engine:`Batch ());
              check_int
                (Printf.sprintf "%s w=%d scalar domain-invariant (domains %d)"
                   name tile_width domains)
                reference
                (css_counts t ~tile_width ~domains ~engine:`Scalar ()))
            [ 1; 4 ])
        [ 64; 256; 512 ])
    (List.map Csskit.Zoo.get [ "steane7"; "golay23"; "bch15" ]
    @ List.map toric_css [ 2; 4; 5 ])

(* --- per-side flip tables ---------------------------------------------- *)

(* The reference classification the batch classifier must reproduce:
   decode the full syndrome and list the logicals the correction
   flips, every logical on both sides when it is undecodable. *)
let classify t sv =
  let k = t.Csskit.k and code = t.Csskit.code in
  match Csskit.decode t sv with
  | None -> (Array.make k true, Array.make k true)
  | Some c ->
    ( Array.init k (fun j -> not (Pauli.commutes c code.Code.logical_z.(j))),
      Array.init k (fun j -> not (Pauli.commutes c code.Code.logical_x.(j))) )

let by_tables t (tables : Csskit.flip_tables) sv =
  let k = t.Csskit.k and nz = Mat.rows t.Csskit.hz in
  let nx = Mat.rows t.Csskit.hx in
  let side ~pos ~len = Bitvec.to_int (Bitvec.sub sv ~pos ~len) in
  let fx = tables.x_flips.(side ~pos:0 ~len:nz)
  and fz = tables.z_flips.(side ~pos:nz ~len:nx) in
  if fx = Csskit.undecodable || fz = Csskit.undecodable then
    (Array.make k true, Array.make k true)
  else
    ( Array.init k (fun j -> (fx lsr j) land 1 = 1),
      Array.init k (fun j -> (fz lsr j) land 1 = 1) )

(* every one-sided syndrome and 10^4 random full ones; returns how many
   of them some side decoder rejected *)
let check_tables t =
  let nz = Mat.rows t.Csskit.hz and nx = Mat.rows t.Csskit.hx in
  let tables =
    match Csskit.flip_tables t with
    | Some tables -> tables
    | None -> Alcotest.failf "%s: no flip tables" t.Csskit.name
  in
  let undecodable = ref 0 in
  let agree what sv =
    let expected = classify t sv in
    if fst expected = Array.make t.Csskit.k true && Csskit.decode t sv = None then
      incr undecodable;
    check (t.Csskit.name ^ " " ^ what) true (by_tables t tables sv = expected)
  in
  let one_sided ~pos ~len =
    for s = 0 to (1 lsl len) - 1 do
      let sv = Bitvec.create (nz + nx) in
      for i = 0 to len - 1 do
        if (s lsr i) land 1 = 1 then Bitvec.set sv (pos + i) true
      done;
      agree (Printf.sprintf "one-sided syndrome %d at %d" s pos) sv
    done
  in
  one_sided ~pos:0 ~len:nz;
  one_sided ~pos:nz ~len:nx;
  let r = Random.State.make [| 31 |] in
  for _ = 1 to 10_000 do
    let sv = Bitvec.create (nz + nx) in
    Bitvec.randomize ~p:0.5 r sv;
    agree "random syndrome" sv
  done;
  !undecodable

let test_flip_tables () =
  (* the zoo's golay23 and bch31 are perfect codes: every side
     syndrome decodes *)
  List.iter
    (fun name ->
      check_int (name ^ " undecodable") 0 (check_tables (Csskit.Zoo.get name)))
    [ "golay23"; "bch31" ];
  (* the L = 4 toric code's 15-check sides decode only weight <= 1, so
     most syndromes carry the undecodable mark *)
  check "toric L4 has undecodable syndromes" true (check_tables (toric_css 4) > 0);
  check "24-check sides have no flip tables" true
    (Csskit.flip_tables (toric_css 5) = None)

(* --- concurrent first use ------------------------------------------------ *)

(* Systhreads (as in the in-process daemon) force the decoders and
   flip tables of fresh, never-forced codes at once.  With [Lazy.t]
   cells a thread that lands on a build another thread is still
   running raises [CamlinternalLazy.Undefined]; the once-cells make it
   wait, and every thread must see the one built table. *)
let test_concurrent_first_use () =
  let h =
    Csskit.Zoo.cyclic_parity_check ~n:23
      (Gf2.Poly.of_exponents [ 0; 1; 5; 6; 7; 9; 11 ])
  in
  let kits =
    Array.init 48 (fun i ->
        Csskit.build_exn ~distance:7 ~name:(Printf.sprintf "golay23-%d" i)
          ~hx:h ~hz:h ())
  in
  let go = Atomic.make false in
  let force_all () =
    while not (Atomic.get go) do
      Thread.yield ()
    done;
    Array.map
      (fun t ->
        ignore (Csskit.decoder t);
        Csskit.flip_tables t)
      kits
  in
  let threads = 8 in
  let results = Array.make threads (Error "not run") in
  let workers =
    List.init threads (fun i ->
        Thread.create
          (fun () ->
            results.(i) <-
              (match force_all () with
              | tables -> Ok tables
              | exception e -> Error (Printexc.to_string e)))
          ())
  in
  Atomic.set go true;
  List.iter Thread.join workers;
  let first = match results.(0) with Ok r -> r | Error m -> Alcotest.fail m in
  Array.iteri
    (fun i r ->
      match r with
      | Error m -> Alcotest.failf "thread %d raised %s" i m
      | Ok tables ->
        Array.iteri
          (fun j table ->
            check (Printf.sprintf "thread %d, code %d: one table" i j) true
              (table != None && table == first.(j)))
          tables)
    results

(* the two memory drivers agree statistically at matched trial counts
   (they draw different streams, so compare intervals, not counts) *)
let test_mc_and_batch_consistent () =
  let t = Csskit.Zoo.get "steane7" in
  let mc =
    Csskit.Memory.memory_failure_mc ~domains:2 t ~eps:0.1 ~rounds:1
      ~trials:4000 ~seed:5 ()
  in
  let batch =
    Csskit.Memory.memory_failure_batch ~domains:2 ~tile_width:256 t ~eps:0.1
      ~rounds:1 ~trials:4000 ~seed:5 ()
  in
  check "estimates overlap" true
    Mc.Stats.(mc.ci_low <= batch.ci_high && batch.ci_low <= mc.ci_high)

let suites =
  [ ( "csskit",
      [ Alcotest.test_case "zoo registry" `Quick test_zoo_registry;
        Alcotest.test_case "steane7 = hand-written Steane" `Quick
          test_steane_matches_hamming;
        Alcotest.test_case "golay23 = hand-written Golay" `Quick
          test_golay_matches_handwritten;
        Alcotest.test_case "decoders correct within t" `Slow
          test_decoder_corrects_within_t;
        Alcotest.test_case "golay mixed supports" `Quick
          test_golay_mixed_support;
        Alcotest.test_case "greedy fallback" `Quick test_greedy_fallback;
        Alcotest.test_case "distance probe" `Slow test_probe_distance;
        Alcotest.test_case "structured build errors" `Quick test_build_errors;
        Alcotest.test_case "cyclic and BCH constructions" `Quick
          test_cyclic_and_bch;
        Alcotest.test_case "batch = scalar bit-identity" `Slow
          test_batch_scalar_identity;
        Alcotest.test_case "flip tables = full-syndrome decode" `Slow
          test_flip_tables;
        Alcotest.test_case "concurrent first use" `Slow
          test_concurrent_first_use;
        Alcotest.test_case "mc and batch drivers consistent" `Slow
          test_mc_and_batch_consistent ] ) ]
