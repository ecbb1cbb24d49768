(* lib/svc — the persistent estimation service.  The load-bearing
   properties: the canonical request encoding is order- and
   default-insensitive (it is the cache/coalescing key), the codec
   never mis-parses a damaged frame, the LRU cache and bounded queue
   keep their contracts, and above all a cached, coalesced or fresh
   reply to the same canonical request is byte-identical to a direct
   library run with the same parameters and seed. *)

open Ftqc
module Protocol = Svc.Protocol
module Json = Obs.Json

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_str = Alcotest.(check string)

let toric_est ?(l = 6) ?(p = 0.08) ?(trials = 400) ?(seed = 7)
    ?(engine = (`Scalar : Protocol.engine)) () =
  Protocol.Toric_memory { l; p; trials; seed; engine; tile_width = 64 }

(* ---------------------------------------------------- canonicalize *)

let all_estimators =
  [
    Protocol.Steane_memory
      { level = 2; eps = 0.01; rounds = 1; trials = 50; seed = 1;
        engine = `Batch; tile_width = 64 };
    Protocol.Steane_memory
      { level = 2; eps = 0.01; rounds = 1; trials = 50; seed = 1;
        engine = `Batch; tile_width = 256 };
    toric_est ();
    Protocol.Toric_scan
      { ls = [ 4; 6 ]; ps = [ 0.05; 0.1 ]; trials = 20; seed = 3;
        engine = `Scalar; tile_width = 64 };
    Protocol.Toric_noisy
      { l = 4; rounds = 4; p = 0.02; q = 0.02; trials = 20; seed = 4;
        engine = `Scalar; tile_width = 64 };
    Protocol.Toric_circuit
      { l = 4; rounds = 4; eps = 0.002; trials = 10; seed = 5;
        engine = `Scalar };
    Protocol.Toric_circuit
      { l = 4; rounds = 4; eps = 0.002; trials = 10; seed = 5;
        engine = `Rare { max_weight = 3; samples_per_class = 500 } };
    toric_est ~engine:(`Rare Protocol.default_rare) ();
    toric_est ~engine:(`Rare { max_weight = 2; samples_per_class = 100 }) ();
    Protocol.Steane_memory
      { level = 2; eps = 0.01; rounds = 1; trials = 50; seed = 1;
        engine = `Rare { max_weight = 3; samples_per_class = 250 };
        tile_width = 64 };
    Protocol.Pseudothreshold
      { eps_list = [ 1e-3; 2e-3 ]; trials = 30; seed = 6 };
    Protocol.Css_memory
      { code = "steane7"; eps = 0.02; rounds = 1; trials = 40; seed = 8;
        engine = `Scalar; tile_width = 64 };
    Protocol.Css_memory
      { code = "golay23"; eps = 0.02; rounds = 2; trials = 40; seed = 8;
        engine = `Batch; tile_width = 256 };
  ]

let test_request_roundtrip () =
  List.iter
    (fun est ->
      let req = Protocol.Run est in
      match Protocol.request_of_json (Protocol.request_to_json req) with
      | Ok req' ->
        check_str
          (Protocol.estimator_name est ^ " canonical survives round trip")
          (Protocol.to_canonical req) (Protocol.to_canonical req')
      | Error msg -> Alcotest.failf "round trip failed: %s" msg)
    (all_estimators
    @ []);
  List.iter
    (fun req ->
      match Protocol.request_of_json (Protocol.request_to_json req) with
      | Ok req' -> check "control request round trips" true (req = req')
      | Error msg -> Alcotest.failf "round trip failed: %s" msg)
    [ Protocol.Status; Protocol.Ping; Protocol.Shutdown ]

(* field order must not matter, and the defaulted engine field must
   canonicalize to the same key as the explicit one *)
let test_canonical_insensitive () =
  let reordered =
    Json.Obj
      [ ("seed", Json.Int 7); ("p", Json.Float 0.08); ("trials", Json.Int 400);
        ("type", Json.String "toric_memory"); ("l", Json.Int 6) ]
  in
  match Protocol.request_of_json reordered with
  | Error msg -> Alcotest.failf "reordered request rejected: %s" msg
  | Ok req ->
    check_str "reordered + defaulted request has the same canonical key"
      (Protocol.to_canonical (Run (toric_est ())))
      (Protocol.to_canonical req);
    check_str "and the same hash"
      (Protocol.hash (Run (toric_est ())))
      (Protocol.hash req);
    (* tile_width 64 is the default and must stay *out* of the
       canonical form: pre-tile cache keys survive the extension *)
    let batch64 =
      Protocol.Run
        (Toric_memory
           { l = 6; p = 0.08; trials = 400; seed = 7; engine = `Batch;
             tile_width = 64 })
    in
    let pre_tile =
      Json.Obj
        [ ("type", Json.String "toric_memory"); ("l", Json.Int 6);
          ("p", Json.Float 0.08); ("trials", Json.Int 400);
          ("seed", Json.Int 7); ("engine", Json.String "batch") ]
    in
    (match Protocol.request_of_json pre_tile with
    | Error msg -> Alcotest.failf "pre-tile request rejected: %s" msg
    | Ok req ->
      check_str "default tile_width canonicalizes to the pre-tile key"
        (Protocol.to_canonical batch64)
        (Protocol.to_canonical req);
      check "pre-tile canonical bytes carry no tile_width field" false
        (let canon = Protocol.to_canonical batch64 in
         let needle = "tile_width" in
         let n = String.length canon and m = String.length needle in
         let found = ref false in
         for i = 0 to n - m do
           if String.sub canon i m = needle then found := true
         done;
         !found));
    (* a non-default width is a different computation schedule and
       must get its own key *)
    let batch256 =
      Protocol.Run
        (Toric_memory
           { l = 6; p = 0.08; trials = 400; seed = 7; engine = `Batch;
             tile_width = 256 })
    in
    check "width 256 gets its own canonical key" false
      (Protocol.to_canonical batch64 = Protocol.to_canonical batch256)

(* the rare extension must not move any pre-rare cache key: default
   rare parameters stay out of the canonical form, and a scalar
   toric_circuit request canonicalizes without an engine field at
   all *)
let test_canonical_rare () =
  let contains hay needle =
    let n = String.length hay and m = String.length needle in
    let found = ref false in
    for i = 0 to n - m do
      if String.sub hay i m = needle then found := true
    done;
    !found
  in
  (* defaulted rare params canonicalize to the bare engine key *)
  let rare_default = Protocol.Run (toric_est ~engine:(`Rare Protocol.default_rare) ()) in
  let bare =
    Json.Obj
      [ ("type", Json.String "toric_memory"); ("l", Json.Int 6);
        ("p", Json.Float 0.08); ("trials", Json.Int 400);
        ("seed", Json.Int 7); ("engine", Json.String "rare") ]
  in
  (match Protocol.request_of_json bare with
  | Error msg -> Alcotest.failf "bare rare request rejected: %s" msg
  | Ok req ->
    check_str "defaulted rare params canonicalize to the bare key"
      (Protocol.to_canonical rare_default)
      (Protocol.to_canonical req));
  check "default rare canonical bytes carry no max_weight field" false
    (contains (Protocol.to_canonical rare_default) "max_weight");
  (* non-default truncation order is a different computation *)
  let rare3 =
    Protocol.Run
      (toric_est ~engine:(`Rare { max_weight = 3; samples_per_class = 2000 }) ())
  in
  check "non-default max_weight gets its own key" false
    (Protocol.to_canonical rare_default = Protocol.to_canonical rare3);
  (* pre-rare toric_circuit requests: the engine field is new and must
     stay out of the canonical form when scalar *)
  let circuit_scalar =
    Protocol.Run
      (Toric_circuit
         { l = 4; rounds = 4; eps = 0.002; trials = 10; seed = 5;
           engine = `Scalar })
  in
  let pre_rare =
    Json.Obj
      [ ("type", Json.String "toric_circuit"); ("l", Json.Int 4);
        ("rounds", Json.Int 4); ("eps", Json.Float 0.002);
        ("trials", Json.Int 10); ("seed", Json.Int 5) ]
  in
  (match Protocol.request_of_json pre_rare with
  | Error msg -> Alcotest.failf "pre-rare circuit request rejected: %s" msg
  | Ok req ->
    check_str "scalar circuit canonicalizes to the pre-rare key"
      (Protocol.to_canonical circuit_scalar)
      (Protocol.to_canonical req));
  check "scalar circuit canonical bytes carry no engine field" false
    (contains (Protocol.to_canonical circuit_scalar) "engine")

let expect_reject name j =
  match Protocol.request_of_json j with
  | Ok _ -> Alcotest.failf "%s: should have been rejected" name
  | Error _ -> ()

let test_validation () =
  let base =
    [ ("type", Json.String "toric_memory"); ("l", Json.Int 6);
      ("p", Json.Float 0.08); ("trials", Json.Int 400); ("seed", Json.Int 7) ]
  in
  expect_reject "unknown field"
    (Json.Obj (base @ [ ("bogus", Json.Int 1) ]));
  expect_reject "bad probability"
    (Json.Obj
       (("p", Json.Float 1.5) :: List.remove_assoc "p" base));
  expect_reject "zero trials"
    (Json.Obj (("trials", Json.Int 0) :: List.remove_assoc "trials" base));
  expect_reject "bad engine"
    (Json.Obj (base @ [ ("engine", Json.String "turbo") ]));
  expect_reject "tile_width not a multiple of 64"
    (Json.Obj
       (base
       @ [ ("engine", Json.String "batch"); ("tile_width", Json.Int 100) ]));
  expect_reject "tile_width zero"
    (Json.Obj
       (base @ [ ("engine", Json.String "batch"); ("tile_width", Json.Int 0) ]));
  expect_reject "tile_width on the scalar engine"
    (Json.Obj (base @ [ ("tile_width", Json.Int 256) ]));
  expect_reject "max_weight on the scalar engine"
    (Json.Obj (base @ [ ("max_weight", Json.Int 3) ]));
  expect_reject "samples_per_class on the batch engine"
    (Json.Obj
       (base
       @ [ ("engine", Json.String "batch"); ("samples_per_class", Json.Int 5) ]));
  expect_reject "zero max_weight"
    (Json.Obj
       (base @ [ ("engine", Json.String "rare"); ("max_weight", Json.Int 0) ]));
  expect_reject "zero samples_per_class"
    (Json.Obj
       (base
       @ [ ("engine", Json.String "rare"); ("samples_per_class", Json.Int 0) ]));
  expect_reject "tile_width on the rare engine"
    (Json.Obj
       (base
       @ [ ("engine", Json.String "rare"); ("tile_width", Json.Int 256) ]));
  expect_reject "rare engine on toric_noisy"
    (Json.Obj
       [ ("type", Json.String "toric_noisy"); ("l", Json.Int 4);
         ("rounds", Json.Int 4); ("p", Json.Float 0.02);
         ("q", Json.Float 0.02); ("trials", Json.Int 20);
         ("seed", Json.Int 4); ("engine", Json.String "rare") ]);
  expect_reject "batch engine on toric_circuit"
    (Json.Obj
       [ ("type", Json.String "toric_circuit"); ("l", Json.Int 4);
         ("rounds", Json.Int 4); ("eps", Json.Float 0.002);
         ("trials", Json.Int 10); ("seed", Json.Int 5);
         ("engine", Json.String "batch") ]);
  expect_reject "unknown type"
    (Json.Obj [ ("type", Json.String "alchemy") ]);
  expect_reject "empty scan"
    (Json.Obj
       [ ("type", Json.String "toric_scan"); ("ls", Json.List []);
         ("ps", Json.List [ Json.Float 0.1 ]); ("trials", Json.Int 1);
         ("seed", Json.Int 0) ]);
  let css_base =
    [ ("type", Json.String "css_memory"); ("code", Json.String "steane7");
      ("eps", Json.Float 0.02); ("rounds", Json.Int 1);
      ("trials", Json.Int 40); ("seed", Json.Int 8) ]
  in
  expect_reject "rare engine on css_memory"
    (Json.Obj (css_base @ [ ("engine", Json.String "rare") ]));
  expect_reject "unknown zoo code"
    (Json.Obj
       (("code", Json.String "nosuch") :: List.remove_assoc "code" css_base));
  expect_reject "zero rounds on css_memory"
    (Json.Obj (("rounds", Json.Int 0) :: List.remove_assoc "rounds" css_base))

let test_payload_roundtrip () =
  let e = Mc.Stats.estimate ~failures:3 ~trials:100 () in
  let payloads =
    [
      Protocol.Estimate { name = "cell"; estimate = e };
      Protocol.Cells
        [ { name = "a"; estimate = e }; { name = "b"; estimate = e } ];
      Protocol.Fit
        { cells = [ { name = "a"; estimate = e } ]; a = 21.0;
          threshold = 1.0 /. 21.0 };
    ]
  in
  List.iter
    (fun p ->
      match Protocol.payload_of_json (Protocol.payload_to_json p) with
      | Ok p' ->
        check_str "payload round trips"
          (Json.to_string (Protocol.payload_to_json p))
          (Json.to_string (Protocol.payload_to_json p'))
      | Error msg -> Alcotest.failf "payload round trip: %s" msg)
    payloads;
  (* a non-finite fit value encodes as null and comes back nan,
     and is dropped from manifest rows — like the driver does *)
  let degenerate =
    Protocol.Fit { cells = [ { name = "a"; estimate = e } ]; a = 0.0;
                   threshold = infinity }
  in
  let reparsed =
    (* through the wire encoding: infinity serializes as null *)
    match Json.of_string (Json.to_string (Protocol.payload_to_json degenerate))
    with
    | Ok j -> Protocol.payload_of_json j
    | Error msg -> Error msg
  in
  match reparsed with
  | Error msg -> Alcotest.failf "degenerate fit: %s" msg
  | Ok (Fit f) ->
    check "infinite threshold decodes as nan" true (Float.is_nan f.threshold);
    check_int "non-finite fit values dropped from manifest rows" 2
      (List.length (Protocol.manifest_results degenerate))
  | Ok _ -> Alcotest.fail "degenerate fit decoded to the wrong payload"

(* ---------------------------------------------------------- codec *)

let test_codec_roundtrip () =
  let a, b = Unix.socketpair PF_UNIX SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () ->
      Unix.close a;
      try Unix.close b with Unix.Unix_error _ -> ())
    (fun () ->
      let j = Protocol.request_frame (Run (toric_est ())) in
      Svc.Codec.write a j;
      (match Svc.Codec.read b with
      | Ok (j', raw) ->
        check_str "frame round trips" (Json.to_string j) (Json.to_string j');
        check_str "raw bytes are the deterministic rendering"
          (Svc.Codec.encode j) raw
      | Error _ -> Alcotest.fail "codec read failed");
      (* clean close between frames *)
      Unix.close b;
      check "clean EOF reads as `Closed" true
        (match Svc.Codec.read a with Error `Closed -> true | _ -> false))

let test_codec_truncated () =
  let a, b = Unix.socketpair PF_UNIX SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () -> Unix.close a)
    (fun () ->
      (* a length header promising more bytes than ever arrive *)
      let header = Bytes.create 4 in
      Bytes.set_int32_be header 0 64l;
      let n = Unix.write b header 0 4 in
      check_int "header written" 4 n;
      let _ = Unix.write_substring b "{}" 0 2 in
      Unix.close b;
      check "mid-frame close is `Bad, not `Closed" true
        (match Svc.Codec.read a with Error (`Bad _) -> true | _ -> false))

(* ---------------------------------------------------------- cache *)

let test_cache_lru () =
  let c = Svc.Cache.create ~capacity:2 in
  Svc.Cache.add c "a" 1;
  Svc.Cache.add c "b" 2;
  check "a present" true (Svc.Cache.find c "a" = Some 1);
  (* "a" is now MRU; inserting "c" must evict "b" *)
  Svc.Cache.add c "c" 3;
  check "b evicted" true (Svc.Cache.find c "b" = None);
  check "a survived" true (Svc.Cache.find c "a" = Some 1);
  check "c present" true (Svc.Cache.find c "c" = Some 3);
  check_int "length tracks evictions" 2 (Svc.Cache.length c);
  Svc.Cache.add c "c" 4;
  check "overwrite keeps one entry" true (Svc.Cache.find c "c" = Some 4);
  check_int "hits counted" 4 (Svc.Cache.hits c);
  check_int "misses counted" 1 (Svc.Cache.misses c)

(* ----------------------------------------------------------- jobq *)

let test_jobq () =
  let q = Svc.Jobq.create ~capacity:2 in
  check "push 1" true (Svc.Jobq.push q 1 = Ok ());
  check "push 2" true (Svc.Jobq.push q 2 = Ok ());
  check "push beyond capacity is rejected" true
    (Svc.Jobq.push q 3 = Error `Overloaded);
  check_int "depth" 2 (Svc.Jobq.depth q);
  check "FIFO pop" true (Svc.Jobq.pop q = Some 1);
  check "slot freed" true (Svc.Jobq.push q 3 = Ok ());
  Svc.Jobq.close q;
  check "push after close" true (Svc.Jobq.push q 4 = Error `Closed);
  check "drains after close" true (Svc.Jobq.pop q = Some 2);
  check "drains after close (2)" true (Svc.Jobq.pop q = Some 3);
  check "then None" true (Svc.Jobq.pop q = None)

(* ----------------------------------------------------- end-to-end *)

let fresh_socket_path () =
  let f = Filename.temp_file "ftqc_svc" ".sock" in
  Sys.remove f;
  f

(* [start_server cfg] — run a daemon for [cfg] on a new thread, and
   return that thread once the socket exists. *)
let start_server ?obs (cfg : Svc.Server.config) =
  let th = Thread.create (fun () -> Svc.Server.run ?obs cfg) () in
  let rec wait n =
    if Sys.file_exists cfg.socket then ()
    else if n = 0 then Alcotest.fail "server did not start"
    else begin
      Thread.delay 0.02;
      wait (n - 1)
    end
  in
  wait 250;
  th

(* An in-process daemon on a temp socket; the campaign stop flag is
   the shutdown path, exactly as in the real ftqcd. *)
let with_server ?(workers = 2) ?(max_queue = 8) ?(progress_interval = 0.05)
    f =
  Mc.Campaign.reset_stop ();
  let socket = fresh_socket_path () in
  let cfg =
    Svc.Server.config ~workers ~max_queue ~cache_capacity:8 ~domains:2
      ~progress_interval ~socket ()
  in
  let th = start_server ~obs:(Obs.create ()) cfg in
  Fun.protect
    ~finally:(fun () ->
      Mc.Campaign.request_stop ();
      Thread.join th;
      Mc.Campaign.reset_stop ();
      check "socket file removed on shutdown" false (Sys.file_exists socket))
    (fun () -> f socket)

let request_ok ?on_progress socket est =
  match
    Svc.Client.with_connection ~socket (fun fd ->
        Svc.Client.request ?on_progress fd est)
  with
  | Ok (Ok o) -> o
  | Ok (Error e) -> Alcotest.failf "request failed: %s: %s" e.code e.message
  | Error msg -> Alcotest.failf "connect failed: %s" msg

(* the central contract: fresh reply == cached reply == direct library
   run, byte for byte *)
let test_cached_bit_identical () =
  with_server (fun socket ->
      let est = toric_est () in
      let direct = Svc.Server.execute ~domains:3 est in
      let expected_raw =
        Svc.Codec.encode
          (Protocol.result_frame
             ~key:(Protocol.to_canonical (Run est))
             direct)
      in
      let fresh = request_ok socket est in
      check "first reply is not cached" false fresh.cached;
      check_str "fresh reply is byte-identical to the direct run"
        expected_raw fresh.raw_result;
      let cached = request_ok socket est in
      check "second reply is cached" true cached.cached;
      check_str "cached reply is byte-identical to the fresh one"
        fresh.raw_result cached.raw_result)

(* [holding est f] — every runner step of request [est] blocks at the
   progress watcher until [f]'s release function is called (or [f]
   returns), so [est]'s job cannot finish early.  Tests then wait for
   daemon states rather than racing a timer against the job. *)
let holding est f =
  let scope = Protocol.hash (Run est) in
  let gate = Atomic.make false in
  Obs.Progress.set_watcher
    (Some
       (fun (v : Obs.Progress.view) ->
         if v.v_scope = scope then
           while not (Atomic.get gate) do
             Thread.delay 0.001
           done));
  Fun.protect
    ~finally:(fun () ->
      Atomic.set gate true;
      Obs.Progress.set_watcher None)
    (fun () -> f (fun () -> Atomic.set gate true))

(* [await what cond] — poll [cond] every 10 ms; fail after 30 s. *)
let await what cond =
  let rec go n = cond () || (n > 0 && (Thread.delay 0.01; go (n - 1))) in
  check ("reached " ^ what) true (go 3000)

let status socket =
  match Svc.Client.with_connection ~socket Svc.Client.status with
  | Ok (Ok j) -> j
  | Ok (Error e) -> Alcotest.failf "status failed: %s" e.message
  | Error msg -> Alcotest.failf "connect failed: %s" msg

(* The states of the in-flight job table, sorted. *)
let inflight_states socket =
  match Json.member "jobs" (status socket) with
  | Some (Json.List jobs) ->
    List.filter_map
      (fun job ->
        match Json.member "state" job with
        | Some (Json.String s) -> Some s
        | _ -> None)
      jobs
    |> List.sort compare
  | _ -> []

let coalesced_count socket =
  match
    Option.bind (Json.member "metrics" (status socket)) (fun m ->
        Option.bind (Json.member "counters" m) (Json.member "svc.coalesced"))
  with
  | Some (Json.Int n) -> n
  | _ -> 0

let await_states socket states =
  await
    ("jobs [" ^ String.concat "; " states ^ "]")
    (fun () -> inflight_states socket = states)

(* a second identical request arriving while the first is queued or
   running must share its job (one execution, two byte-identical
   replies) *)
let test_coalescing () =
  with_server ~workers:1 (fun socket ->
      (* a held blocker occupies the single worker, so the next
         request stays queued until the second one has joined it *)
      let blocker_est = toric_est ~l:12 ~p:0.1 ~trials:2000 () in
      holding blocker_est (fun release ->
          let blocker =
            Thread.create (fun () -> ignore (request_ok socket blocker_est)) ()
          in
          await_states socket [ "running" ];
          let est = toric_est ~seed:11 () in
          let r1 = ref None and r2 = ref None in
          let t1 = Thread.create (fun () -> r1 := Some (request_ok socket est)) () in
          await_states socket [ "queued"; "running" ];
          let t2 = Thread.create (fun () -> r2 := Some (request_ok socket est)) () in
          await "the join" (fun () -> coalesced_count socket = 1);
          release ();
          Thread.join t1;
          Thread.join t2;
          Thread.join blocker;
          match (!r1, !r2) with
          | Some a, Some b ->
            check "second request joined the first job" true b.coalesced;
            check "coalesced reply is not a cache hit" false b.cached;
            check_str "coalesced replies are byte-identical" a.raw_result
              b.raw_result
          | _ -> Alcotest.fail "coalesced requests did not complete"))

(* beyond max_queue the daemon must refuse with a structured error,
   never hang the client *)
let test_overload () =
  with_server ~workers:1 ~max_queue:1 (fun socket ->
      let blocker_est = toric_est ~l:12 ~p:0.1 ~trials:2000 () in
      holding blocker_est (fun release ->
          let blocker =
            Thread.create (fun () -> ignore (request_ok socket blocker_est)) ()
          in
          await_states socket [ "running" ];
          (* the worker is busy: this one fills the single queue slot *)
          let filler =
            Thread.create
              (fun () -> ignore (request_ok socket (toric_est ~seed:21 ())))
              ()
          in
          await_states socket [ "queued"; "running" ];
          let refused =
            Svc.Client.with_connection ~socket (fun fd ->
                Svc.Client.request fd (toric_est ~seed:22 ()))
          in
          release ();
          Thread.join filler;
          Thread.join blocker;
          match refused with
          | Ok (Error e) -> check_str "structured overload error" "overloaded" e.code
          | Ok (Ok _) -> Alcotest.fail "request beyond max_queue was accepted"
          | Error msg -> Alcotest.failf "connect failed: %s" msg))

let test_scan_matches_driver_derivation () =
  with_server (fun socket ->
      let ls = [ 4; 6 ] and ps = [ 0.05; 0.1 ] in
      let est =
        Protocol.Toric_scan { ls; ps; trials = 200; seed = 2026;
                              engine = `Scalar; tile_width = 64 }
      in
      let o = request_ok socket est in
      let cells =
        match o.payload with
        | Protocol.Cells cells -> cells
        | _ -> Alcotest.fail "scan reply is not a cell list"
      in
      check_int "full grid" (List.length ls * List.length ps)
        (List.length cells);
      (* every cell must equal the driver's derivation for that cell *)
      List.iteri
        (fun pi p ->
          List.iter
            (fun l ->
              let r =
                Toric.Memory.run_mc ~l ~p ~trials:200
                  ~seed:(Mc.Rng.derive 2026 [ 10; l; pi ])
                  ()
              in
              let cell =
                List.find
                  (fun (c : Protocol.cell) ->
                    c.name = Printf.sprintf "l=%d,p=%g" l p)
                  cells
              in
              check_int
                (Printf.sprintf "failures match driver at l=%d p=%g" l p)
                r.failures cell.estimate.failures)
            ls)
        ps)

(* A one-round toric_noisy request is plain toric memory: the daemon
   must run it (the protocol has always accepted rounds >= 1) and
   return the toric_memory count for the same noise. *)
let test_noisy_one_round_is_plain_memory () =
  with_server (fun socket ->
      let failures est =
        match (request_ok socket est).payload with
        | Protocol.Estimate { estimate; _ } -> estimate.failures
        | _ -> Alcotest.fail "reply is not a single estimate"
      in
      let l = 5 and p = 0.05 and trials = 2000 and seed = 31 in
      let tile_width = 256 in
      let plain =
        failures
          (Protocol.Toric_memory { l; p; trials; seed; engine = `Batch; tile_width })
      in
      let noisy =
        failures
          (Protocol.Toric_noisy
             { l; rounds = 1; p; q = 0.03; trials; seed; engine = `Batch;
               tile_width })
      in
      check "some failures observed" true (plain > 0);
      check_int "toric_noisy rounds 1 = toric_memory" plain noisy)

let test_status_and_metrics () =
  with_server (fun socket ->
      let est = toric_est ~trials:100 () in
      ignore (request_ok socket est);
      ignore (request_ok socket est);
      match Svc.Client.with_connection ~socket Svc.Client.status with
      | Ok (Ok j) ->
        let counter name =
          match
            Option.bind (Json.member "metrics" j) (fun m ->
                Option.bind (Json.member "counters" m) (Json.member name))
          with
          | Some (Json.Int n) -> n
          | _ -> 0
        in
        check "requests counted" true (counter "svc.requests" >= 3);
        check_int "one cache hit" 1 (counter "svc.cache_hits");
        check_int "one cache miss" 1 (counter "svc.cache_misses");
        check "cache occupancy reported" true
          (match
             Option.bind (Json.member "cache" j) (Json.member "length")
           with
          | Some (Json.Int 1) -> true
          | _ -> false);
        check "latency histogram present" true
          (Option.is_some
             (Option.bind (Json.member "metrics" j) (fun m ->
                  Option.bind (Json.member "histograms" m)
                    (Json.member "svc.request_latency_s"))))
      | Ok (Error e) -> Alcotest.failf "status failed: %s" e.message
      | Error msg -> Alcotest.failf "connect failed: %s" msg)

(* progress frames must carry live runner completion — to the primary
   client and to a coalesced joiner alike *)
let test_progress_completion_streams () =
  with_server ~workers:1 (fun socket ->
      let est = toric_est ~l:12 ~p:0.1 ~trials:2000 ~seed:33 () in
      let saw cell (p : Svc.Client.progress) =
        match (p.p_completed, p.p_total, p.p_phase) with
        | Some d, Some t, Some _ when d >= 0 && t > 0 && d <= t ->
          Atomic.set cell true
        | _ -> ()
      in
      let primary_saw = Atomic.make false and joiner_saw = Atomic.make false in
      let r1 = ref None and r2 = ref None in
      (* the held job keeps streaming progress until both waiters saw
         a completion frame *)
      holding est (fun release ->
          let t1 =
            Thread.create
              (fun () ->
                r1 := Some (request_ok ~on_progress:(saw primary_saw) socket est))
              ()
          in
          await_states socket [ "running" ];
          let t2 =
            Thread.create
              (fun () ->
                r2 := Some (request_ok ~on_progress:(saw joiner_saw) socket est))
              ()
          in
          await "completion frames to both waiters" (fun () ->
              Atomic.get primary_saw && Atomic.get joiner_saw);
          release ();
          Thread.join t1;
          Thread.join t2);
      match (!r1, !r2) with
      | Some a, Some b ->
        check "second request joined the first job" true b.coalesced;
        check_str "coalesced replies are byte-identical" a.raw_result
          b.raw_result
      | _ -> Alcotest.fail "requests did not complete")

(* ---------------------------------------------- event-driven waits *)

(* [cold_wall_median socket] — the median server wall time of 7 fresh
   tiny requests (toric L3, p = 0.01, 64 trials, distinct seeds).
   Each computes for well under a millisecond, so a waiter that polled
   would round every reply up to its tick. *)
let cold_wall_median socket =
  let walls =
    List.init 7 (fun i ->
        let est = toric_est ~l:3 ~p:0.01 ~trials:64 ~seed:(900 + i) () in
        let o = request_ok socket est in
        check "fresh request is not cached" false o.cached;
        o.server_wall_s)
  in
  List.nth (List.sort compare walls) 3

let test_cold_replies_not_quantised () =
  with_server (fun socket ->
      let m = cold_wall_median socket in
      check
        (Printf.sprintf "median cold server wall %.4f s is under 10 ms" m)
        true (m < 0.010))

(* [held_pair socket est ~hold ~on_progress] — a primary request for
   [est] and one coalesced joiner, with the job held until [hold ()]
   returns.  Waiter [i] (0 primary, 1 joiner) gets [on_progress i] as
   its progress callback.  Returns the [Obs.now] of the release and
   each waiter's reply time. *)
let held_pair socket est ~hold ~on_progress =
  let replied = Array.make 2 Float.infinity in
  let waiter i =
    Thread.create
      (fun () ->
        ignore (request_ok ~on_progress:(on_progress i) socket est);
        replied.(i) <- Obs.now ())
      ()
  in
  holding est (fun release ->
      let primary = waiter 0 in
      await_states socket [ "running" ];
      let joiner = waiter 1 in
      await "the join" (fun () -> coalesced_count socket = 1);
      hold ();
      let released = Obs.now () in
      release ();
      Thread.join primary;
      Thread.join joiner;
      (released, replied))

(* At a 5 s interval no progress frame falls due while the job is
   held, so only the job's completion can wake its two waiters. *)
let test_completion_wakes_joiners () =
  with_server ~workers:1 ~progress_interval:5.0 (fun socket ->
      let released, replied =
        held_pair socket (toric_est ~seed:63 ()) ~hold:ignore
          ~on_progress:(fun _ _ -> ())
      in
      Array.iteri
        (fun i at ->
          check
            (Printf.sprintf "waiter %d replied %.3f s after release (< 1 s)" i
               (at -. released))
            true
            (at -. released < 1.0))
        replied)

(* Each waiter gets its frames one interval apart (the server-side
   [elapsed_s] of consecutive frames), primary and joiner alike. *)
let test_progress_cadence () =
  with_server ~workers:1 ~progress_interval:0.05 (fun socket ->
      let elapsed = Array.make 2 [] in
      ignore
        (held_pair socket (toric_est ~seed:65 ())
           ~hold:(fun () -> Thread.delay 0.4)
           ~on_progress:(fun i (p : Svc.Client.progress) ->
             elapsed.(i) <- p.p_elapsed_s :: elapsed.(i)));
      Array.iteri
        (fun i frames ->
          check
            (Printf.sprintf "waiter %d got %d progress frames (>= 3)" i
               (List.length frames))
            true
            (List.length frames >= 3);
          let rec gaps = function
            | a :: (b :: _ as tl) -> (a -. b) :: gaps tl
            | _ -> []
          in
          List.iter
            (fun g ->
              check
                (Printf.sprintf "waiter %d frames %.4f s apart (>= 0.045 s)" i
                   g)
                true (g >= 0.045))
            (gaps frames))
        elapsed)

(* With the default 1 s interval, a finished request leaves its first
   progress deadline pending on the clock; the stop must not wait for
   it. *)
let test_stop_is_prompt () =
  Mc.Campaign.reset_stop ();
  let socket = fresh_socket_path () in
  let th = start_server (Svc.Server.config ~socket ()) in
  ignore (request_ok socket (toric_est ~l:3 ~p:0.01 ~trials:64 ~seed:67 ()));
  let stop = Obs.now () in
  Mc.Campaign.request_stop ();
  Thread.join th;
  let took = Obs.now () -. stop in
  Mc.Campaign.reset_stop ();
  check
    (Printf.sprintf "Server.run returned %.3f s after the stop (< 0.5 s)" took)
    true (took < 0.5)

(* the extended status frame: worker utilization and the in-flight job
   table, live while a request runs *)
let test_status_inflight_jobs () =
  with_server ~workers:1 (fun socket ->
      let est = toric_est ~l:12 ~p:0.1 ~trials:2000 () in
      holding est (fun release ->
          let blocker = Thread.create (fun () -> ignore (request_ok socket est)) () in
          await_states socket [ "running" ];
          let j = status socket in
          let workers k =
            match Option.bind (Json.member "workers" j) (Json.member k) with
            | Some (Json.Int n) -> n
            | _ -> -1
          in
          check_int "worker count reported" 1 (workers "count");
          check_int "busy workers reported" 1 (workers "busy");
          (match Json.member "jobs" j with
          | Some (Json.List [ job ]) ->
            check "job row names its estimator" true
              (Json.member "estimator" job = Some (Json.String "toric_memory"));
            check "job row carries elapsed_s" true
              (match Json.member "elapsed_s" job with
              | Some (Json.Float e) -> e >= 0.0
              | _ -> false)
          | _ -> Alcotest.fail "expected one in-flight job");
          release ();
          Thread.join blocker);
      (* after the job drains: per-estimator latency histogram recorded *)
      check "per-estimator latency histogram present" true
        (Option.is_some
           (Option.bind (Json.member "metrics" (status socket)) (fun m ->
                Option.bind (Json.member "histograms" m)
                  (Json.member "svc.request_latency_s.toric_memory")))))

(* tracing the whole daemon must not move a single result byte *)
let test_tracing_neutral_byte_identity () =
  let est = toric_est ~seed:55 () in
  let plain =
    with_server (fun socket -> (request_ok socket est).raw_result)
  in
  let sk = Obs.Trace.sink () in
  Obs.Trace.install (Some sk);
  let traced =
    Fun.protect
      ~finally:(fun () -> Obs.Trace.install None)
      (fun () -> with_server (fun socket -> (request_ok socket est).raw_result))
  in
  check_str "result frame bytes identical with tracing installed" plain traced;
  check "request-lifecycle spans recorded" true (Obs.Trace.sink_length sk > 0);
  let names =
    List.map (fun (s : Obs.Trace.span) -> s.name) (Obs.Trace.sink_spans sk)
  in
  List.iter
    (fun n -> check (n ^ " span present") true (List.mem n names))
    [ "cache lookup"; "admission"; "queue wait"; "execute"; "encode result" ];
  check "request span present" true
    (List.exists
       (fun n -> String.length n >= 8 && String.sub n 0 8 = "request ")
       names);
  match Obs.Trace.validate (Obs.Trace.to_json sk) with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "service trace invalid: %s" e

let test_shutdown_request () =
  (* not via with_server: the shutdown request itself must stop the
     daemon and remove the socket *)
  Mc.Campaign.reset_stop ();
  let socket = fresh_socket_path () in
  let th = start_server (Svc.Server.config ~socket ()) in
  (match Svc.Client.with_connection ~socket Svc.Client.shutdown with
  | Ok (Ok ()) -> ()
  | Ok (Error e) -> Alcotest.failf "shutdown failed: %s" e.message
  | Error msg -> Alcotest.failf "connect failed: %s" msg);
  Thread.join th;
  Mc.Campaign.reset_stop ();
  check "socket removed after shutdown request" false (Sys.file_exists socket)

let test_ping () =
  with_server (fun socket ->
      match Svc.Client.with_connection ~socket Svc.Client.ping with
      | Ok (Ok ()) -> ()
      | Ok (Error e) -> Alcotest.failf "ping failed: %s" e.message
      | Error msg -> Alcotest.failf "connect failed: %s" msg)

let suites =
  [ ( "svc",
      [ Alcotest.test_case "request round trip" `Quick test_request_roundtrip;
        Alcotest.test_case "canonical key insensitivity" `Quick
          test_canonical_insensitive;
        Alcotest.test_case "rare canonical keys are backward stable" `Quick
          test_canonical_rare;
        Alcotest.test_case "request validation" `Quick test_validation;
        Alcotest.test_case "payload round trip" `Quick test_payload_roundtrip;
        Alcotest.test_case "codec round trip" `Quick test_codec_roundtrip;
        Alcotest.test_case "codec truncation" `Quick test_codec_truncated;
        Alcotest.test_case "cache LRU" `Quick test_cache_lru;
        Alcotest.test_case "job queue" `Quick test_jobq;
        Alcotest.test_case "ping" `Quick test_ping;
        Alcotest.test_case "cached replies bit-identical" `Quick
          test_cached_bit_identical;
        Alcotest.test_case "request coalescing" `Slow test_coalescing;
        Alcotest.test_case "overload admission control" `Slow test_overload;
        Alcotest.test_case "scan matches driver derivation" `Slow
          test_scan_matches_driver_derivation;
        Alcotest.test_case "one-round toric_noisy = toric_memory" `Quick
          test_noisy_one_round_is_plain_memory;
        Alcotest.test_case "status metrics" `Quick test_status_and_metrics;
        Alcotest.test_case "progress completion streams" `Slow
          test_progress_completion_streams;
        Alcotest.test_case "cold replies are not quantised" `Quick
          test_cold_replies_not_quantised;
        Alcotest.test_case "completion wakes joiners" `Quick
          test_completion_wakes_joiners;
        Alcotest.test_case "progress cadence is kept" `Quick
          test_progress_cadence;
        Alcotest.test_case "stop is prompt" `Quick test_stop_is_prompt;
        Alcotest.test_case "status lists in-flight jobs" `Slow
          test_status_inflight_jobs;
        Alcotest.test_case "tracing is byte-neutral" `Quick
          test_tracing_neutral_byte_identity;
        Alcotest.test_case "shutdown request" `Quick test_shutdown_request ] )
  ]
