(* The distributed estimation fleet and its front door.  Load-bearing
   properties: fleet results are byte-identical to in-process runs at
   any worker count, under worker crashes and dropped results; the
   shard planner's per-chunk counts reassemble exactly; the QoS layer
   (token buckets, two-level deficit-round-robin scheduler) keeps its
   fairness and admission contracts; the codec honours its 16 MiB cap
   exactly at the boundary; and the client's retry schedule is a pure
   function of the request. *)

open Ftqc
module Protocol = Svc.Protocol
module Json = Obs.Json
module Chaos = Mc.Chaos

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_str = Alcotest.(check string)

let toric_est ?(l = 6) ?(p = 0.08) ?(trials = 400) ?(seed = 7) () =
  Protocol.Toric_memory
    { l; p; trials; seed; engine = `Scalar; tile_width = 64 }

let payload_bytes p = Svc.Codec.encode (Protocol.payload_to_json p)

let fresh_socket_path () =
  let f = Filename.temp_file "ftqc_fleet" ".sock" in
  Sys.remove f;
  f

(* ------------------------------------------------ chaos fleet specs *)

let test_chaos_fleet_specs () =
  let specs =
    [
      Chaos.kill_worker ~worker:1 ();
      Chaos.hang_worker ~gen:2 ~nth:3 ~worker:0 ~seconds:1.5 ();
      Chaos.drop_result ~worker:2 ~nth:1 ();
    ]
  in
  let s = Chaos.fleet_list_to_string specs in
  check_str "printed form" "kill@1.0.0;hang:1.5@0.2.3;drop@2.0.1" s;
  (match Chaos.fleet_list_of_string s with
  | Ok back -> check "roundtrip" true (back = specs)
  | Error m -> Alcotest.fail m);
  (match Chaos.fleet_list_of_string "" with
  | Ok [] -> ()
  | _ -> Alcotest.fail "empty spec list must parse to []");
  List.iter
    (fun bad ->
      match Chaos.fleet_of_string bad with
      | Ok _ -> Alcotest.fail (Printf.sprintf "accepted bad spec %S" bad)
      | Error _ -> ())
    [ ""; "boom@1.0.0"; "kill@1.0"; "hang@1.0.0"; "hang:x@1.0.0";
      "hang:-1@1.0.0"; "kill@a.b.c"; "kill" ]

(* -------------------------------------------------------------- qos *)

let test_qos_limiter () =
  let l = Svc.Qos.limiter (Svc.Qos.limit ~rate:1.0 ~burst:2.0) in
  check "burst token 1" true (Svc.Qos.admit l ~tenant:"a" ~now:0.0 = `Ok);
  check "burst token 2" true (Svc.Qos.admit l ~tenant:"a" ~now:0.0 = `Ok);
  (match Svc.Qos.admit l ~tenant:"a" ~now:0.0 with
  | `Retry_after s ->
    check "empty bucket refills in exactly 1/rate" true
      (Float.abs (s -. 1.0) < 1e-9)
  | `Ok -> Alcotest.fail "third request must shed");
  (* buckets are per tenant *)
  check "other tenant unaffected" true
    (Svc.Qos.admit l ~tenant:"b" ~now:0.0 = `Ok);
  (* a failed admit spends nothing: one second refills one token *)
  check "refill" true (Svc.Qos.admit l ~tenant:"a" ~now:1.0 = `Ok);
  (match Svc.Qos.admit l ~tenant:"a" ~now:1.0 with
  | `Retry_after s -> check "hint again" true (Float.abs (s -. 1.0) < 1e-9)
  | `Ok -> Alcotest.fail "bucket must be empty again");
  let u = Svc.Qos.limiter Svc.Qos.unlimited in
  for _ = 1 to 64 do
    check "unlimited never sheds" true
      (Svc.Qos.admit u ~tenant:"a" ~now:0.0 = `Ok)
  done

let push_ok q ~tenant ~high ~cost v =
  match Svc.Qos.push q ~tenant ~high ~cost v with
  | Ok () -> ()
  | Error _ -> Alcotest.fail "push rejected below capacity"

let test_qos_priority () =
  let q = Svc.Qos.create ~capacity:16 () in
  push_ok q ~tenant:"a" ~high:false ~cost:1 "a-normal";
  push_ok q ~tenant:"b" ~high:false ~cost:1 "b-normal";
  push_ok q ~tenant:"a" ~high:true ~cost:1 "a-high";
  push_ok q ~tenant:"b" ~high:true ~cost:1 "b-high";
  check_int "depth counts both levels" 4 (Svc.Qos.depth q);
  check "tenant rows" true
    (Svc.Qos.tenants q = [ ("a", 1, 1); ("b", 1, 1) ]);
  let popped = List.init 4 (fun _ -> Option.get (Svc.Qos.pop q)) in
  let is_high s = Filename.check_suffix s "high" in
  (match popped with
  | [ p1; p2; p3; p4 ] ->
    check "high strictly before normal" true
      (is_high p1 && is_high p2 && (not (is_high p3)) && not (is_high p4))
  | _ -> assert false);
  Svc.Qos.close q

let test_qos_drr_fairness () =
  let q = Svc.Qos.create ~capacity:16 () in
  (* a tenant of huge campaigns (cost clamps at 16 quanta) queued
     ahead of a tenant of tiny probes *)
  for i = 1 to 3 do
    push_ok q ~tenant:"big" ~high:false ~cost:10_000_000
      (Printf.sprintf "big%d" i)
  done;
  for i = 1 to 3 do
    push_ok q ~tenant:"small" ~high:false ~cost:1
      (Printf.sprintf "small%d" i)
  done;
  let popped = List.init 6 (fun _ -> Option.get (Svc.Qos.pop q)) in
  let pos p =
    let rec go i = function
      | [] -> Alcotest.fail (p ^ " never dispensed")
      | x :: tl -> if String.equal x p then i else go (i + 1) tl
    in
    go 0 popped
  in
  (* deficit round robin: the probes all clear before the big
     tenant's first job saves up enough deficit *)
  check "small tenant is not starved" true (pos "small3" < pos "big1");
  check "fifo within a tenant" true
    (pos "big1" < pos "big2" && pos "big2" < pos "big3"
    && pos "small1" < pos "small2" && pos "small2" < pos "small3");
  check_int "drained" 0 (Svc.Qos.depth q);
  Svc.Qos.close q;
  check "pop after close+drain is None" true (Svc.Qos.pop q = None)

let test_qos_overload_close () =
  let q = Svc.Qos.create ~capacity:2 () in
  push_ok q ~tenant:"a" ~high:false ~cost:1 1;
  push_ok q ~tenant:"a" ~high:true ~cost:1 2;
  (match Svc.Qos.push q ~tenant:"b" ~high:false ~cost:1 3 with
  | Error `Overloaded -> ()
  | _ -> Alcotest.fail "push above capacity must be `Overloaded");
  Svc.Qos.close q;
  (match Svc.Qos.push q ~tenant:"a" ~high:false ~cost:1 4 with
  | Error `Closed -> ()
  | _ -> Alcotest.fail "push after close must be `Closed");
  (* a closed queue drains (high first) before yielding None *)
  check "drains high entry" true (Svc.Qos.pop q = Some 2);
  check "drains normal entry" true (Svc.Qos.pop q = Some 1);
  check "then None" true (Svc.Qos.pop q = None)

(* ------------------------------------------------- codec boundaries *)

let close_quiet fd = try Unix.close fd with Unix.Unix_error _ -> ()

let test_codec_at_cap () =
  let a, b = Unix.socketpair PF_UNIX SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () -> List.iter close_quiet [ a; b ])
    (fun () ->
      (* a JSON string of max_frame - 3 'x's encodes to exactly
         max_frame payload bytes (two quotes plus the renderer's
         trailing newline, nothing escaped) *)
      let j = Json.String (String.make (Svc.Codec.max_frame - 3) 'x') in
      let wr = Thread.create (fun () -> Svc.Codec.write a j) () in
      (match Svc.Codec.read b with
      | Ok (j', raw) ->
        check_int "payload exactly at the cap" Svc.Codec.max_frame
          (String.length raw);
        check "roundtrip at the cap" true (j' = j)
      | Error `Closed -> Alcotest.fail "cap-sized frame read as `Closed"
      | Error (`Bad m) -> Alcotest.fail ("cap-sized frame rejected: " ^ m));
      Thread.join wr)

let test_codec_over_cap () =
  let a, b = Unix.socketpair PF_UNIX SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () -> List.iter close_quiet [ a; b ])
    (fun () ->
      (* a length prefix one past the cap is rejected from the header
         alone — no payload byte is ever read *)
      let hdr = Bytes.create 4 in
      Bytes.set_int32_be hdr 0 (Int32.of_int (Svc.Codec.max_frame + 1));
      check_int "header written" 4 (Unix.write a hdr 0 4);
      match Svc.Codec.read b with
      | Error (`Bad _) -> ()
      | Ok _ -> Alcotest.fail "oversized frame accepted"
      | Error `Closed -> Alcotest.fail "oversized frame read as `Closed")

let test_codec_partial_vs_closed () =
  (* EOF mid-header is `Bad ... *)
  let a, b = Unix.socketpair PF_UNIX SOCK_STREAM 0 in
  ignore (Unix.write a (Bytes.of_string "\x00\x00") 0 2);
  Unix.close a;
  (match Svc.Codec.read b with
  | Error (`Bad _) -> ()
  | _ -> Alcotest.fail "EOF mid-header must be `Bad");
  Unix.close b;
  (* ... but a clean EOF at a frame boundary is `Closed *)
  let a, b = Unix.socketpair PF_UNIX SOCK_STREAM 0 in
  Unix.close a;
  (match Svc.Codec.read b with
  | Error `Closed -> ()
  | _ -> Alcotest.fail "EOF at a frame boundary must be `Closed");
  Unix.close b

(* --------------------------------------------------------- jobq *)

let test_jobq_concurrent () =
  let q = Svc.Jobq.create ~capacity:1024 in
  let mu = Mutex.create () in
  let got = ref [] in
  let consumers =
    List.init 3 (fun _ ->
        Thread.create
          (fun () ->
            let rec go () =
              match Svc.Jobq.pop q with
              | Some v ->
                Mutex.lock mu;
                got := v :: !got;
                Mutex.unlock mu;
                go ()
              | None -> ()
            in
            go ())
          ())
  in
  let producers =
    List.init 4 (fun p ->
        Thread.create
          (fun () ->
            for i = 0 to 99 do
              match Svc.Jobq.push q ((100 * p) + i) with
              | Ok () -> ()
              | Error _ -> Alcotest.fail "push rejected below capacity"
            done)
          ())
  in
  List.iter Thread.join producers;
  Svc.Jobq.close q;
  List.iter Thread.join consumers;
  let sorted = List.sort compare !got in
  check_int "every entry drained exactly once" 400 (List.length sorted);
  List.iteri (fun i v -> check_int "entry" i v) sorted

(* ----------------------------------------------- shard planner *)

let test_exec_shard_equivalence () =
  let est =
    Protocol.Toric_scan
      { ls = [ 4; 6 ]; ps = [ 0.05; 0.1 ]; trials = 400; seed = 3;
        engine = `Scalar; tile_width = 64 }
  in
  match Svc.Exec.plan est with
  | Whole -> Alcotest.fail "a toric scan must shard"
  | Sharded cells ->
    check_int "one cell per (l, p)" 4 (List.length cells);
    let totals = Array.make (List.length cells) 0 in
    List.iter
      (fun c ->
        (* split each cell at an uneven boundary: the second range's
           prefill must replay the first range's chunks exactly *)
        let n = Svc.Exec.nchunks c in
        let mid = max 1 (n / 3) in
        let parts =
          Svc.Exec.cell_counts est c ~lo:0 ~hi:mid
          @ Svc.Exec.cell_counts est c ~lo:mid ~hi:n
        in
        check_int "full chunk coverage" n (List.length parts);
        List.iteri (fun i (idx, _) -> check_int "chunk order" i idx) parts;
        totals.(c.Svc.Exec.c_index) <-
          List.fold_left (fun acc (_, f) -> acc + f) 0 parts)
      cells;
    let payload = Svc.Exec.assemble est ~totals in
    let direct = Svc.Exec.execute ~domains:2 est in
    check_str "assembled bytes match a direct run" (payload_bytes direct)
      (payload_bytes payload)

let test_exec_shard_css () =
  (* the css-memory estimator is fleet-shardable on the batch engine:
     chunked cell counts must reassemble to the direct run's bytes *)
  let est =
    Protocol.Css_memory
      { code = "steane7"; eps = 0.05; rounds = 2; trials = 500; seed = 11;
        engine = `Batch; tile_width = 128 }
  in
  match Svc.Exec.plan est with
  | Whole -> Alcotest.fail "css-memory must shard"
  | Sharded cells ->
    check_int "one cell" 1 (List.length cells);
    let c = List.hd cells in
    check_str "batch campaign engine" "batch" c.Svc.Exec.c_engine;
    let n = Svc.Exec.nchunks c in
    let mid = max 1 (n / 3) in
    let parts =
      Svc.Exec.cell_counts est c ~lo:0 ~hi:mid
      @ Svc.Exec.cell_counts est c ~lo:mid ~hi:n
    in
    check_int "full chunk coverage" n (List.length parts);
    let total = List.fold_left (fun acc (_, f) -> acc + f) 0 parts in
    let payload = Svc.Exec.assemble est ~totals:[| total |] in
    let direct = Svc.Exec.execute ~domains:2 est in
    check_str "assembled css bytes match a direct run" (payload_bytes direct)
      (payload_bytes payload)

(* ------------------------------------------- fleet, end to end *)

(* Worker processes are this test binary re-exec'd: test/main.ml
   calls [Svc.Fleet.run_if_worker] before Alcotest runs. *)

let test_fleet_byte_identity () =
  let est = toric_est ~trials:2000 ~seed:9 () in
  let direct = Svc.Exec.execute ~domains:2 est in
  let cfg =
    Svc.Fleet.config ~domains:1 ~hb_interval:0.05 ~restart_backoff:0.05
      ~chaos:
        [
          Chaos.kill_worker ~worker:1 ~nth:1 ();
          Chaos.drop_result ~worker:0 ~nth:0 ();
        ]
      ~size:2 ()
  in
  let fleet = Svc.Fleet.create cfg in
  Fun.protect
    ~finally:(fun () -> Svc.Fleet.shutdown fleet)
    (fun () ->
      let payload = Svc.Fleet.execute fleet est in
      check_str "bytes identical under kill + drop chaos"
        (payload_bytes direct) (payload_bytes payload);
      (* the kill's restart is counted before its backoff sleep, but
         give the supervisor a moment anyway *)
      let rec settle n =
        let s = Svc.Fleet.stats fleet in
        if s.Svc.Fleet.s_restarts >= 1 || n = 0 then s
        else begin
          Thread.delay 0.05;
          settle (n - 1)
        end
      in
      let s = settle 40 in
      check "the killed worker restarted" true (s.Svc.Fleet.s_restarts >= 1);
      check "lost shards were re-dispatched" true
        (s.Svc.Fleet.s_redispatched >= 2);
      check_int "the fleet is whole again" 2 s.Svc.Fleet.s_alive;
      check_int "registry row per slot" 2
        (List.length s.Svc.Fleet.s_workers))

(* An in-process daemon (as in test_svc) with a fleet and a rate
   limit at the front door. *)
let with_server ?fleet ?(limit = Svc.Qos.unlimited) ?(workers = 2)
    ?(max_queue = 8) f =
  Mc.Campaign.reset_stop ();
  let socket = fresh_socket_path () in
  let cfg =
    Svc.Server.config ~workers ~max_queue ~cache_capacity:8 ~domains:2
      ~progress_interval:0.05 ?fleet ~limit ~socket ()
  in
  let obs = Obs.create () in
  let th = Thread.create (fun () -> Svc.Server.run ~obs cfg) () in
  let rec wait n =
    if Sys.file_exists socket then ()
    else if n = 0 then Alcotest.fail "server did not start"
    else begin
      Thread.delay 0.02;
      wait (n - 1)
    end
  in
  wait 250;
  Fun.protect
    ~finally:(fun () ->
      Mc.Campaign.request_stop ();
      Thread.join th;
      Mc.Campaign.reset_stop ();
      check "socket file removed on shutdown" false (Sys.file_exists socket))
    (fun () -> f socket)

let test_server_fleet_status () =
  let est = toric_est ~trials:2000 ~seed:11 () in
  let direct = Svc.Exec.execute ~domains:2 est in
  let fleet =
    Svc.Fleet.config ~domains:1 ~hb_interval:0.05 ~restart_backoff:0.05
      ~chaos:[ Chaos.kill_worker ~worker:0 () ] ~size:2 ()
  in
  with_server ~fleet (fun socket ->
      match
        Svc.Client.with_connection ~socket (fun fd ->
            let r = Svc.Client.request fd est in
            (* the restart is counted before the lost shard can
               complete elsewhere, but poll a little to be safe *)
            let rec status n =
              match Svc.Client.status fd with
              | Error e -> Alcotest.fail e.Svc.Client.message
              | Ok j -> (
                match Protocol.frame_field j "fleet" with
                | None -> Alcotest.fail "status frame has no fleet section"
                | Some fl -> (
                  match Json.member "restarts" fl with
                  | Some (Json.Int r) when r >= 1 || n = 0 -> fl
                  | _ when n = 0 -> fl
                  | _ ->
                    Thread.delay 0.05;
                    status (n - 1)))
            in
            (r, status 40))
      with
      | Error msg -> Alcotest.fail msg
      | Ok (r, fl) ->
        (match r with
        | Error e -> Alcotest.fail e.Svc.Client.message
        | Ok o ->
          check_str "served fleet bytes match an in-process run"
            (payload_bytes direct)
            (payload_bytes o.Svc.Client.payload));
        let geti k =
          match Json.member k fl with Some (Json.Int i) -> i | _ -> -1
        in
        check_int "fleet size in status" 2 (geti "size");
        check_int "all workers alive" 2 (geti "alive");
        check "restart visible in status" true (geti "restarts" >= 1);
        check "re-dispatch visible in status" true
          (geti "redispatched" >= 1))

(* ------------------------------------------- golden service bytes *)

(* Golden service bytes, stored in golden/svc-frames.json: for each
   request below (every estimator kind, on the engines the daemon
   serves it with) its canonical string, which is the cache and
   coalescing key, that string's hash and the bytes of its result
   frame.  A direct run, an in-process daemon and a 2-worker fleet
   must each reproduce all three. *)

let golden_file = "golden/svc-frames.json"

let golden_cases : (string * Protocol.estimator) list =
  let rare = `Rare { Protocol.max_weight = 2; samples_per_class = 200 } in
  [ ( "steane_memory scalar",
      Steane_memory
        { level = 1; eps = 0.05; rounds = 1; trials = 200; seed = 41;
          engine = `Scalar; tile_width = 64 } );
    ( "steane_memory batch",
      Steane_memory
        { level = 2; eps = 0.05; rounds = 1; trials = 1000; seed = 42;
          engine = `Batch; tile_width = 64 } );
    ( "steane_memory rare",
      Steane_memory
        { level = 1; eps = 0.05; rounds = 1; trials = 200; seed = 43;
          engine = rare; tile_width = 64 } );
    ( "toric_memory scalar",
      Toric_memory
        { l = 4; p = 0.05; trials = 300; seed = 44; engine = `Scalar;
          tile_width = 64 } );
    ( "toric_memory batch",
      Toric_memory
        { l = 5; p = 0.05; trials = 1000; seed = 45; engine = `Batch;
          tile_width = 128 } );
    ( "toric_memory rare",
      Toric_memory
        { l = 3; p = 0.01; trials = 200; seed = 46; engine = rare;
          tile_width = 64 } );
    ( "toric_scan batch",
      Toric_scan
        { ls = [ 3; 5 ]; ps = [ 0.03; 0.08 ]; trials = 300; seed = 47;
          engine = `Batch; tile_width = 64 } );
    ( "toric_noisy batch",
      Toric_noisy
        { l = 3; rounds = 3; p = 0.02; q = 0.02; trials = 300; seed = 48;
          engine = `Batch; tile_width = 64 } );
    ( "toric_circuit scalar",
      Toric_circuit
        { l = 3; rounds = 2; eps = 0.03; trials = 40; seed = 49;
          engine = `Scalar } );
    ( "css_memory batch",
      Css_memory
        { code = "golay23"; eps = 0.05; rounds = 2; trials = 1000; seed = 50;
          engine = `Batch; tile_width = 128 } );
    ( "pseudothreshold",
      Pseudothreshold { eps_list = [ 0.02; 0.04 ]; trials = 30; seed = 51 } ) ]

(* name -> (canonical, hash, result frame) *)
let golden_frames () =
  match Json.read_file golden_file with
  | Error m -> Alcotest.failf "%s: %s" golden_file m
  | Ok json -> (
    match Json.member "frames" json with
    | Some (Json.Obj kvs) ->
      List.map
        (fun (name, v) ->
          let field k =
            match Option.bind (Json.member k v) Json.to_string_opt with
            | Some s -> s
            | None -> Alcotest.failf "%s: %s has no %s" golden_file name k
          in
          (name, (field "canonical", field "hash", field "result")))
        kvs
    | _ -> Alcotest.failf "%s: no frames object" golden_file)

(* [check_golden source result] — [result est] is [source]'s result
   frame bytes for [est] *)
let check_golden source result =
  let expected = golden_frames () in
  Alcotest.(check (list string))
    "golden keys" (List.map fst golden_cases) (List.map fst expected);
  List.iter
    (fun (name, est) ->
      let canonical, hash, frame = List.assoc name expected in
      check_str (name ^ " canonical form") canonical
        (Protocol.to_canonical (Run est));
      check_str (name ^ " cache key") hash (Protocol.hash (Run est));
      check_str
        (Printf.sprintf "%s result frame (%s)" name source)
        frame (result est))
    golden_cases

let test_golden_direct () =
  check_golden "direct" (fun est ->
      Svc.Codec.encode
        (Protocol.result_frame
           ~key:(Protocol.to_canonical (Run est))
           (Svc.Exec.execute ~domains:2 est)))

let served_result socket est = (Test_svc.request_ok socket est).raw_result

let test_golden_in_process () =
  with_server (fun socket ->
      check_golden "in-process daemon" (served_result socket))

let test_golden_fleet () =
  with_server ~fleet:(Svc.Fleet.config ~domains:1 ~size:2 ()) (fun socket ->
      check_golden "2-worker fleet" (served_result socket))

(* a fleet reply leaves when its job ends, as an in-process one does *)
let test_fleet_cold_replies_not_quantised () =
  with_server ~fleet:(Svc.Fleet.config ~domains:1 ~size:2 ()) (fun socket ->
      let m = Test_svc.cold_wall_median socket in
      check
        (Printf.sprintf "median cold fleet server wall %.4f s is under 10 ms" m)
        true (m < 0.010))

(* ------------------------------------------------ client retry *)

let test_rate_limit_and_retry () =
  with_server ~limit:(Svc.Qos.limit ~rate:0.001 ~burst:1.0) (fun socket ->
      let est seed = toric_est ~trials:50 ~seed () in
      (match
         Svc.Client.with_connection ~socket (fun fd ->
             Svc.Client.request fd (est 1))
       with
      | Ok (Ok _) -> ()
      | _ -> Alcotest.fail "first request must spend the burst token");
      (match
         Svc.Client.with_connection ~socket (fun fd ->
             Svc.Client.request fd (est 2))
       with
      | Ok (Error e) ->
        check_str "sheds as overloaded" "overloaded" e.Svc.Client.code;
        check "carries a retry-after hint" true
          (match e.Svc.Client.retry_after_s with
          | Some s -> s > 0.0
          | None -> false)
      | _ -> Alcotest.fail "second request must shed");
      (* bounded retry rides the hint, capped; then the error *)
      let sleeps = ref [] in
      (match
         Svc.Client.request_retrying ~retries:2 ~retry_cap:0.01
           ~sleep:(fun s -> sleeps := s :: !sleeps)
           ~socket (est 3)
       with
      | Error e ->
        check_str "still overloaded after retries" "overloaded"
          e.Svc.Client.code
      | Ok _ -> Alcotest.fail "retries cannot outlast a 1000 s refill");
      check_int "one sleep per retry" 2 (List.length !sleeps);
      List.iter (fun s -> check "sleep capped at retry_cap" true (s = 0.01))
        !sleeps;
      (* buckets are per tenant: another tenant passes immediately *)
      match
        Svc.Client.with_connection ~socket (fun fd ->
            Svc.Client.request ~tenant:"other" fd (est 4))
      with
      | Ok (Ok _) -> ()
      | _ -> Alcotest.fail "another tenant must not be throttled")

let test_retry_schedule_deterministic () =
  (* connect failures are retryable; the backoff schedule is a pure
     function of the request hash and attempt number *)
  let socket = fresh_socket_path () in
  let est = toric_est ~seed:5 () in
  let run () =
    let sleeps = ref [] in
    (match
       Svc.Client.request_retrying ~retries:3 ~backoff:0.5
         ~sleep:(fun s -> sleeps := s :: !sleeps)
         ~socket est
     with
    | Error e -> check_str "transport error" "transport" e.Svc.Client.code
    | Ok _ -> Alcotest.fail "connect to a missing socket cannot succeed");
    List.rev !sleeps
  in
  let s1 = run () in
  let s2 = run () in
  check "schedule is deterministic" true (s1 = s2);
  check_int "one sleep per retry" 3 (List.length s1);
  List.iteri
    (fun i s ->
      let base = 0.5 *. Float.of_int (1 lsl i) in
      check "exponential with jitter factor in [0.5, 1)" true
        (s >= 0.5 *. base && s < base))
    s1

(* -------------------------------------------- in-memory ledger *)

let test_campaign_in_memory () =
  let store = Mc.Campaign.in_memory () in
  let job =
    { Mc.Campaign.label = ""; engine = "scalar"; seed = 1; trials = 10;
      chunk = 2 }
  in
  check "empty" true (Mc.Campaign.find store ~job ~chunk:0 = None);
  Mc.Campaign.record store ~job ~chunk:0 ~failures:3;
  Mc.Campaign.record store ~job ~chunk:2 ~failures:1;
  check "finds recorded chunk" true
    (Mc.Campaign.find store ~job ~chunk:2 = Some 1);
  check "gap still missing" true
    (Mc.Campaign.find store ~job ~chunk:1 = None);
  check_int "completed chunks" 2 (Mc.Campaign.completed store ~job);
  check_str "no backing file" "" (Mc.Campaign.file store);
  (* flush is a no-op, not a crash *)
  Mc.Campaign.flush store

let suites =
  [
    ( "fleet",
      [
        Alcotest.test_case "chaos fleet spec roundtrip" `Quick
          test_chaos_fleet_specs;
        Alcotest.test_case "qos token bucket" `Quick test_qos_limiter;
        Alcotest.test_case "qos strict priority" `Quick test_qos_priority;
        Alcotest.test_case "qos drr fairness" `Quick test_qos_drr_fairness;
        Alcotest.test_case "qos overload and close drain" `Quick
          test_qos_overload_close;
        Alcotest.test_case "codec frame at the 16 MiB cap" `Quick
          test_codec_at_cap;
        Alcotest.test_case "codec frame over the cap" `Quick
          test_codec_over_cap;
        Alcotest.test_case "codec partial header vs clean close" `Quick
          test_codec_partial_vs_closed;
        Alcotest.test_case "jobq concurrent push, drain after close" `Quick
          test_jobq_concurrent;
        Alcotest.test_case "shard counts reassemble bit-identically" `Slow
          test_exec_shard_equivalence;
        Alcotest.test_case "css-memory shard reassembles bit-identically"
          `Slow test_exec_shard_css;
        Alcotest.test_case "campaign in-memory ledger" `Quick
          test_campaign_in_memory;
        Alcotest.test_case "fleet byte identity under chaos" `Slow
          test_fleet_byte_identity;
        Alcotest.test_case "served fleet result and status" `Slow
          test_server_fleet_status;
        Alcotest.test_case "cold fleet replies are not quantised" `Slow
          test_fleet_cold_replies_not_quantised;
        Alcotest.test_case "rate limit sheds, client retries" `Slow
          test_rate_limit_and_retry;
        Alcotest.test_case "retry schedule is deterministic" `Quick
          test_retry_schedule_deterministic;
      ] );
    ( "svc-golden",
      [
        Alcotest.test_case "direct execution" `Quick test_golden_direct;
        Alcotest.test_case "in-process daemon" `Quick test_golden_in_process;
        Alcotest.test_case "2-worker fleet" `Slow test_golden_fleet;
      ] );
  ]
