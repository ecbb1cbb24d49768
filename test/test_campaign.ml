(* The resilience layer: Mc.Campaign checkpoint store, Mc.Runner
   supervision (watchdog/retry/graceful stop) and the Mc.Chaos
   injection harness.  The load-bearing property is that recovery of
   any kind — resume from checkpoint, chunk retry after a kill or a
   stall, a second process picking up after SIGKILL — yields counts
   bit-identical to an uninterrupted run, at any domain count and on
   both engines; corrupted checkpoints must be rejected with a
   diagnostic, never quietly mis-resumed. *)

open Ftqc

let check msg expected actual = Alcotest.(check bool) msg expected actual
let check_int msg expected actual = Alcotest.(check int) msg expected actual

let tmp_file () = Filename.temp_file "ftqc_campaign" ".json"

(* a fresh checkpoint path that does not exist yet *)
let fresh_path () =
  let f = tmp_file () in
  Sys.remove f;
  f

let with_fresh_campaign ?flush_every f =
  let path = fresh_path () in
  let c =
    match Mc.Campaign.create ?flush_every path with
    | Ok c -> c
    | Error m -> failwith m
  in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () -> f path c)

(* The canonical workload: a Bernoulli(0.3) trial over the runner's
   stream discipline.  Any supervised/resumed run must reproduce the
   plain run's count exactly. *)
let trial rng _ = Random.State.float rng 1.0 < 0.3
let trials = 4000
let mc_chunk = 250 (* 16 chunks: chunk size pins the RNG ledger, so every
                      run below must share it with the reference *)
let seed = 99

let reference =
  lazy
    (Mc.Runner.failures ~domains:1 ~chunk:mc_chunk ~trials ~seed
       (Mc.Runner.scalar trial))

let batch _ctx keys ~base ~count:_ =
  (* deterministic per-word pattern derived from each lane's key *)
  Array.mapi
    (fun j key ->
      let w = ref 0L in
      for k = 0 to 63 do
        if Int64.rem (Mc.Rng.draw key (base + (64 * j) + k)) 5L = 0L then
          w := Int64.logor !w (Int64.shift_left 1L k)
      done;
      !w)
    keys

let batch_trials = 1000
let batch_model = Mc.Runner.model ~worker_init:(fun () -> ()) ~batch ()

let batch_reference =
  lazy
    (Mc.Runner.failures ~domains:1 ~engine:(Mc.Engine.batch ())
       ~trials:batch_trials ~seed batch_model)

(* --- checkpoint store basics ----------------------------------------- *)

let test_create_refuses_clobber () =
  let f = tmp_file () in
  (* file exists (empty): create must refuse *)
  (match Mc.Campaign.create f with
  | Error msg -> check "mentions resume" true
      (String.length msg > 0)
  | Ok _ -> Alcotest.fail "create over an existing file must error");
  Sys.remove f

let test_create_writes_resume_token_immediately () =
  with_fresh_campaign (fun path _c ->
      check "file exists before any record" true (Sys.file_exists path);
      match Obs.Json.read_file path with
      | Ok j -> check_int "empty checkpoint validates"
          0 (Result.get_ok (Mc.Campaign.validate j))
      | Error m -> Alcotest.fail m)

let test_record_find_roundtrip () =
  with_fresh_campaign ~flush_every:1 (fun path c ->
      let job =
        { Mc.Campaign.label = "t"; engine = "scalar"; seed = 1; trials = 100;
          chunk = 10 }
      in
      Mc.Campaign.record c ~job ~chunk:3 ~failures:7;
      Mc.Campaign.record c ~job ~chunk:0 ~failures:0;
      check "find recorded" true (Mc.Campaign.find c ~job ~chunk:3 = Some 7);
      check "find missing" true (Mc.Campaign.find c ~job ~chunk:4 = None);
      check_int "completed" 2 (Mc.Campaign.completed c ~job);
      (* reload from disk: flush_every:1 persisted both records *)
      match Mc.Campaign.load path with
      | Ok c' ->
        check "reloaded chunk 3" true
          (Mc.Campaign.find c' ~job ~chunk:3 = Some 7);
        check "reloaded chunk 0" true
          (Mc.Campaign.find c' ~job ~chunk:0 = Some 0)
      | Error m -> Alcotest.fail m)

let test_serialization_stable () =
  with_fresh_campaign (fun _ c ->
      let job =
        { Mc.Campaign.label = ""; engine = "batch"; seed = 5; trials = 640;
          chunk = 64 }
      in
      List.iter
        (fun (i, n) -> Mc.Campaign.record c ~job ~chunk:i ~failures:n)
        [ (7, 1); (2, 30); (9, 64) ];
      let a = Obs.Json.to_string (Mc.Campaign.to_json c) in
      (* same records in a different order must render identically *)
      with_fresh_campaign (fun _ c2 ->
          List.iter
            (fun (i, n) -> Mc.Campaign.record c2 ~job ~chunk:i ~failures:n)
            [ (9, 64); (7, 1); (2, 30) ];
          check "sorted render is order-independent" true
            (a = Obs.Json.to_string (Mc.Campaign.to_json c2))))

(* --- flushed bytes ---------------------------------------------------- *)

let read_bytes path = In_channel.with_open_bin path In_channel.input_all
let reference_bytes c = Obs.Json.to_string (Mc.Campaign.to_json c)

(* Flushes render incrementally; [to_json] renders the whole store.
   Random record sequences — labels that need JSON escapes, overwrites,
   out-of-order and gap-filling indices, reloads mid-run — must leave a
   file equal to the reference rendering after every flush. *)
let prop_jobs =
  List.map
    (fun (label, seed) ->
      { Mc.Campaign.label; engine = "batch"; seed; trials = 395; chunk = 10 })
    [ ("plain", 1); ("quote \" back\\slash\ttab\nline\001", 2); ("", 3) ]

type op =
  | Next of int  (** the job's next chunk in order *)
  | Skip of int  (** jump one chunk ahead, leaving a gap *)
  | Any of int * int  (** any chunk: overwrite, fill a gap, or run ahead *)
  | Flush
  | Reload  (** reopen the file as a resumed run does and carry on *)

let gen_scenario =
  QCheck.Gen.(
    let job = int_range 0 2 in
    let op =
      frequency
        [ (8, map (fun j -> Next j) job);
          (1, map (fun j -> Skip j) job);
          (3, map2 (fun j i -> Any (j, i)) job (int_bound 39));
          (1, return Flush);
          (1, return Reload) ]
    in
    pair (int_range 1 9) (list_size (int_range 1 80) op))

let show_op = function
  | Next j -> Printf.sprintf "next %d" j
  | Skip j -> Printf.sprintf "skip %d" j
  | Any (j, i) -> Printf.sprintf "any %d %d" j i
  | Flush -> "flush"
  | Reload -> "reload"

let prop_flush_bytes =
  QCheck.Test.make ~name:"every flush writes the to_json bytes" ~count:200
    (QCheck.make gen_scenario
       ~print:(fun (fe, ops) ->
         Printf.sprintf "flush_every %d: %s" fe
           (String.concat "; " (List.map show_op ops))))
    (fun (flush_every, ops) ->
      with_fresh_campaign ~flush_every (fun path c ->
          let c = ref c and dirty = ref 0 and ok = ref true and step = ref 0 in
          let cursor = Array.make (List.length prop_jobs) 0 in
          let flushed () = ok := !ok && read_bytes path = reference_bytes !c in
          let record j i =
            let job = List.nth prop_jobs j in
            let i = i mod 40 in
            let trials_here = min job.chunk (job.trials - (i * job.chunk)) in
            (* overwrites change the count, so a stale render shows *)
            Mc.Campaign.record !c ~job ~chunk:i
              ~failures:(!step mod (trials_here + 1));
            incr step;
            incr dirty;
            if !dirty = flush_every then begin
              dirty := 0;
              flushed ()
            end
          in
          List.iter
            (function
              | Next j ->
                record j cursor.(j);
                cursor.(j) <- cursor.(j) + 1
              | Skip j ->
                cursor.(j) <- cursor.(j) + 1;
                record j cursor.(j);
                cursor.(j) <- cursor.(j) + 1
              | Any (j, i) -> record j i
              | Flush ->
                Mc.Campaign.flush !c;
                dirty := 0;
                flushed ()
              | Reload ->
                c := Result.get_ok (Mc.Campaign.load ~flush_every path);
                dirty := 0;
                flushed ())
            ops;
          Mc.Campaign.flush !c;
          flushed ();
          !ok))

(* Golden bytes: the checkpoint of a fixed campaign, as rendered by the
   whole-document [to_json] writer.  Two jobs (widths 64 and 256, one
   label needing escapes), replayed at several domain counts and flush
   cadences, then flushed once more so the last flush holds every
   chunk.  The file must never change: resumable checkpoints depend on
   it. *)
let golden_file = "golden/checkpoint-batch.json"

let golden_campaign ~domains ~flush_every path =
  let c = Result.get_ok (Mc.Campaign.create ~flush_every path) in
  List.iter
    (fun (label, tile_width) ->
      Mc.Campaign.with_label label (fun () ->
          ignore
            (Mc.Runner.failures ~domains ~engine:(Mc.Engine.batch ~tile_width ())
               ~campaign:c ~trials:batch_trials ~seed batch_model)))
    [ ("golden", 64); ("golden \"w256\"\t\\", 256) ];
  Mc.Campaign.flush c

let test_golden_bytes () =
  let golden = read_bytes golden_file in
  List.iter
    (fun (domains, flush_every) ->
      let path = fresh_path () in
      Fun.protect
        ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
        (fun () ->
          golden_campaign ~domains ~flush_every path;
          Alcotest.(check string)
            (Printf.sprintf "domains %d, flush_every %d" domains flush_every)
            golden (read_bytes path)))
    [ (1, 8); (4, 1); (2, 3) ];
  (* a resumed store re-renders its loaded ledger to the same bytes *)
  let path = fresh_path () in
  Out_channel.with_open_bin path (fun oc -> output_string oc golden);
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () ->
      Mc.Campaign.flush (Result.get_ok (Mc.Campaign.load path));
      Alcotest.(check string) "load + flush" golden (read_bytes path))

(* --- corrupt / truncated checkpoints rejected ------------------------ *)

let expect_load_error what path =
  match Mc.Campaign.load path with
  | Error msg ->
    check (what ^ " yields a diagnostic") true (String.length msg > 0)
  | Ok _ -> Alcotest.fail (what ^ " must be rejected")

let write_string path s =
  let oc = open_out path in
  output_string oc s;
  close_out oc

let test_load_missing () = expect_load_error "missing file" (fresh_path ())

let test_load_truncated () =
  (* build a real checkpoint, then truncate it mid-document *)
  with_fresh_campaign ~flush_every:1 (fun path c ->
      let job =
        { Mc.Campaign.label = ""; engine = "scalar"; seed = 3; trials = 100;
          chunk = 10 }
      in
      for i = 0 to 9 do
        Mc.Campaign.record c ~job ~chunk:i ~failures:i
      done;
      let full = In_channel.with_open_bin path In_channel.input_all in
      write_string path (String.sub full 0 (String.length full / 2));
      expect_load_error "truncated checkpoint" path)

let test_load_garbage () =
  let path = tmp_file () in
  write_string path "{\"schema\": \"ftqc-checkpoint/1\", \"jobs\": []}garbage";
  expect_load_error "trailing garbage" path;
  write_string path "not json at all";
  expect_load_error "non-JSON" path;
  Sys.remove path

let test_load_wrong_schema () =
  let path = tmp_file () in
  write_string path "{\"schema\": \"ftqc-manifest/1\", \"jobs\": []}";
  expect_load_error "manifest schema in checkpoint slot" path;
  write_string path "{\"schema\": \"ftqc-checkpoint/99\", \"jobs\": []}";
  expect_load_error "future checkpoint version" path;
  Sys.remove path

let test_validate_ranges () =
  let bad body what =
    match Obs.Json.of_string body with
    | Error _ -> Alcotest.fail ("test document must parse: " ^ what)
    | Ok j -> (
      match Mc.Campaign.validate j with
      | Error _ -> ()
      | Ok _ -> Alcotest.fail (what ^ " must be invalid"))
  in
  let doc chunks =
    Printf.sprintf
      "{\"schema\": \"ftqc-checkpoint/1\", \"jobs\": [{\"engine\": \
       \"scalar\", \"seed\": 1, \"trials\": 100, \"chunk\": 10, \"chunks\": \
       %s}]}"
      chunks
  in
  bad (doc "[[10, 0]]") "chunk index beyond nchunks";
  bad (doc "[[-1, 0]]") "negative chunk index";
  bad (doc "[[0, 11]]") "count above chunk trials";
  bad (doc "[[0, -1]]") "negative count";
  bad (doc "[[0, 1], [0, 1]]") "duplicate chunk index";
  (* and a good one for contrast *)
  match Obs.Json.of_string (doc "[[0, 10], [9, 3]]") with
  | Ok j -> check_int "valid doc has 1 job" 1
      (Result.get_ok (Mc.Campaign.validate j))
  | Error m -> Alcotest.fail m

(* --- interrupt + resume is bit-identical ----------------------------- *)

(* Stop the campaign at a deterministic chunk via a chaos hook, then
   resume with a second runner call; the total must equal the
   uninterrupted reference — for every engine x domain-count combo
   the acceptance criteria name. *)
let interrupt_resume_scalar ~domains () =
  let expected = Lazy.force reference in
  with_fresh_campaign ~flush_every:1 (fun path c ->
      Mc.Campaign.reset_stop ();
      (match
         Mc.Runner.failures ~domains ~chunk:mc_chunk ~campaign:c ~trials ~seed
           ~chaos:(Mc.Chaos.at_chunk ~chunk:2 Mc.Campaign.request_stop)
           (Mc.Runner.scalar trial)
       with
      | _ ->
        (* fast runs can finish before the flag lands; then there is
           nothing to resume, which is fine *)
        ()
      | exception Mc.Campaign.Interrupted { checkpoint; _ } ->
        check "interrupt carries resume token" true (checkpoint = Some path));
      Mc.Campaign.reset_stop ();
      (* resume from the file a fresh process would load *)
      let c' = Result.get_ok (Mc.Campaign.load path) in
      let resumed =
        Mc.Runner.failures ~domains ~chunk:mc_chunk ~campaign:c' ~trials ~seed
          (Mc.Runner.scalar trial)
      in
      check_int
        (Printf.sprintf "kill+resume = reference (scalar, domains %d)" domains)
        expected resumed)

let interrupt_resume_batch ?tile_width ~domains () =
  let expected = Lazy.force batch_reference in
  with_fresh_campaign ~flush_every:1 (fun path c ->
      Mc.Campaign.reset_stop ();
      let engine = Mc.Engine.batch ?tile_width () in
      (match
         Mc.Runner.failures ~domains ~engine ~campaign:c ~trials:batch_trials
           ~seed
           ~chaos:(Mc.Chaos.at_chunk ~chunk:3 Mc.Campaign.request_stop)
           batch_model
       with
      | _ -> ()
      | exception Mc.Campaign.Interrupted _ -> ());
      Mc.Campaign.reset_stop ();
      let c' = Result.get_ok (Mc.Campaign.load path) in
      let resumed =
        Mc.Runner.failures ~domains ~engine ~campaign:c' ~trials:batch_trials
          ~seed batch_model
      in
      check_int
        (Printf.sprintf "kill+resume = reference (batch, domains %d)" domains)
        expected resumed)

(* wider tiles are a pure scheduling change: lane j of tile c runs the
   stream of width-64 chunk c·lanes+j, so the count cannot move — at
   any width, any domain count, including ragged tails (1000 trials is
   not a multiple of 256 or 512) *)
let test_tile_width_invariant () =
  let expected = Lazy.force batch_reference in
  List.iter
    (fun tile_width ->
      let n =
        Mc.Runner.failures ~domains:1 ~engine:(Mc.Engine.batch ~tile_width ())
          ~trials:batch_trials ~seed batch_model
      in
      check_int
        (Printf.sprintf "tile width %d = width 64 count" tile_width)
        expected n)
    [ 128; 256; 512 ];
  let n =
    Mc.Runner.failures ~domains:4 ~engine:(Mc.Engine.batch ~tile_width:256 ())
      ~trials:batch_trials ~seed batch_model
  in
  check_int "tile width 256 across 4 domains" expected n

(* completing a checkpointed run and replaying it entirely from cache
   must also agree (no trial executes the second time) *)
let test_full_replay () =
  let expected = Lazy.force reference in
  with_fresh_campaign ~flush_every:1 (fun _ c ->
      let first =
        Mc.Runner.failures ~domains:2 ~chunk:mc_chunk ~campaign:c ~trials ~seed
          (Mc.Runner.scalar trial)
      in
      check_int "checkpointed run = reference" expected first;
      let executed = ref 0 in
      let replay =
        Mc.Runner.failures ~domains:1 ~chunk:mc_chunk ~campaign:c ~trials ~seed
          (Mc.Runner.scalar (fun rng i ->
               incr executed;
               trial rng i))
      in
      check_int "full replay = reference" expected replay;
      check_int "replay executes no trials" 0 !executed)

(* --- SIGKILL mid-write: the file on disk always parses --------------- *)

(* [Unix.fork] is illegal once domains exist (and earlier tests spawn
   them), so the child is this very test binary re-executed with
   [child_env] set: the top-level hook below runs the checkpointing
   workload and exits before Alcotest ever starts.
   [Unix.create_process] is posix_spawn-based and domain-safe. *)
let child_env = "FTQC_CAMPAIGN_CHILD"
let child_trials = 2_000_000
let child_chunk = 2000

let child_workload path =
  match Mc.Campaign.create ~flush_every:1 path with
  | Error _ -> exit 3
  | Ok c ->
    ignore
      (Mc.Runner.failures ~domains:1 ~chunk:child_chunk ~campaign:c
         ~trials:child_trials ~seed (Mc.Runner.scalar trial));
    exit 0

let () =
  match Sys.getenv_opt child_env with
  | Some path when path <> "" -> child_workload path
  | _ -> ()

let test_sigkill_checkpoint_always_parseable () =
  let path = fresh_path () in
  Unix.putenv child_env path;
  let pid =
    Fun.protect
      ~finally:(fun () -> Unix.putenv child_env "")
      (fun () ->
        Unix.create_process Sys.executable_name
          [| Sys.executable_name |]
          Unix.stdin Unix.stdout Unix.stderr)
  in
  (* let some flushes happen, then SIGKILL — no graceful handler runs
     in the child *)
  Unix.sleepf 0.3;
  (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
  ignore (Unix.waitpid [] pid);
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () ->
      (* whatever instant the kill landed, the atomic write discipline
         means the file is a complete document *)
      (match Obs.Json.read_file path with
      | Ok j ->
        check "killed checkpoint validates" true
          (Result.is_ok (Mc.Campaign.validate j))
      | Error m -> Alcotest.fail ("checkpoint corrupt after SIGKILL: " ^ m));
      (* and resuming it reproduces the reference *)
      let c = Result.get_ok (Mc.Campaign.load path) in
      let resumed =
        Mc.Runner.failures ~domains:2 ~chunk:child_chunk ~campaign:c
          ~trials:child_trials ~seed (Mc.Runner.scalar trial)
      in
      let expected =
        Mc.Runner.failures ~domains:1 ~chunk:child_chunk ~trials:child_trials
          ~seed (Mc.Runner.scalar trial)
      in
      check_int "resume after SIGKILL = reference" expected resumed)

(* --- chaos: worker death, stall, trial exception --------------------- *)

let test_chaos_kill_retried () =
  let obs = Obs.create () in
  let n =
    Mc.Runner.failures ~domains:2 ~chunk:mc_chunk ~obs ~trials ~seed
      ~backoff:0.0
      ~chaos:(Mc.Chaos.kill_chunk ~chunk:1 ())
      (Mc.Runner.scalar trial)
  in
  check_int "count survives a killed worker" (Lazy.force reference) n;
  check "retry counted" true (Obs.counter obs "mc.chunk_retries" >= 1)

let test_chaos_trial_exception_retried () =
  let n =
    Mc.Runner.failures ~domains:1 ~chunk:mc_chunk ~trials ~seed ~backoff:0.0
      ~chaos:(Mc.Chaos.fail_trial ~chunk:2 ~trial:((2 * mc_chunk) + 1) ())
      (Mc.Runner.scalar trial)
  in
  check_int "count survives a throwing trial" (Lazy.force reference) n

let test_chaos_stall_times_out_and_retries () =
  let obs = Obs.create () in
  let n =
    Mc.Runner.failures ~domains:2 ~chunk:mc_chunk ~obs ~trials ~seed
      ~chunk_timeout:0.05 ~backoff:0.0
      ~chaos:(Mc.Chaos.stall_chunk ~chunk:1 ~seconds:0.2 ())
      (Mc.Runner.scalar trial)
  in
  check_int "count survives a stalled chunk" (Lazy.force reference) n;
  check "timeout counted" true (Obs.counter obs "mc.chunk_timeouts" >= 1)

let test_chaos_permanent_failure_is_clean () =
  with_fresh_campaign ~flush_every:1 (fun path c ->
      (match
         Mc.Runner.failures ~domains:1 ~chunk:mc_chunk ~campaign:c ~trials
           ~seed ~retries:1 ~backoff:0.0
           ~chaos:(Mc.Chaos.kill_chunk ~once:false ~chunk:2 ())
           (Mc.Runner.scalar trial)
       with
      | _ -> Alcotest.fail "permanently failing chunk must raise"
      | exception Mc.Runner.Chunk_failed { chunk; attempts; _ } ->
        check_int "failing chunk identified" 2 chunk;
        check_int "both attempts used" 2 attempts);
      (* chunks completed before the failure were flushed: the file
         is a valid checkpoint with progress in it *)
      match Mc.Campaign.load path with
      | Ok c' ->
        let job =
          { Mc.Campaign.label = ""; engine = "scalar"; seed; trials;
            chunk = mc_chunk }
        in
        check "progress survived the failure" true
          (Mc.Campaign.completed c' ~job > 0)
      | Error m -> Alcotest.fail m)

let test_chaos_batch_kill_retried () =
  let n =
    Mc.Runner.failures ~domains:2 ~engine:(Mc.Engine.batch ())
      ~trials:batch_trials ~seed ~backoff:0.0
      ~chaos:(Mc.Chaos.kill_chunk ~chunk:1 ())
      batch_model
  in
  check_int "batch count survives a killed worker" (Lazy.force batch_reference)
    n

(* --- early stopping under resume ------------------------------------- *)

let es_trial rng _ = Random.State.float rng 1.0 < 0.2

let test_early_stop_resume_invariant () =
  let run ?campaign () =
    Mc.Runner.estimate ?campaign ~domains:1 ~chunk:100 ~trials:20000
      ~target_half_width:0.02 ~min_trials:500 ~seed:7
      (Mc.Runner.scalar es_trial)
  in
  let expected = run () in
  with_fresh_campaign ~flush_every:1 (fun path c ->
      Mc.Campaign.reset_stop ();
      (match
         Mc.Runner.estimate ~campaign:c ~domains:1 ~chunk:100 ~trials:20000
           ~target_half_width:0.02 ~min_trials:500 ~seed:7
           ~chaos:(Mc.Chaos.at_chunk ~chunk:3 Mc.Campaign.request_stop)
           (Mc.Runner.scalar es_trial)
       with
      | _ -> ()
      | exception Mc.Campaign.Interrupted _ -> ());
      Mc.Campaign.reset_stop ();
      let c' = Result.get_ok (Mc.Campaign.load path) in
      let resumed = run ~campaign:c' () in
      check "early-stopped resume = uninterrupted estimate" true
        (resumed = expected))

(* the same estimate through the batch engine honors the store too *)
let test_estimate_batched_checkpointed () =
  let run ?campaign () =
    Mc.Runner.estimate ?campaign ~domains:1 ~engine:(Mc.Engine.batch ())
      ~trials:batch_trials ~seed batch_model
  in
  let expected = run () in
  with_fresh_campaign ~flush_every:1 (fun _ c ->
      let first = run ~campaign:c () in
      check "checkpointed batched estimate = reference" true (first = expected);
      let replay = run ~campaign:c () in
      check "replayed batched estimate = reference" true (replay = expected))

let suites =
  [ ( "campaign-store",
      [ Alcotest.test_case "create refuses clobber" `Quick
          test_create_refuses_clobber;
        Alcotest.test_case "resume token from t=0" `Quick
          test_create_writes_resume_token_immediately;
        Alcotest.test_case "record/find round-trip" `Quick
          test_record_find_roundtrip;
        Alcotest.test_case "stable serialization" `Quick
          test_serialization_stable;
        Alcotest.test_case "missing file rejected" `Quick test_load_missing;
        Alcotest.test_case "truncated file rejected" `Quick
          test_load_truncated;
        Alcotest.test_case "garbage rejected" `Quick test_load_garbage;
        Alcotest.test_case "wrong schema rejected" `Quick
          test_load_wrong_schema;
        Alcotest.test_case "range validation" `Quick test_validate_ranges;
        Alcotest.test_case "golden checkpoint bytes" `Quick test_golden_bytes;
        QCheck_alcotest.to_alcotest prop_flush_bytes ] );
    ( "campaign-resume",
      [ Alcotest.test_case "scalar interrupt+resume, domains 1" `Quick
          (interrupt_resume_scalar ~domains:1);
        Alcotest.test_case "scalar interrupt+resume, domains 4" `Quick
          (interrupt_resume_scalar ~domains:4);
        Alcotest.test_case "batch interrupt+resume, domains 1" `Quick
          (interrupt_resume_batch ~domains:1);
        Alcotest.test_case "batch interrupt+resume, domains 4" `Quick
          (interrupt_resume_batch ~domains:4);
        Alcotest.test_case "batch interrupt+resume, tile width 256" `Quick
          (interrupt_resume_batch ~tile_width:256 ~domains:2);
        Alcotest.test_case "tile width invariance" `Quick
          test_tile_width_invariant;
        Alcotest.test_case "full replay executes nothing" `Quick
          test_full_replay;
        Alcotest.test_case "SIGKILL leaves parseable checkpoint" `Quick
          test_sigkill_checkpoint_always_parseable;
        Alcotest.test_case "early-stop resume invariant" `Quick
          test_early_stop_resume_invariant;
        Alcotest.test_case "batched estimate checkpointed" `Quick
          test_estimate_batched_checkpointed ] );
    ( "campaign-chaos",
      [ Alcotest.test_case "killed worker retried" `Quick
          test_chaos_kill_retried;
        Alcotest.test_case "throwing trial retried" `Quick
          test_chaos_trial_exception_retried;
        Alcotest.test_case "stalled chunk times out + retries" `Quick
          test_chaos_stall_times_out_and_retries;
        Alcotest.test_case "permanent failure is clean" `Quick
          test_chaos_permanent_failure_is_clean;
        Alcotest.test_case "batch killed worker retried" `Quick
          test_chaos_batch_kill_retried ] ) ]
