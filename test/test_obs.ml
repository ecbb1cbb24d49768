(* Telemetry subsystem: Obs.Json round-trips, Obs.Metrics merge laws
   (associativity of histogram merge in particular), the no-op-handle
   contract (instrumented runs give bit-identical counts with
   telemetry on or off), and Obs.Manifest validation. *)

open Ftqc

let check msg expected actual = Alcotest.(check bool) msg expected actual

(* --- Obs.Json ---------------------------------------------------------- *)

let sample : Obs.Json.t =
  Obs.Json.(
    Obj
      [ ("schema", String "x/1");
        ("n", Int 42);
        ("rate", Float 0.125);
        ("ok", Bool true);
        ("none", Null);
        ("xs", List [ Int 1; Int 2; Int 3 ]);
        ("msg", String "a \"quoted\" line\nand a tab\t.") ])

let test_json_roundtrip () =
  match Obs.Json.of_string (Obs.Json.to_string sample) with
  | Error e -> Alcotest.failf "reparse failed: %s" e
  | Ok j ->
    check "round-trips structurally" true (j = sample);
    check "member" true (Obs.Json.member "n" j = Some (Obs.Json.Int 42));
    check "absent member" true (Obs.Json.member "zzz" j = None);
    check "int as float" true
      (Obs.Json.(member "n" j |> Option.get |> to_float_opt) = Some 42.0)

let test_json_nonfinite_encodes_null () =
  check "nan -> null" true
    (String.trim (Obs.Json.to_string (Obs.Json.Float Float.nan)) = "null");
  check "inf -> null" true
    (String.trim (Obs.Json.to_string (Obs.Json.Float Float.infinity)) = "null")

let test_json_parse_errors () =
  let bad s =
    match Obs.Json.of_string s with Error _ -> true | Ok _ -> false
  in
  check "empty" true (bad "");
  check "truncated object" true (bad "{\"a\": 1");
  check "trailing garbage" true (bad "{} {}");
  check "bare word" true (bad "nope");
  check "unterminated string" true (bad "\"abc")

let test_json_numbers () =
  check "plain int parses as Int" true
    (Obs.Json.of_string "17" = Ok (Obs.Json.Int 17));
  check "decimal parses as Float" true
    (Obs.Json.of_string "0.5" = Ok (Obs.Json.Float 0.5));
  check "exponent parses as Float" true
    (Obs.Json.of_string "1e3" = Ok (Obs.Json.Float 1000.0));
  check "negative int" true
    (Obs.Json.of_string "-4" = Ok (Obs.Json.Int (-4)))

(* --- Obs.Metrics ------------------------------------------------------- *)

let test_metrics_basics () =
  let m = Obs.Metrics.create () in
  Obs.Metrics.incr m "c";
  Obs.Metrics.add m "c" 4;
  Alcotest.(check int) "counter" 5 (Obs.Metrics.counter m "c");
  Alcotest.(check int) "untouched counter" 0 (Obs.Metrics.counter m "zzz");
  Obs.Metrics.set_gauge m "g" 1.0;
  Obs.Metrics.set_gauge m "g" 2.5;
  check "gauge keeps last write" true (Obs.Metrics.gauge m "g" = Some 2.5);
  Obs.Metrics.observe m "t" 3.0;
  Obs.Metrics.observe m "t" 1.0;
  check "summary (count,total,min,max)" true
    (Obs.Metrics.summary m "t" = Some (2, 4.0, 1.0, 3.0))

let test_metrics_histogram_buckets () =
  let m = Obs.Metrics.create () in
  let bounds = [| 1.0; 10.0; 100.0 |] in
  List.iter
    (Obs.Metrics.observe_histogram ~bounds m "h")
    [ 0.5; 1.0; 5.0; 50.0; 1e6 ];
  match Obs.Metrics.histogram m "h" with
  | None -> Alcotest.fail "histogram missing"
  | Some (b, counts) ->
    check "bounds preserved" true (b = bounds);
    (* <=1, <=10, <=100, overflow *)
    check "bucket placement" true (counts = [| 2; 1; 1; 1 |])

let fill seed m =
  (* a deterministic little workload touching every series kind *)
  let st = Random.State.make [| seed |] in
  for _ = 1 to 50 do
    Obs.Metrics.incr m "events";
    Obs.Metrics.add m "bytes" (Random.State.int st 100);
    Obs.Metrics.observe m "dt" (Random.State.float st 2.0);
    Obs.Metrics.observe_histogram ~bounds:[| 0.5; 1.0 |] m "dt"
      (Random.State.float st 2.0)
  done;
  Obs.Metrics.set_gauge m "last" (float_of_int seed);
  m

let test_metrics_merge_associative () =
  let h () = (fill 1 (Obs.Metrics.create ()),
              fill 2 (Obs.Metrics.create ()),
              fill 3 (Obs.Metrics.create ())) in
  let a, b, c = h () in
  let left = Obs.Metrics.(merge (merge a b) c) in
  let a, b, c = h () in
  let right = Obs.Metrics.(merge a (merge b c)) in
  check "(a+b)+c = a+(b+c) (serialized)" true
    (Obs.Json.to_string (Obs.Metrics.to_json left)
    = Obs.Json.to_string (Obs.Metrics.to_json right))

let test_metrics_merge_counts_commute () =
  let a = fill 4 (Obs.Metrics.create ())
  and b = fill 5 (Obs.Metrics.create ()) in
  let ab = Obs.Metrics.merge a b and ba = Obs.Metrics.merge b a in
  Alcotest.(check int) "counters commute"
    (Obs.Metrics.counter ab "events")
    (Obs.Metrics.counter ba "events");
  Alcotest.(check int) "added counters commute"
    (Obs.Metrics.counter ab "bytes")
    (Obs.Metrics.counter ba "bytes");
  let count m = match Obs.Metrics.summary m "dt" with
    | Some (n, _, _, _) -> n
    | None -> 0
  in
  Alcotest.(check int) "observation counts commute" (count ab) (count ba);
  let buckets m = match Obs.Metrics.histogram m "dt" with
    | Some (_, counts) -> Array.to_list counts
    | None -> []
  in
  Alcotest.(check (list int)) "histogram buckets commute"
    (buckets ab) (buckets ba)

let test_metrics_histogram_merge_bounds_mismatch () =
  let a = Obs.Metrics.create () and b = Obs.Metrics.create () in
  Obs.Metrics.observe_histogram ~bounds:[| 1.0 |] a "h" 0.5;
  Obs.Metrics.observe_histogram ~bounds:[| 2.0 |] b "h" 0.5;
  check "incompatible bounds rejected" true
    (match Obs.Metrics.merge a b with
    | exception Invalid_argument _ -> true
    | _ -> false)

(* --- Obs handle -------------------------------------------------------- *)

let test_obs_none_is_noop () =
  let o = Obs.none in
  check "disabled" false (Obs.enabled o);
  Obs.incr o "c";
  Obs.observe o "t" 1.0;
  Obs.event o "e" [];
  Alcotest.(check int) "counter stays 0" 0 (Obs.counter o "c");
  check "no summary" true (Obs.summary o "t" = None);
  check "json is Null" true (Obs.to_json o = Obs.Json.Null)

let test_obs_live_records () =
  let o = Obs.create () in
  check "enabled" true (Obs.enabled o);
  Obs.incr o "c";
  Obs.add o "c" 2;
  Obs.event o "boot" [ ("k", Obs.Json.Int 1) ];
  Alcotest.(check int) "counter" 3 (Obs.counter o "c");
  match Obs.events_json o with
  | Obs.Json.List [ e ] ->
    check "event name" true
      (Obs.Json.member "event" e = Some (Obs.Json.String "boot"));
    check "event field" true
      (Obs.Json.member "k" e = Some (Obs.Json.Int 1))
  | _ -> Alcotest.fail "expected a one-event log"

let bernoulli p rng _ = Random.State.float rng 1.0 < p

let test_obs_does_not_perturb_counts () =
  (* the whole point of the no-op default: identical failure counts
     with telemetry off, on, and on-across-domains *)
  let plain = Mc.Runner.failures ~domains:1 ~trials:4000 ~seed:8 (Mc.Runner.scalar (bernoulli 0.3)) in
  let o = Obs.create () in
  let observed =
    Mc.Runner.failures ~domains:1 ~obs:o ~trials:4000 ~seed:8 (Mc.Runner.scalar (bernoulli 0.3))
  in
  Alcotest.(check int) "obs on = obs off" plain observed;
  let o4 = Obs.create () in
  let par =
    Mc.Runner.failures ~domains:4 ~obs:o4 ~trials:4000 ~seed:8 (Mc.Runner.scalar (bernoulli 0.3))
  in
  Alcotest.(check int) "obs on, 4 domains = obs off" plain par;
  let e =
    Mc.Runner.estimate ~domains:3 ~obs:(Obs.create ()) ~trials:4000 ~seed:8
      (Mc.Runner.scalar (bernoulli 0.3))
  in
  Alcotest.(check int) "estimate under obs agrees" plain e.Mc.Stats.failures

let test_obs_runner_populates_metrics () =
  let o = Obs.create () in
  let trials = 3000 in
  ignore (Mc.Runner.failures ~domains:2 ~obs:o ~trials ~seed:5 (Mc.Runner.scalar (bernoulli 0.5)));
  Alcotest.(check int) "one run recorded" 1 (Obs.counter o "mc.runs");
  Alcotest.(check int) "all trials recorded" trials (Obs.counter o "mc.trials");
  check "chunks recorded" true (Obs.counter o "mc.chunks" > 0);
  check "chunk wall times observed" true
    (match Obs.summary o "mc.chunk_wall_s" with
    | Some (n, total, mn, mx) -> n > 0 && total >= 0.0 && mn <= mx
    | None -> false);
  check "throughput gauge set" true
    (match Obs.gauge o "mc.shots_per_s" with
    | Some v -> v > 0.0
    | None -> false);
  check "mc.run event logged" true
    (match Obs.events_json o with
    | Obs.Json.List evs ->
      List.exists
        (fun e -> Obs.Json.member "event" e = Some (Obs.Json.String "mc.run"))
        evs
    | _ -> false)

let test_progress_disabled_by_default () =
  (* the suite runs without FTQC_PROGRESS set, so the reporter stays
     off; stepping a [None] reporter is a no-op *)
  if not (Obs.Progress.enabled ()) then begin
    check "create yields None" true
      (Obs.Progress.create ~label:"t" ~total:10 = None);
    Obs.Progress.step None;
    Obs.Progress.finish None
  end;
  check "zero total never reports" true
    (Obs.Progress.create ~label:"t" ~total:0 = None)

let test_progress_format_line () =
  let line = Obs.Progress.format_line in
  (* half done in 10 s: same pace gives 10 more seconds *)
  Alcotest.(check string)
    "midpoint" "[ftqc] e3: 5/10 chunks (50%) elapsed 10.0s eta 10.0s"
    (line ~label:"e3" ~done_:5 ~total:10 ~elapsed:10.0);
  (* nothing done yet: no pace to extrapolate, ETA reads 0.0 *)
  Alcotest.(check string)
    "zero done" "[ftqc] e3: 0/10 chunks (0%) elapsed 1.0s eta 0.0s"
    (line ~label:"e3" ~done_:0 ~total:10 ~elapsed:1.0);
  (* finished: 100%, eta 0 *)
  Alcotest.(check string)
    "finished" "[ftqc] e3: 10/10 chunks (100%) elapsed 4.2s eta 0.0s"
    (line ~label:"e3" ~done_:10 ~total:10 ~elapsed:4.2);
  (* single chunk is both 0% and then 100% — no intermediate states *)
  Alcotest.(check string)
    "single chunk" "[ftqc] x: 1/1 chunks (100%) elapsed 0.5s eta 0.0s"
    (line ~label:"x" ~done_:1 ~total:1 ~elapsed:0.5);
  (* degenerate totals must not divide by zero *)
  Alcotest.(check string)
    "zero total" "[ftqc] x: 0/0 chunks (100%) elapsed 0.0s eta 0.0s"
    (line ~label:"x" ~done_:0 ~total:0 ~elapsed:0.0);
  (* uneven pace: 3 chunks in 2 s -> 7 remaining at 2/3 s each *)
  Alcotest.(check string)
    "extrapolated eta" "[ftqc] e: 3/10 chunks (30%) elapsed 2.0s eta 4.7s"
    (line ~label:"e" ~done_:3 ~total:10 ~elapsed:2.0)

let test_progress_env_gate () =
  let prev = Sys.getenv_opt Obs.Progress.env_var in
  let restore () =
    Unix.putenv Obs.Progress.env_var (Option.value ~default:"" prev)
  in
  Fun.protect ~finally:restore (fun () ->
      List.iter
        (fun v ->
          Unix.putenv Obs.Progress.env_var v;
          check
            (Printf.sprintf "FTQC_PROGRESS=%S disables" v)
            false
            (Obs.Progress.enabled ()))
        [ ""; "0"; "false"; "no" ];
      Unix.putenv Obs.Progress.env_var "1";
      check "FTQC_PROGRESS=1 enables" true (Obs.Progress.enabled ());
      check "enabled create yields a reporter" true
        (let p = Obs.Progress.create ~label:"t" ~total:3 in
         Obs.Progress.abandon p;
         p <> None);
      Unix.putenv Obs.Progress.env_var "0.5";
      check "numeric value enables too" true (Obs.Progress.enabled ()))

let test_progress_never_writes_stdout () =
  (* progress is a stderr facility: capture stdout around a full
     enabled create/step/finish cycle and require it byte-empty *)
  let prev = Sys.getenv_opt Obs.Progress.env_var in
  let restore () =
    Unix.putenv Obs.Progress.env_var (Option.value ~default:"" prev)
  in
  Fun.protect ~finally:restore (fun () ->
      Unix.putenv Obs.Progress.env_var "1";
      let file = Filename.temp_file "ftqc_stdout" ".txt" in
      let fd = Unix.openfile file [ Unix.O_WRONLY; Unix.O_TRUNC ] 0o600 in
      let saved = Unix.dup Unix.stdout in
      flush stdout;
      Unix.dup2 fd Unix.stdout;
      Fun.protect
        ~finally:(fun () ->
          flush stdout;
          Unix.dup2 saved Unix.stdout;
          Unix.close saved;
          Unix.close fd;
          try Sys.remove file with Sys_error _ -> ())
        (fun () ->
          let p = Obs.Progress.create ~label:"cap" ~total:4 in
          check "reporter live" true (p <> None);
          for _ = 1 to 4 do
            Obs.Progress.step p
          done;
          Obs.Progress.finish p;
          flush stdout;
          let ic = open_in_bin file in
          let len = in_channel_length ic in
          close_in ic;
          Alcotest.(check int) "stdout untouched" 0 len))

(* --- Obs.Json atomic writes -------------------------------------------- *)

let test_write_atomic_roundtrip () =
  let file = Filename.temp_file "ftqc_atomic" ".json" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove file with Sys_error _ -> ())
    (fun () ->
      Obs.Json.write_atomic ~file sample;
      check "read back" true (Obs.Json.read_file file = Ok sample);
      (* overwrite in place — and no temp droppings left behind *)
      Obs.Json.write_atomic ~fsync:true ~file (Obs.Json.Int 1);
      check "overwrite read back" true
        (Obs.Json.read_file file = Ok (Obs.Json.Int 1));
      (* a writer that dies halfway leaves the previous file in place *)
      (match
         Obs.Json.write_atomic_with ~file (fun oc ->
             output_string oc "{\"half\": ";
             failwith "writer died")
       with
      | () -> Alcotest.fail "a raising writer must raise"
      | exception Failure _ -> ());
      check "failed write left the old file" true
        (Obs.Json.read_file file = Ok (Obs.Json.Int 1));
      let dir = Filename.dirname file and base = Filename.basename file in
      let leftovers =
        Sys.readdir dir |> Array.to_list
        |> List.filter (fun f ->
               String.length f > String.length base
               && String.sub f 0 (String.length base) = base)
      in
      check "no temp files left" true (leftovers = []))

let test_read_file_rejects_corruption () =
  let bad what content =
    let file = Filename.temp_file "ftqc_corrupt" ".json" in
    Fun.protect
      ~finally:(fun () -> try Sys.remove file with Sys_error _ -> ())
      (fun () ->
        let oc = open_out_bin file in
        output_string oc content;
        close_out oc;
        match Obs.Json.read_file file with
        | Error msg ->
          check (what ^ " error names the file") true
            (String.length msg > 0
            && String.sub msg 0 (String.length file) = file)
        | Ok _ -> Alcotest.fail (what ^ " must be rejected"))
  in
  bad "truncated document" "{\"a\": [1, 2";
  bad "trailing bytes" "{}{}";
  bad "binary garbage" "\x00\x01\x02";
  match Obs.Json.read_file "/nonexistent/ftqc.json" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "missing file must be an error"

(* --- Obs.Manifest ------------------------------------------------------ *)

let manifest_doc () =
  let m = Obs.Manifest.create () in
  let e = Mc.Stats.estimate ~failures:3 ~trials:100 () in
  Obs.Manifest.add m
    { experiment = "e-test";
      params = [ ("trials", Obs.Json.Int 100) ];
      results =
        [ { name = "cell";
            failures = e.failures;
            trials_used = e.trials;
            rate = e.rate;
            ci_lo = e.ci_low;
            ci_hi = e.ci_high };
          Obs.Manifest.value "analytic" 0.25 ];
      telemetry = [ ("wall_s", Obs.Json.Float 0.5) ] };
  m

let test_manifest_validate_ok () =
  let m = manifest_doc () in
  Alcotest.(check int) "length" 1 (Obs.Manifest.length m);
  match Obs.Manifest.validate (Obs.Manifest.to_json ~generator:"test" m) with
  | Ok n -> Alcotest.(check int) "one record validates" 1 n
  | Error e -> Alcotest.failf "expected valid manifest: %s" e

let test_manifest_write_reparses () =
  let file = Filename.temp_file "ftqc_manifest" ".json" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove file with Sys_error _ -> ())
    (fun () ->
      Obs.Manifest.write ~generator:"test" (manifest_doc ()) ~file;
      let ic = open_in_bin file in
      let s = really_input_string ic (in_channel_length ic) in
      close_in ic;
      match Obs.Json.of_string s with
      | Error e -> Alcotest.failf "written manifest unparsable: %s" e
      | Ok j -> (
        check "schema tag" true
          (Obs.Json.member "schema" j
          = Some (Obs.Json.String Obs.Manifest.schema_version));
        match Obs.Manifest.validate j with
        | Ok 1 -> ()
        | Ok n -> Alcotest.failf "expected 1 record, got %d" n
        | Error e -> Alcotest.failf "written manifest invalid: %s" e))

let test_manifest_validate_rejects () =
  let reject msg doc =
    check msg true
      (match Obs.Json.of_string doc with
      | Ok j -> Result.is_error (Obs.Manifest.validate j)
      | Error _ -> true)
  in
  reject "not an object" "[1,2]";
  reject "wrong schema" {|{"schema": "other/9", "records": []}|};
  reject "records not a list" {|{"schema": "ftqc-manifest/1", "records": 3}|};
  reject "rate outside interval"
    {|{"schema": "ftqc-manifest/1", "records": [
        {"experiment": "e", "params": {}, "telemetry": {"wall_s": 0.1},
         "results": [{"name": "x", "failures": 1, "trials_used": 10,
                      "rate": 0.9, "ci_lo": 0.0, "ci_hi": 0.5}]}]}|};
  reject "missing wall_s"
    {|{"schema": "ftqc-manifest/1", "records": [
        {"experiment": "e", "params": {}, "telemetry": {},
         "results": []}]}|};
  check "empty manifest is fine" true
    (Obs.Json.of_string {|{"schema": "ftqc-manifest/1", "records": []}|}
     |> Result.get_ok |> Obs.Manifest.validate = Ok 0)

(* --- Obs.Perf: trajectory comparator ----------------------------------- *)

let kernel name width shots_per_s = { Obs.Perf.name; width; shots_per_s }

let base_entry =
  { Obs.Perf.label = "base";
    kernels =
      [ kernel "steane-level2" 64 1.0e6;
        kernel "toric-L3-deep" 512 4.0e7 ];
    daemon = Some { Obs.Perf.cold_s = 0.10; hit_s = 0.002 } }

let diff ?throughput_floor ?latency_ceiling kernels daemon =
  Obs.Perf.compare_entries ?throughput_floor ?latency_ceiling ~base:base_entry
    { Obs.Perf.label = "new"; kernels; daemon }

let test_perf_regression_fails () =
  (* a >25% throughput drop on any kernel trips the gate *)
  let verdicts =
    diff
      [ kernel "steane-level2" 64 0.70e6; (* -30%: regression *)
        kernel "toric-L3-deep" 512 4.0e7 ]
      base_entry.Obs.Perf.daemon
  in
  check "synthetic 30% slowdown flagged" true (Obs.Perf.regressed verdicts);
  (* ...and the verdict names the offending kernel *)
  let contains hay needle =
    let nh = String.length hay and nn = String.length needle in
    let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
    go 0
  in
  check "offender named" true
    (List.exists
       (fun (v : Obs.Perf.verdict) ->
         v.regressed && contains v.line "steane-level2")
       verdicts)

let test_perf_improvement_and_noise_pass () =
  (* improvements and in-band noise (10% down) both pass *)
  let improved =
    diff
      [ kernel "steane-level2" 64 2.0e6; kernel "toric-L3-deep" 512 9.0e7 ]
      (Some { Obs.Perf.cold_s = 0.05; hit_s = 0.001 })
  in
  check "improvement passes" false (Obs.Perf.regressed improved);
  let noisy =
    diff
      [ kernel "steane-level2" 64 0.9e6; (* -10%: inside the band *)
        kernel "toric-L3-deep" 512 3.7e7 ]
      (Some { Obs.Perf.cold_s = 0.15; hit_s = 0.003 })
      (* latencies 1.5x: inside the 2x ceiling *)
  in
  check "noise-band wobble passes" false (Obs.Perf.regressed noisy)

let test_perf_missing_and_new_kernels () =
  (* a (kernel, width) pair that vanished is a regression; a new one
     is informational only *)
  let vanished = diff [ kernel "steane-level2" 64 1.0e6 ] None in
  check "missing kernel flagged" true (Obs.Perf.regressed vanished);
  let extra =
    diff
      (base_entry.Obs.Perf.kernels @ [ kernel "brand-new" 256 1.0 ])
      base_entry.Obs.Perf.daemon
  in
  check "new kernel is informational" false (Obs.Perf.regressed extra);
  (* width is part of the identity: same name at a new width does not
     satisfy the base (name, width) pair *)
  let rewidthed =
    diff
      [ kernel "steane-level2" 256 1.0e6; kernel "toric-L3-deep" 512 4.0e7 ]
      base_entry.Obs.Perf.daemon
  in
  check "width change = missing pair" true (Obs.Perf.regressed rewidthed)

let test_perf_latency_ceiling () =
  let slow_cold =
    diff base_entry.Obs.Perf.kernels
      (Some { Obs.Perf.cold_s = 0.25; hit_s = 0.002 }) (* 2.5x: regression *)
  in
  check ">2x cold latency flagged" true (Obs.Perf.regressed slow_cold);
  let slow_hit =
    diff base_entry.Obs.Perf.kernels
      (Some { Obs.Perf.cold_s = 0.10; hit_s = 0.005 }) (* 2.5x: regression *)
  in
  check ">2x cache-hit latency flagged" true (Obs.Perf.regressed slow_hit);
  (* custom thresholds are honored *)
  let strict =
    diff ~throughput_floor:0.99 [ kernel "steane-level2" 64 0.98e6;
                                  kernel "toric-L3-deep" 512 4.0e7 ]
      None
  in
  check "custom throughput floor honored" true (Obs.Perf.regressed strict)

let test_perf_trajectory_file_round_trip () =
  let file = Filename.temp_file "ftqc_traj" ".json" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove file with Sys_error _ -> ())
    (fun () ->
      Sys.remove file;
      (* append creates the file, then extends it *)
      Obs.Perf.append ~file base_entry;
      Obs.Perf.append ~file
        { base_entry with Obs.Perf.label = "next" };
      (match Obs.Perf.read_trajectory file with
      | Error e -> Alcotest.failf "trajectory unreadable: %s" e
      | Ok entries ->
        check "append-only: both entries, oldest first" true
          (List.map (fun (e : Obs.Perf.entry) -> e.label) entries
          = [ "base"; "next" ]));
      (* a trajectory diffed against itself is never a regression *)
      match Obs.Perf.compare_files ~base:file file with
      | Error e -> Alcotest.failf "self-diff failed: %s" e
      | Ok verdicts ->
        check "self-diff passes" false (Obs.Perf.regressed verdicts));
  (* wrong schema tag rejected *)
  let bad = Filename.temp_file "ftqc_traj_bad" ".json" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove bad with Sys_error _ -> ())
    (fun () ->
      let oc = open_out bad in
      output_string oc {|{"schema": "other/9", "entries": []}|};
      close_out oc;
      check "wrong schema rejected" true
        (Result.is_error (Obs.Perf.read_trajectory bad)))

(* --- Obs.Trace ---------------------------------------------------------- *)

let with_sink f =
  let sk = Obs.Trace.sink () in
  Obs.Trace.install (Some sk);
  Fun.protect ~finally:(fun () -> Obs.Trace.install None) (fun () -> f sk)

let test_now_monotonic () =
  let prev = ref (Obs.now ()) in
  for _ = 1 to 100 do
    let t = Obs.now () in
    check "Obs.now never goes backwards" true (t >= !prev);
    prev := t
  done

let test_trace_span_id () =
  let id = Obs.Trace.span_id in
  Alcotest.(check string) "deterministic" (id [ "a"; "b" ]) (id [ "a"; "b" ]);
  check "16 lowercase hex digits" true
    (String.length (id [ "x" ]) = 16
    && String.for_all
         (fun c -> (c >= '0' && c <= '9') || (c >= 'a' && c <= 'f'))
         (id [ "x" ]));
  check "separator-folded: [ab;c] <> [a;bc]" true
    (id [ "ab"; "c" ] <> id [ "a"; "bc" ]);
  check "path-sensitive" true (id [ "a" ] <> id [ "b" ])

let mk_span ?(parent = "") ?(cat = "test") ?(args = []) ?(start_s = 0.0)
    ?(dur_s = 0.0) ~id ~name () =
  { Obs.Trace.id; parent; name; cat; start_s; dur_s; args }

let test_trace_buf_merge_and_sink_bounds () =
  let b1 = Obs.Trace.buf () and b2 = Obs.Trace.buf () in
  let s1 = mk_span ~id:"01" ~name:"one" ()
  and s2 = mk_span ~id:"02" ~name:"two" () in
  Obs.Trace.record b1 s1;
  Obs.Trace.record b2 s2;
  Obs.Trace.merge_into ~into:b1 b2;
  check "order-preserving merge" true (Obs.Trace.contents b1 = [ s1; s2 ]);
  Alcotest.(check int) "merged length" 2 (Obs.Trace.buf_length b1);
  (* a tiny sink counts overflow instead of growing or blocking *)
  let sk = Obs.Trace.sink ~capacity:2 () in
  Obs.Trace.install (Some sk);
  Fun.protect
    ~finally:(fun () -> Obs.Trace.install None)
    (fun () ->
      check "enabled with a sink" true (Obs.Trace.enabled ());
      for i = 1 to 5 do
        Obs.Trace.emit (mk_span ~id:(string_of_int i) ~name:"s" ())
      done;
      Alcotest.(check int) "bounded" 2 (Obs.Trace.sink_length sk);
      Alcotest.(check int) "overflow counted" 3 (Obs.Trace.sink_dropped sk));
  check "disabled after uninstall" false (Obs.Trace.enabled ())

let test_trace_timed_nesting () =
  (* without a sink, timed is exactly the thunk *)
  check "disabled by default" false (Obs.Trace.enabled ());
  Alcotest.(check int) "disabled timed = f ()" 7
    (Obs.Trace.timed ~name:"n" ~id:"deadbeef00000000" (fun () -> 7));
  with_sink (fun sk ->
      let outer = Obs.Trace.span_id [ "outer" ]
      and inner = Obs.Trace.span_id [ "inner" ] in
      let r =
        Obs.Trace.timed ~name:"outer" ~id:outer (fun () ->
            Obs.Trace.timed ~name:"inner" ~id:inner (fun () -> 41) + 1)
      in
      Alcotest.(check int) "result threads through" 42 r;
      let find id =
        List.find_opt
          (fun (s : Obs.Trace.span) -> s.id = id)
          (Obs.Trace.sink_spans sk)
      in
      (match find inner with
      | Some s -> check "inner parented under outer" true (s.parent = outer)
      | None -> Alcotest.fail "inner span missing");
      (match find outer with
      | Some s -> check "outer is a root" true (s.parent = "")
      | None -> Alcotest.fail "outer span missing");
      check "ambient parent restored" true (Obs.Trace.current_parent () = "");
      (* the exceptional path still emits, and restores the parent *)
      (match
         Obs.Trace.timed ~name:"boom"
           ~id:(Obs.Trace.span_id [ "boom" ])
           (fun () -> failwith "x")
       with
      | exception Failure _ -> ()
      | _ -> Alcotest.fail "exception must propagate");
      check "raised span still emitted" true
        (List.exists
           (fun (s : Obs.Trace.span) -> s.name = "boom")
           (Obs.Trace.sink_spans sk));
      check "parent restored after raise" true
        (Obs.Trace.current_parent () = ""))

(* the span *tree* (ids, parents, names) — everything but the timings *)
let sorted_identities sk =
  Obs.Trace.sink_spans sk
  |> List.map (fun (s : Obs.Trace.span) -> (s.id, s.parent, s.name))
  |> List.sort compare

let test_trace_runner_neutral_and_domain_invariant () =
  let workload domains =
    Mc.Runner.failures ~domains ~trials:4000 ~seed:8
      (Mc.Runner.scalar (bernoulli 0.3))
  in
  let plain = workload 1 in
  let run domains =
    with_sink (fun sk ->
        let n = workload domains in
        (n, sorted_identities sk, Obs.Trace.to_json sk))
  in
  let n1, ids1, doc1 = run 1 in
  let n4, ids4, _ = run 4 in
  Alcotest.(check int) "tracing does not perturb counts (1 domain)" plain n1;
  Alcotest.(check int) "tracing does not perturb counts (4 domains)" plain n4;
  check "span tree bit-identical across domain counts" true (ids1 = ids4);
  check "run span present" true
    (List.exists (fun (_, p, _) -> p = "") ids1);
  check "chunk spans present" true
    (List.exists (fun (_, _, n) -> n = "chunk 0") ids1);
  match Obs.Trace.validate doc1 with
  | Ok n -> check "exported document validates" true (n > 0)
  | Error e -> Alcotest.failf "trace invalid: %s" e

let test_trace_rare_engine_spans () =
  let model =
    Mc.Runner.model
      ~worker_init:(fun () -> ())
      ~rare:
        { Mc.Runner.fault_model = { Mc.Subset.locations = 6; kinds = 1; p = 0.3 };
          evaluate = (fun () faults -> Array.length faults >= 3) }
      ()
  in
  let config =
    match Mc.Engine.rare ~max_weight:4 ~samples_per_class:10 () with
    | `Rare c -> c
    | _ -> assert false
  in
  let plain = Mc.Runner.estimate_rare ~domains:2 ~config ~seed:41 model in
  with_sink (fun sk ->
      let traced = Mc.Runner.estimate_rare ~domains:2 ~config ~seed:41 model in
      check "tracing does not perturb the weighted estimate" true
        (plain = traced);
      let names =
        List.map (fun (s : Obs.Trace.span) -> s.name) (Obs.Trace.sink_spans sk)
      in
      check "rare root span present" true (List.mem "rare estimate" names);
      check "weight-class spans present" true
        (List.exists
           (fun n ->
             String.length n >= 12 && String.sub n 0 12 = "weight class")
           names);
      match Obs.Trace.validate (Obs.Trace.to_json sk) with
      | Ok _ -> ()
      | Error e -> Alcotest.failf "rare trace invalid: %s" e)

let test_trace_campaign_resume_cached_spans () =
  let file = Filename.temp_file "ftqc_trace_camp" ".json" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove file with Sys_error _ -> ())
    (fun () ->
      Sys.remove file;
      let c = Result.get_ok (Mc.Campaign.create file) in
      let n0 =
        Mc.Runner.failures ~domains:2 ~campaign:c ~trials:2000 ~seed:3
          (Mc.Runner.scalar (bernoulli 0.2))
      in
      Mc.Campaign.flush c;
      let c2 = Result.get_ok (Mc.Campaign.load file) in
      with_sink (fun sk ->
          let n1 =
            Mc.Runner.failures ~domains:2 ~campaign:c2 ~trials:2000 ~seed:3
              (Mc.Runner.scalar (bernoulli 0.2))
          in
          Alcotest.(check int) "resumed run reproduces" n0 n1;
          check "replayed chunks traced as cached" true
            (List.exists
               (fun (s : Obs.Trace.span) ->
                 List.mem_assoc "cached" s.Obs.Trace.args)
               (Obs.Trace.sink_spans sk));
          Mc.Campaign.flush c2;
          check "explicit flush emits a campaign span" true
            (List.exists
               (fun (s : Obs.Trace.span) -> s.cat = "campaign")
               (Obs.Trace.sink_spans sk))))

let test_trace_validate_rejects () =
  let reject msg doc =
    check msg true
      (match Obs.Json.of_string doc with
      | Ok j -> Result.is_error (Obs.Trace.validate j)
      | Error _ -> true)
  in
  let event ?(ph = "X") ?(id = "aa") ?(parent = "") ?(ts = 0) ?(dur = 10) () =
    Printf.sprintf
      {|{"ph": %S, "name": "e", "cat": "t", "ts": %d, "dur": %d,
         "pid": 1, "tid": 1, "args": {"span_id": %S, "parent": %S}}|}
      ph ts dur id parent
  in
  let doc events =
    Printf.sprintf
      {|{"schema": "ftqc-trace/1", "displayTimeUnit": "ms", "dropped": 0,
         "traceEvents": [%s]}|}
      (String.concat ", " events)
  in
  reject "wrong schema"
    {|{"schema": "other/9", "traceEvents": []}|};
  reject "non-complete event" (doc [ event ~ph:"B" () ]);
  reject "missing span identity"
    (doc
       [ {|{"ph": "X", "name": "e", "cat": "t", "ts": 0, "dur": 1,
            "args": {}}|} ]);
  reject "self-parenting" (doc [ event ~id:"aa" ~parent:"aa" () ]);
  reject "unknown parent" (doc [ event ~id:"bb" ~parent:"zz" () ]);
  reject "child escapes its parent"
    (doc [ event ~id:"aa" ~ts:0 ~dur:10 ();
           event ~id:"bb" ~parent:"aa" ~ts:5 ~dur:100 () ]);
  (match
     Obs.Json.of_string
       (doc [ event ~id:"aa" ~ts:0 ~dur:10 ();
              event ~id:"bb" ~parent:"aa" ~ts:2 ~dur:5 () ])
   with
  | Ok j -> check "contained child accepted" true (Obs.Trace.validate j = Ok 2)
  | Error e -> Alcotest.failf "fixture unparsable: %s" e);
  check "empty trace validates" true
    (Obs.Json.of_string (doc []) |> Result.get_ok |> Obs.Trace.validate = Ok 0)

(* --- Obs.Progress publish mode ------------------------------------------ *)

let with_publish f =
  let prev = Obs.Progress.publishing () in
  Obs.Progress.set_publish true;
  Fun.protect ~finally:(fun () -> Obs.Progress.set_publish prev) f

let test_progress_publish_snapshot () =
  check "publish off by default" false (Obs.Progress.publishing ());
  with_publish (fun () ->
      check "snapshot starts empty" true (Obs.Progress.snapshot () = []);
      Obs.Progress.with_scope "req-1" (fun () ->
          let p = Obs.Progress.create ~label:"work" ~total:4 in
          check "publish mode creates a reporter" true (p <> None);
          Obs.Progress.step p;
          Obs.Progress.step p;
          (match Obs.Progress.snapshot () with
          | [ v ] ->
            Alcotest.(check string) "scope" "req-1" v.Obs.Progress.v_scope;
            Alcotest.(check string) "label" "work" v.Obs.Progress.v_label;
            Alcotest.(check int) "done" 2 v.Obs.Progress.v_done;
            Alcotest.(check int) "total" 4 v.Obs.Progress.v_total;
            check "elapsed nonnegative" true (v.Obs.Progress.v_elapsed_s >= 0.0)
          | l -> Alcotest.failf "expected one live view, got %d" (List.length l));
          Obs.Progress.finish p;
          check "finish unregisters" true (Obs.Progress.snapshot () = []));
      (* abandon also unregisters — the exceptional path *)
      let p = Obs.Progress.create ~label:"doomed" ~total:2 in
      Obs.Progress.step p;
      Obs.Progress.abandon p;
      check "abandon unregisters" true (Obs.Progress.snapshot () = []))

let test_progress_watcher_hook () =
  with_publish (fun () ->
      let seen = ref [] in
      Obs.Progress.set_watcher
        (Some (fun v -> seen := (v.Obs.Progress.v_done, v.Obs.Progress.v_total) :: !seen));
      Fun.protect
        ~finally:(fun () -> Obs.Progress.set_watcher None)
        (fun () ->
          let p = Obs.Progress.create ~label:"w" ~total:3 in
          Obs.Progress.step p;
          Obs.Progress.step p;
          Obs.Progress.step p;
          Obs.Progress.finish p);
      check "watcher saw every step" true
        (List.mem (1, 3) !seen && List.mem (2, 3) !seen && List.mem (3, 3) !seen))

let suites =
  [ ( "obs.json",
      [ Alcotest.test_case "round-trip" `Quick test_json_roundtrip;
        Alcotest.test_case "non-finite -> null" `Quick
          test_json_nonfinite_encodes_null;
        Alcotest.test_case "parse errors" `Quick test_json_parse_errors;
        Alcotest.test_case "number forms" `Quick test_json_numbers;
        Alcotest.test_case "atomic write round-trip" `Quick
          test_write_atomic_roundtrip;
        Alcotest.test_case "read_file rejects corruption" `Quick
          test_read_file_rejects_corruption ] );
    ( "obs.metrics",
      [ Alcotest.test_case "basics" `Quick test_metrics_basics;
        Alcotest.test_case "histogram buckets" `Quick
          test_metrics_histogram_buckets;
        Alcotest.test_case "merge associative" `Quick
          test_metrics_merge_associative;
        Alcotest.test_case "integer series commute" `Quick
          test_metrics_merge_counts_commute;
        Alcotest.test_case "bounds mismatch rejected" `Quick
          test_metrics_histogram_merge_bounds_mismatch ] );
    ( "obs.handle",
      [ Alcotest.test_case "none is a no-op" `Quick test_obs_none_is_noop;
        Alcotest.test_case "live handle records" `Quick test_obs_live_records;
        Alcotest.test_case "does not perturb counts" `Quick
          test_obs_does_not_perturb_counts;
        Alcotest.test_case "runner populates metrics" `Quick
          test_obs_runner_populates_metrics;
        Alcotest.test_case "progress off by default" `Quick
          test_progress_disabled_by_default;
        Alcotest.test_case "progress line format" `Quick
          test_progress_format_line;
        Alcotest.test_case "progress env gate" `Quick test_progress_env_gate;
        Alcotest.test_case "progress never writes stdout" `Quick
          test_progress_never_writes_stdout ] );
    ( "obs.trace",
      [ Alcotest.test_case "monotonic clock" `Quick test_now_monotonic;
        Alcotest.test_case "span ids deterministic" `Quick test_trace_span_id;
        Alcotest.test_case "buffers, merge, sink bounds" `Quick
          test_trace_buf_merge_and_sink_bounds;
        Alcotest.test_case "timed nesting" `Quick test_trace_timed_nesting;
        Alcotest.test_case "runner: neutral and domain-invariant" `Quick
          test_trace_runner_neutral_and_domain_invariant;
        Alcotest.test_case "rare engine spans" `Quick
          test_trace_rare_engine_spans;
        Alcotest.test_case "campaign resume cached spans" `Quick
          test_trace_campaign_resume_cached_spans;
        Alcotest.test_case "validate rejects" `Quick
          test_trace_validate_rejects ] );
    ( "obs.progress",
      [ Alcotest.test_case "publish snapshot" `Quick
          test_progress_publish_snapshot;
        Alcotest.test_case "watcher hook" `Quick test_progress_watcher_hook ] );
    ( "obs.manifest",
      [ Alcotest.test_case "validate ok" `Quick test_manifest_validate_ok;
        Alcotest.test_case "write/reparse" `Quick test_manifest_write_reparses;
        Alcotest.test_case "validate rejects" `Quick
          test_manifest_validate_rejects ] );
    ( "obs.perf",
      [ Alcotest.test_case "regression fails" `Quick test_perf_regression_fails;
        Alcotest.test_case "improvement and noise pass" `Quick
          test_perf_improvement_and_noise_pass;
        Alcotest.test_case "missing and new kernels" `Quick
          test_perf_missing_and_new_kernels;
        Alcotest.test_case "latency ceiling" `Quick test_perf_latency_ceiling;
        Alcotest.test_case "trajectory file round-trip" `Quick
          test_perf_trajectory_file_round_trip ] ) ]
