(* The repository benchmark.  See README.md for the workloads, the
   metrics and how to compare two commits.

     perfbench --workload NAME --seed N [--seconds S] [--trace 0|1]
               [--out FILE] [--label L]
     perfbench --compare BASE_DIR NEW_DIR
     perfbench --selftest

   The last line of standard output is one JSON object:
   {"correct", "attempted", "failed", "metrics"}, with the end-to-end
   metrics of BENCHMARK.json ([--trace 0]) or its per-layer metrics
   ([--trace 1]).  A failed correctness check exits 1 after that line. *)

(* Fleet workers re-exec their host binary; this one hosts none, but a
   stray worker marker in the environment must not run the bench. *)
let () = Ftqc.Svc.Fleet.run_if_worker ()
let t_start = Ftqc.Obs.now ()

open Ftqc
open Common

type opts = {
  mutable workload : string;
  mutable seed : int;
  mutable seconds : float;
  mutable trace : bool;
  mutable out : string option;
  mutable label : string;
}

type outcome = {
  measured : (string * float) list;
  raw : (string * float) list;  (** the scaled times as the clock read them *)
  attempted : int;
  failed : int;
  checks : check list;
  counts : (string * Json.t) list;  (** rep, request and set-up counts *)
  domains : int;
}

let ms x = x *. 1e3

(* ----------------------------------------------------- end to end *)

let p90 xs =
  match Sample.percentile xs 0.9 with
  | Some v -> v
  | None -> failwith "too few samples for a p90"

let engine_e2e (wl : Engines.t) o =
  let setups = Engines.measure_setups wl ~seed:o.seed in
  let run = Engines.loop wl ~seed:o.seed ~seconds:o.seconds in
  let rss = peak_rss_mb "self" in
  let shots_per_s = Engines.shots_per_s wl in
  let rep_s = Engines.rep_s run in
  (* set-up runs moments before the loop: the loop's own median host
     factor is a steadier measure of the host's speed than one probe *)
  let setup_s = Sample.median setups in
  { measured =
      [ ("setup_s", setup_s *. Sample.median run.factors); ("peak_rss_mb", rss);
        ("shots_per_s", shots_per_s rep_s); ("op_ms_p90", ms (p90 rep_s)) ];
    raw =
      [ ("setup_s", setup_s); ("shots_per_s", shots_per_s run.raw_rep_s);
        ("op_ms_p90", ms (p90 run.raw_rep_s)) ];
    attempted = run.attempted; failed = run.failed;
    checks = Engines.checks wl ~seed:o.seed run;
    counts =
      [ ("setups", Json.Int Engines.setups); ("warmup_reps", Json.Int Engines.warmups);
        ("measured_reps", Json.Int (List.length rep_s));
        ("shots_per_rep", Json.Int wl.shots) ];
    domains = wl.domains }

let daemon_e2e o =
  let setups = List.init Daemon.setups (Daemon.setup_once ~seed:o.seed) in
  let l = Daemon.load ~seed:o.seed ~seconds:o.seconds ~trace:false in
  { measured =
      [ ("setup_s", Sample.median setups); ("peak_rss_mb", l.rss_mb);
        ("shots_per_s", Daemon.shots_per_s l.ph); ("op_ms_p90", Daemon.cold_ms_p90 l.ph) ];
    raw = [];
    attempted = Array.length l.ph.items; failed = l.failed; checks = l.checks;
    counts =
      [ ("setups", Json.Int Daemon.setups);
        ("requests", Json.Int (Array.length l.ph.items));
        ("cold_requests", Json.Int (List.length (Daemon.cold l.ph))) ];
    domains = 1 }

(* -------------------------------------------------------- per layer *)

let per_call_us f xs =
  let pass () =
    let t0 = Obs.now () in
    List.iter f xs;
    (Obs.now () -. t0) /. float_of_int (List.length xs)
  in
  Sample.median (List.init 5 (fun _ -> pass ())) *. 1e6

(* Bench-side spans for the probe's requests, from their timestamps. *)
let emit_request_spans (ph : Daemon.phase) =
  Array.iteri
    (fun i (r : Daemon.reply) ->
      if r.error = None then begin
        let due = Daemon.due ph i in
        let id = Obs.Trace.span_id [ "daemon-mix"; string_of_int i ] in
        let emit ?(parent = id) name part t0 t1 =
          Obs.Trace.emit
            { Obs.Trace.id = (if part = "" then id else Obs.Trace.span_id [ id; part ]);
              parent = (if part = "" then "" else parent); name; cat = "bench";
              start_s = t0; dur_s = t1 -. t0; args = [] }
        in
        emit ("request " ^ Daemon.kind_name ph.items.(i).kind) "" due r.finished;
        emit "client wait" "wait" due r.sent;
        emit "await ack" "ack" r.sent r.acked;
        emit "await result" "result" r.acked r.finished
      end)
    ph.replies

let daemon_layers (l : Daemon.load) =
  let ph = l.ph in
  let all = Daemon.select ph (Daemon.ok ph) in
  let cold = Daemon.cold ph in
  let n = float_of_int (Array.length ph.items) in
  let frac pred = float_of_int (List.length (List.filter pred all)) /. n in
  let reply i = ph.replies.(i) in
  let wait i = (reply i).sent -. Daemon.due ph i in
  let wall = Sample.median (List.map (fun i -> (reply i).server_wall) cold) in
  let exec = Sample.median l.exec_s in
  let ests = List.map (fun i -> ph.items.(i).est) cold in
  [ ("svc.protocol.canonical_us",
     per_call_us
       (fun e ->
         let r = Svc.Protocol.Run e in
         ignore (Svc.Protocol.to_canonical r);
         ignore (Svc.Protocol.hash r))
       ests);
    ("svc.codec.roundtrip_us",
     per_call_us
       (fun i ->
         let req = Svc.Codec.encode (Svc.Protocol.request_frame (Svc.Protocol.Run ph.items.(i).est)) in
         match (Json.of_string req, Json.of_string (reply i).raw) with
         | Ok _, Ok res -> ignore (Svc.Codec.encode res)
         | Error m, _ | _, Error m -> failwith m)
       cold);
    ("svc.ack_ms_p50", ms (Sample.median (List.map (fun i -> (reply i).acked -. (reply i).sent) all)));
    ("svc.hit_p50_ms", ms (Sample.median (List.map (Daemon.latency ph) (Daemon.hits ph))));
    ("svc.cache.hit_frac", frac (fun i -> (reply i).cached));
    ("svc.server_wall_ms_p50", ms wall);
    ("svc.exec_ms_p50", ms exec);
    ("svc.wait_overhead_ms_p50", ms (wall -. exec));
    (* the trace rounds spans to whole microseconds: a mean keeps the
       digits a median of them would lose *)
    ("svc.queue_wait_ms_mean",
     ms (List.fold_left ( +. ) 0.0 l.queue_wait_s /. float_of_int (List.length l.queue_wait_s)));
    ("svc.client_wait_ms_p90",
     ms (Option.get (Sample.percentile (List.map wait all) 0.9)));
    ("gen.late_ms_max", ms (List.fold_left (fun m i -> Float.max m (wait i)) 0.0 all)) ]

(* Share of cold latency the client wait and the daemon's own request
   handling account for. *)
let daemon_closure (ph : Daemon.phase) =
  let cold = Daemon.cold ph in
  let sum f = List.fold_left (fun acc i -> acc +. f i) 0.0 cold in
  sum (fun i -> ph.replies.(i).sent -. Daemon.due ph i +. ph.replies.(i).server_wall)
  /. sum (Daemon.latency ph)

let engine_layers (replays : Layers.replayed list) ~runner_ns ~busy =
  let r name = List.find (fun (r : Layers.replayed) -> r.wl.name = name) replays in
  let deep = (r "toric-deep").a and decode = (r "toric-decode").a in
  let css = (r "css-golay").a and ckpt = (r "toric-ckpt").a in
  let per_shot (a : Layers.acc) s = Layers.ns_per (Layers.stage a s) a.shots in
  let frac x n = float_of_int x /. float_of_int n in
  [ ("mc.rng.fold_ns_per_shot", per_shot deep "fold");
    ("frame.extract_ns_per_shot", per_shot deep "extract");
    ("toric.split_ns_per_shot", per_shot deep "split");
    ("toric.defect_frac", frac deep.defect_shots deep.shots);
    ("frame.transpose_ns_per_defect_shot",
     Layers.ns_per (Layers.stage decode "transpose") decode.defect_shots);
    ("toric.decode_ns_per_defect_shot",
     Layers.ns_per (Layers.stage decode "decode") decode.defect_shots);
    ("csskit.fold_ns_per_shot", per_shot css "fold");
    ("csskit.syndrome_ns_per_shot", per_shot css "extract");
    ("csskit.assemble_ns_per_shot", per_shot css "assemble");
    ("csskit.decode_ns_per_call", Layers.ns_per (Layers.stage css "decode") css.misses);
    ("csskit.distinct_syndrome_frac", frac css.misses css.lookups);
    ("mc.runner.ns_per_shot", runner_ns);
    ("mc.runner.busy_frac", busy);
    ("mc.campaign.record_us", Sample.median ckpt.record_s *. 1e6);
    ("mc.campaign.flush_ms_p50", ms (Sample.median ckpt.flush_s));
    ("mc.campaign.flush_ms_max", ms (List.fold_left Float.max 0.0 ckpt.flush_s));
    ("mc.campaign.bytes_written", float_of_int ckpt.bytes /. float_of_int Layers.reps) ]

(* The named engine workload traced: runner spans on, a span around
   each rep.  It records into a private sink, since one toric-deep rep
   alone makes 4,096 chunk spans; the trace keeps the first rep's. *)
let traced_loop (wl : Engines.t) ~seed ~seconds =
  let own = Obs.Trace.sink () in
  let rep_id r = [ wl.name; "rep"; string_of_int r ] in
  let run =
    with_sink (Some own) (fun () ->
        Engines.loop ~min_reps:1
          ~wrap:(fun r f -> span ~name:("rep " ^ wl.name) ~id:(rep_id r) f)
          wl ~seed ~seconds)
  in
  let spans = Obs.Trace.sink_spans own in
  let first = Obs.Trace.span_id (rep_id 0) in
  (match List.find_opt (fun (s : Obs.Trace.span) -> s.id = first) spans with
  | Some r0 ->
    List.iter
      (fun (s : Obs.Trace.span) ->
        if s.start_s >= r0.start_s && s.start_s +. s.dur_s <= r0.start_s +. r0.dur_s
        then Obs.Trace.emit s)
      spans
  | None -> ());
  run

(* The traced run: the named workload untraced and then traced for a
   quarter of the budget each (tracing overhead), then every layer of
   every workload, so each traced run reports the full per-layer list;
   [stage.closure] and [trace.overhead] refer to the named workload. *)
let traced o sink =
  let quarter = o.seconds /. 4.0 in
  let seed = o.seed in
  let named =
    match Engines.find o.workload with
    | Some wl ->
      let u = Engines.loop ~min_reps:1 wl ~seed ~seconds:quarter in
      Obs.Trace.install (Some sink);
      `Engine (wl, u, traced_loop wl ~seed ~seconds:quarter)
    | None ->
      let u = Daemon.load ~seed ~seconds:quarter ~trace:false in
      Obs.Trace.install (Some sink);
      `Daemon u
  in
  let replays = List.map (fun wl -> Layers.run wl ~seed) Engines.all in
  let runner_ns = Layers.runner_ns_per_shot () in
  let busy = Layers.busy_frac ~seed in
  let probe = Daemon.load ~seed ~seconds:quarter ~trace:true in
  emit_request_spans probe.ph;
  Obs.Trace.install None;
  List.iter
    (fun (r : Layers.replayed) ->
      Printf.printf "replay %-13s stages/entry point (1 domain) = %.3f\n" r.wl.name (Layers.closure r))
    replays;
  let closure, overhead, checks, attempted, failed, domains =
    match named with
    | `Engine (wl, u, t) ->
      let sps run = Engines.shots_per_s wl (Engines.rep_s run) in
      ( Layers.closure (List.find (fun (r : Layers.replayed) -> r.wl == wl) replays),
        sps t /. sps u,
        Engines.checks wl ~seed t,
        t.attempted + u.attempted, t.failed + u.failed, wl.domains )
    | `Daemon (u : Daemon.load) ->
      ( daemon_closure probe.ph,
        Daemon.shots_per_s probe.ph /. Daemon.shots_per_s u.ph,
        u.checks, Array.length u.ph.items, u.failed, 1 )
  in
  { measured =
      engine_layers replays ~runner_ns ~busy
      @ daemon_layers probe
      @ [ ("stage.closure", closure); ("trace.overhead", overhead) ];
    raw = [];
    attempted = attempted + Array.length probe.ph.items;
    failed = failed + probe.failed;
    checks =
      checks @ List.concat_map (fun (r : Layers.replayed) -> r.checks) replays @ probe.checks;
    counts =
      [ ("replayed_reps", Json.Int Layers.reps);
        ("probe_requests", Json.Int (Array.length probe.ph.items));
        ( "probe_coalesced",
          Json.Int (List.length (Daemon.select probe.ph (fun i -> probe.ph.replies.(i).coalesced))) ) ];
    domains }

(* ----------------------------------------------------------- output *)

let write_trace sink file =
  Obs.Trace.write sink ~file;
  print_span_table (Obs.Trace.sink_spans sink);
  match Json.read_file file with
  | Error m -> { check = "trace file"; ok = false; detail = m }
  | Ok j -> (
    match Obs.Trace.validate j with
    | Ok n -> { check = "trace file"; ok = true; detail = Printf.sprintf "%d events in %s" n file }
    | Error m -> { check = "trace file"; ok = false; detail = m })

let report o ~started (spec : Spec.t) r =
  let metrics = Spec.select spec ~trace:o.trace r.measured in
  let correct = List.for_all (fun c -> c.ok) r.checks in
  print_checks r.checks;
  List.iter
    (fun ((m : Spec.metric), v) -> Printf.printf "%-36s %16.6g %s\n" m.name v m.unit_)
    metrics;
  let metric_json ((m : Spec.metric), v) =
    (m.name, Json.Obj [ ("value", Json.Float v); ("unit", Json.String m.unit_) ])
  in
  Option.iter
    (fun file ->
      Json.write ~file
        (Json.Obj
           [ ("schema", Json.String Compare.schema);
             ("workload", Json.String o.workload); ("seed", Json.Int o.seed);
             ("label", Json.String o.label); ("trace", Json.Bool o.trace);
             ("seconds", Json.Float o.seconds); ("started_unix", Json.Float started);
             ("host", Json.Obj (host ()));
             ("domains", Json.Int r.domains);
             ("counts", Json.Obj r.counts);
             ("correct", Json.Bool correct); ("attempted", Json.Int r.attempted);
             ("failed", Json.Int r.failed);
             ( "checks",
               Json.List
                 (List.map
                    (fun c ->
                      Json.Obj
                        [ ("check", Json.String c.check); ("ok", Json.Bool c.ok);
                          ("detail", Json.String c.detail) ])
                    r.checks) );
             ("metrics", Json.Obj (List.map metric_json metrics));
             ("raw", Json.Obj (List.map (fun (k, v) -> (k, Json.Float v)) r.raw)) ]))
    o.out;
  print_endline
    (compact
       (Json.Obj
          [ ("correct", Json.Bool correct); ("attempted", Json.Int r.attempted);
            ("failed", Json.Int r.failed);
            ("metrics", Json.Obj (List.map metric_json metrics)) ]));
  if not correct then exit 1

let usage () =
  prerr_endline
    "usage: perfbench --workload NAME --seed N [--seconds S] [--trace 0|1] [--out FILE]\n\
    \                 [--label L]\n\
    \       perfbench --compare BASE_DIR NEW_DIR\n\
    \       perfbench --selftest";
  exit 2

let () =
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let o =
    { workload = ""; seed = -1; seconds = 10.0; trace = false; out = None; label = "local" }
  in
  let setup_only = ref false in
  let int_arg v = match int_of_string_opt v with Some n when n >= 0 -> n | _ -> usage () in
  let rec parse = function
    | [] -> ()
    | "--compare" :: base :: nw :: [] ->
      Compare.run base nw;
      exit 0
    | [ "--selftest" ] ->
      Selftest.run ();
      exit 0
    | "--setup-only" :: rest -> setup_only := true; parse rest
    | "--workload" :: v :: rest -> o.workload <- v; parse rest
    | "--seed" :: v :: rest -> o.seed <- int_arg v; parse rest
    | "--seconds" :: v :: rest -> (
      match float_of_string_opt v with
      | Some s when s > 0.0 -> o.seconds <- s; parse rest
      | _ -> usage ())
    | "--trace" :: v :: rest ->
      o.trace <- (match v with "0" -> false | "1" -> true | _ -> usage ());
      parse rest
    | "--out" :: v :: rest -> o.out <- Some v; parse rest
    | "--label" :: v :: rest -> o.label <- v; parse rest
    | _ -> usage ()
  in
  parse (List.tl (Array.to_list Sys.argv));
  let engine = Engines.find o.workload in
  if o.seed < 0 || (engine = None && o.workload <> Daemon.name) then usage ();
  ensure_out_dir ();
  match (!setup_only, engine) with
  | true, Some wl -> Engines.setup_only wl ~seed:o.seed ~t_start
  | true, None -> usage ()
  | false, _ ->
    let spec = Spec.load () in
    if not (List.mem o.workload spec.workloads) then usage ();
    let started = Unix.gettimeofday () in
    let r =
      if o.trace then begin
        let sink = Obs.Trace.sink () in
        let r = traced o sink in
        let file = out_file (Printf.sprintf "trace-%s-%d.json" o.workload o.seed) in
        { r with checks = r.checks @ [ write_trace sink file ] }
      end
      else
        match engine with Some wl -> engine_e2e wl o | None -> daemon_e2e o
    in
    report o ~started spec r
