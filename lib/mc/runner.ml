(* Parallel Monte-Carlo chunk loop over OCaml 5 domains.

   Determinism contract: the trial range is cut into fixed-size chunks
   whose size depends only on [trials] (never on the domain count);
   chunk [c] always runs on the RNG stream [Rng.split root c]; chunk
   counts land in a per-chunk slot and are summed after all workers
   join.  Workers claim chunks from a shared atomic cursor (a
   single-queue work-stealing discipline: idle domains steal the next
   unclaimed chunk), so scheduling is dynamic but the aggregate is
   bit-identical for any [domains].

   Every engine runs through the one loop, [run_chunk_range]: an engine
   only supplies a chunk body (see [body]) — the scalar engine a trial
   loop, the batch engine one tile, the rare engine one weight class's
   trial loop.

   Supervision rides the same contract: a retried chunk re-derives
   the same RNG stream, a chunk replayed from a checkpoint contributes
   the same count it would have computed, and a graceful stop only
   ever drops whole chunks — so resume, retry and chaos recovery all
   preserve bit-identical aggregates.

   Telemetry: every entry point takes an [?obs:Obs.t] handle
   (default [Obs.none], a no-op).  Instrumentation only ever times and
   counts — it draws no randomness and gates no control flow — so
   enabling it cannot perturb a single sampled bit.  Per-chunk timings
   land in per-chunk slots and are folded into the handle in chunk
   order after the join, mirroring the result-merge discipline. *)

let env_domains = "FTQC_DOMAINS"

let default_domains () =
  match Sys.getenv_opt env_domains with
  | Some s ->
    (match int_of_string_opt (String.trim s) with
    | Some d when d >= 1 -> d
    | _ -> Domain.recommended_domain_count ())
  | None -> Domain.recommended_domain_count ()

let resolve_domains = function
  | None -> default_domains ()
  | Some d when d >= 1 -> d
  | Some _ -> invalid_arg "Mc.Runner: domains must be >= 1"

(* At most 1024 chunks: plenty of slack for dynamic load balancing,
   cheap enough that per-chunk RNG setup is noise. *)
let resolve_chunk ~trials = function
  | None -> max 1 ((trials + 1023) / 1024)
  | Some c when c >= 1 -> c
  | Some _ -> invalid_arg "Mc.Runner: chunk must be >= 1"

(* The chunk size an entry point picks when the caller passes no
   [?chunk] — exported so out-of-process shard planners (Svc.Exec) can
   reproduce the exact job key a driver's run will use. *)
let default_chunk ~trials = resolve_chunk ~trials None

let resolve_obs = function None -> Obs.none | Some o -> o

(* ------------------------------------------------------- supervision *)

exception
  Chunk_failed of { chunk : int; attempts : int; message : string }

let () =
  Printexc.register_printer (function
    | Chunk_failed { chunk; attempts; message } ->
      Some
        (Printf.sprintf "Mc.Runner.Chunk_failed (chunk %d, %d attempt%s: %s)"
           chunk attempts
           (if attempts = 1 then "" else "s")
           message)
    | _ -> None)

(* Internal marker for the cooperative watchdog; always retryable. *)
exception Chunk_timeout of float

let default_retries = 2
let default_backoff = 0.1

(* Ambient watchdog default, set by the CLI's --chunk-timeout so the
   timeout reaches every driver without widening signatures (same
   pattern as the ambient campaign store).  Explicit [?chunk_timeout]
   arguments override it. *)
let ambient_chunk_timeout = ref 0.0

let set_default_chunk_timeout t =
  if t < 0.0 then invalid_arg "Mc.Runner: chunk_timeout must be >= 0";
  ambient_chunk_timeout := t

let default_chunk_timeout () = !ambient_chunk_timeout

(* Non-retryable: resource exhaustion, explicit interrupts, and
   already-wrapped supervision failures.  Everything else — chaos
   kills, trial exceptions, watchdog timeouts — is transient by
   assumption and worth [retries] more derivations of the same RNG
   stream. *)
let retryable = function
  | Out_of_memory | Stack_overflow | Sys.Break -> false
  | Chunk_failed _ | Campaign.Interrupted _ -> false
  | _ -> true

(* Per-run supervision bundle: the campaign job the run's chunk counts
   persist to (if any store is set) and the watchdog/retry/chaos
   controls. *)
type sup = {
  ledger : (Campaign.t * Campaign.job) option;
  seed : int;  (* roots the retry-backoff jitter *)
  timeout : float;  (* per-chunk watchdog, seconds; 0 = off *)
  retries : int;
  backoff : float;  (* base retry delay, doubled per attempt *)
  chaos : Chaos.t;
}

(* Counting runs persist through the campaign store: explicit
   [?campaign] first, else the ambient store set by the CLI. *)
let counting_sup ?campaign ?chunk_timeout ?(retries = default_retries)
    ?(backoff = default_backoff) ?(chaos = Chaos.none) ~engine ~seed ~trials
    ~chunk () =
  let timeout = Option.value chunk_timeout ~default:!ambient_chunk_timeout in
  if timeout < 0.0 then invalid_arg "Mc.Runner: chunk_timeout must be >= 0";
  if retries < 0 then invalid_arg "Mc.Runner: retries must be >= 0";
  if backoff < 0.0 then invalid_arg "Mc.Runner: backoff must be >= 0";
  let store =
    match campaign with Some c -> Some c | None -> Campaign.current ()
  in
  let job =
    { Campaign.label = Campaign.label (); engine; seed; trials; chunk }
  in
  { ledger = Option.map (fun s -> (s, job)) store;
    seed;
    timeout;
    retries;
    backoff;
    chaos }

let cached sup idx =
  match sup.ledger with
  | None -> None
  | Some (store, job) -> Campaign.find store ~job ~chunk:idx

let record sup idx failures =
  match sup.ledger with
  | None -> ()
  | Some (store, job) -> Campaign.record store ~job ~chunk:idx ~failures

let flush sup = Option.iter (fun (store, _) -> Campaign.flush store) sup.ledger

(* in-memory stores ("" path) have no on-disk resume token *)
let resume_token sup =
  match sup.ledger with
  | Some (store, _) when Campaign.file store <> "" -> Some (Campaign.file store)
  | _ -> None

(* Deterministic retry-backoff jitter: a factor in [0.5, 1.5) drawn
   from a stream split off the chunk's own key under a reserved tag,
   so fleet workers retrying the same wave of chunks de-synchronize
   their sleeps without consuming a single draw of any chunk's trial
   stream.  Purely a timing perturbation: counts cannot depend on
   it. *)
let jitter_tag = 0x6a69 (* "ji" *)

let backoff_jitter ~seed ~idx ~attempt =
  let key =
    Rng.split (Rng.split (Rng.split (Rng.root seed) idx) jitter_tag) attempt
  in
  0.5 +. Rng.float (Rng.of_key key) 1.0

(* Run one chunk attempt-by-attempt: chaos hooks fire first, the body
   re-derives the RNG stream from scratch on every attempt (so a retry
   is bit-identical to a clean first run) and checks the cooperative
   deadline itself ([check_deadline]).  Exhausted retries wrap the
   last exception in [Chunk_failed]. *)
let supervised_attempts ~sup ~idx ~retried ~timeouts body =
  let rec attempt a =
    match
      (* the deadline is armed before the chaos hook so a stall at
         chunk start counts against the watchdog like any other
         stall *)
      let deadline =
        if sup.timeout > 0.0 then Obs.now () +. sup.timeout
        else Float.infinity
      in
      sup.chaos.Chaos.on_chunk_start ~chunk:idx ~attempt:a;
      body a deadline
    with
    | n -> n
    | exception e when retryable e && a < sup.retries ->
      Atomic.incr retried;
      (match e with Chunk_timeout _ -> Atomic.incr timeouts | _ -> ());
      if sup.backoff > 0.0 then
        Unix.sleepf
          (sup.backoff *. Float.of_int (1 lsl a)
          *. backoff_jitter ~seed:sup.seed ~idx ~attempt:a);
      attempt (a + 1)
    | exception e when retryable e ->
      (match e with Chunk_timeout _ -> Atomic.incr timeouts | _ -> ());
      raise
        (Chunk_failed
           { chunk = idx;
             attempts = a + 1;
             message =
               (match e with
               | Chunk_timeout t ->
                 Printf.sprintf "exceeded %gs chunk timeout" t
               | e -> Printexc.to_string e) })
  in
  attempt 0

let check_deadline sup deadline =
  if sup.timeout > 0.0 && Obs.now () > deadline then
    raise (Chunk_timeout sup.timeout)

(* ----------------------------------------------------------- tracing

   Span identities derive from the work's identity — (ambient label,
   engine, seed, trials, chunk size) for the run, the chunk index
   under it for chunks, the attempt number under that for retries —
   so the span-id set is bit-identical at any domain count.  Workers
   record chunk and attempt spans into per-worker buffers; after the
   join they are folded into the installed sink in worker order, the
   [Obs.Metrics] per-worker-registry discipline.  All of it is gated
   on [Obs.Trace.enabled] and none of it touches RNG or control
   flow. *)

type trace_run = {
  tr_id : string;
  tr_parent : string;
  tr_name : string;
  tr_args : (string * Obs.Json.t) list;
  tr_t0 : float;
  tr_bufs : Obs.Trace.buf array; (* one per worker slot *)
}

let trace_run ~engine_label ~seed ~trials ~chunk ~slots =
  if not (Obs.Trace.enabled ()) then None
  else begin
    let label = Campaign.label () in
    Some
      { tr_id =
          Obs.Trace.span_id
            [ "run"; label; engine_label; string_of_int seed;
              string_of_int trials; string_of_int chunk ];
        tr_parent = Obs.Trace.current_parent ();
        tr_name =
          (if label = "" then "mc:" ^ engine_label
           else label ^ ":" ^ engine_label);
        tr_args =
          [ ("engine", Obs.Json.String engine_label);
            ("label", Obs.Json.String label);
            ("seed", Obs.Json.Int seed);
            ("trials", Obs.Json.Int trials);
            ("chunk", Obs.Json.Int chunk) ];
        tr_t0 = Obs.now ();
        tr_bufs = Array.init (max slots 1) (fun _ -> Obs.Trace.buf ()) }
  end

let trace_run_finish tr ~interrupted =
  match tr with
  | None -> ()
  | Some t ->
    let stop = Obs.now () in
    Array.iter Obs.Trace.absorb t.tr_bufs;
    Obs.Trace.emit
      { Obs.Trace.id = t.tr_id;
        parent = t.tr_parent;
        name = t.tr_name;
        cat = "runner";
        start_s = t.tr_t0;
        dur_s = stop -. t.tr_t0;
        args =
          (t.tr_args
          @ if interrupted then [ ("interrupted", Obs.Json.Bool true) ]
            else []) }

(* The id every span of chunk [idx] hangs off. *)
let trace_chunk_id tr idx =
  match tr with
  | None -> ""
  | Some t -> Obs.Trace.span_id [ t.tr_id; "c" ^ string_of_int idx ]

(* The chunk's span over [t0, t1]: the caller reads the clock once at
   the chunk's end and shares that reading with its wall-time slot. *)
let trace_chunk tr ~w ~idx ~cid ~t0 ~t1 ~cached ~ok =
  match tr with
  | None -> ()
  | Some t ->
    Obs.Trace.record t.tr_bufs.(w)
      { Obs.Trace.id = cid;
        parent = t.tr_id;
        name =
          (if cached then Printf.sprintf "chunk %d (cached)" idx
           else Printf.sprintf "chunk %d" idx);
        cat = "runner";
        start_s = t0;
        dur_s = t1 -. t0;
        args =
          (("chunk", Obs.Json.Int idx) :: ("worker", Obs.Json.Int w)
          :: (if cached then [ ("cached", Obs.Json.Bool true) ] else [])
          @ if ok then [] else [ ("failed", Obs.Json.Bool true) ]) }

(* Wrap a supervised-attempt body so each attempt (including the
   failing ones that trigger a retry) gets its own span under the
   chunk. *)
let trace_attempts tr ~w ~cid body =
  match tr with
  | None -> body
  | Some t ->
    fun attempt deadline ->
      let a0 = Obs.now () in
      let record ok =
        Obs.Trace.record t.tr_bufs.(w)
          { Obs.Trace.id =
              Obs.Trace.span_id [ cid; "a" ^ string_of_int attempt ];
            parent = cid;
            name = Printf.sprintf "attempt %d" attempt;
            cat = "runner";
            start_s = a0;
            dur_s = Obs.now () -. a0;
            args =
              (("attempt", Obs.Json.Int attempt)
              :: (if ok then [] else [ ("failed", Obs.Json.Bool true) ])) }
      in
      (match body attempt deadline with
      | r ->
        record true;
        r
      | exception e ->
        record false;
        raise e)

(* Record one engine run into the handle: chunk timings in chunk
   order, claims per worker, warmup cost, aggregate wall/throughput.
   Runs single-threaded after all workers have joined.  Skipped
   (checkpoint-replayed) chunks carry a negative sentinel timing and
   are not observed. *)
let record_run obs ~engine ~trials ~chunks ~workers ~wall_s ~warmup_s
    ~chunk_times ~claims ~resumed ~retried ~timeouts =
  if Obs.enabled obs then begin
    Obs.incr obs "mc.runs";
    Obs.add obs "mc.trials" trials;
    Obs.add obs "mc.chunks" chunks;
    Array.iter
      (fun dt ->
        if dt >= 0.0 then begin
          Obs.observe obs "mc.chunk_wall_s" dt;
          Obs.observe_histogram obs "mc.chunk_wall_s" dt
        end)
      chunk_times;
    Array.iter
      (fun k -> if k >= 0 then Obs.observe obs "mc.chunks_per_worker" (float_of_int k))
      claims;
    if warmup_s > 0.0 then Obs.observe obs "mc.warmup_s" warmup_s;
    if resumed > 0 then Obs.add obs "mc.chunks_resumed" resumed;
    if retried > 0 then Obs.add obs "mc.chunk_retries" retried;
    if timeouts > 0 then Obs.add obs "mc.chunk_timeouts" timeouts;
    Obs.observe obs "mc.wall_s" wall_s;
    let shots_per_s =
      if wall_s > 0.0 then float_of_int trials /. wall_s else 0.0
    in
    if trials > 0 then Obs.set_gauge obs "mc.shots_per_s" shots_per_s;
    Obs.event obs "mc.run"
      [ ("engine", Obs.Json.String engine);
        ("trials", Obs.Json.Int trials);
        ("chunks", Obs.Json.Int chunks);
        ("workers", Obs.Json.Int workers);
        ("wall_s", Obs.Json.Float wall_s);
        ("warmup_s", Obs.Json.Float warmup_s);
        ("shots_per_s", Obs.Json.Float shots_per_s) ]
  end

(* -------------------------------------------------------- chunk loop *)

(* What an engine computes for chunk [idx], as a failure count: [fast]
   with no supervision hooks (the hot path: no clock reads, no hook
   calls), or one supervised [attempt] that checks [deadline] and the
   chaos hooks itself.  [warm] makes one discarded call on chunk [idx]
   before the domains start. *)
type 'ctx body = {
  fast : 'ctx -> int -> int;
  attempt : 'ctx -> int -> attempt:int -> deadline:float -> int;
  warm : 'ctx -> int -> unit;
}

(* Count the failures of chunks [lo_chunk, hi_chunk).  Each chunk's
   count lands in its own [counts] slot (-1 until the chunk is done),
   written by one worker; Domain.join publishes the slots to the
   caller.

   Warm-up: shared lazy values inside engine code (code tables,
   decoders) are not safe to force concurrently in OCaml 5, so before
   a second domain starts, the body's [warm] call runs once on the
   range's first chunk the checkpoint does not hold — forcing every
   lazy that chunk touches.  A range the checkpoint holds entirely
   computes nothing.

   Abnormal exits: workers stop claiming once a chunk has exhausted
   its retries (the first exception is kept, in-flight chunks drain)
   or once [Campaign.stop_requested] turns true; either way the
   checkpoint is flushed before the exception — [Chunk_failed] or
   [Campaign.Interrupted] — reaches the caller, so completed chunks
   survive. *)
let run_chunk_range ~obs ~progress ~tr ~domains ~chunk ~trials ~lo_chunk
    ~hi_chunk ~sup ~engine_label ~worker_init body =
  let n = max 0 (hi_chunk - lo_chunk) in
  let counts = Array.make n (-1) in
  let abort : exn option Atomic.t = Atomic.make None in
  let resumed = Atomic.make 0 in
  let retried = Atomic.make 0 in
  let timeouts = Atomic.make 0 in
  let instrument = Obs.enabled obs in
  let tracing = tr <> None in
  let t_start = if instrument then Obs.now () else 0.0 in
  let chunk_times = if instrument then Array.make n (-1.0) else [||] in
  let range_trials =
    if n = 0 then 0 else min trials (hi_chunk * chunk) - (lo_chunk * chunk)
  in
  let supervised = sup.timeout > 0.0 || not (Chaos.is_none sup.chaos) in
  let process w ctx c =
    let idx = lo_chunk + c in
    match cached sup idx with
    | Some k ->
      counts.(c) <- k;
      Atomic.incr resumed;
      if tracing then begin
        let now = Obs.now () in
        trace_chunk tr ~w ~idx ~cid:(trace_chunk_id tr idx) ~t0:now ~t1:now
          ~cached:true ~ok:true
      end;
      Obs.Progress.step progress
    | None ->
      let t0 = if instrument || tracing then Obs.now () else 0.0 in
      let cid = if tracing then trace_chunk_id tr idx else "" in
      (match
         if not supervised then body.fast ctx idx
         else
           supervised_attempts ~sup ~idx ~retried ~timeouts
             (trace_attempts tr ~w ~cid (fun attempt deadline ->
                  body.attempt ctx idx ~attempt ~deadline))
       with
      | k ->
        counts.(c) <- k;
        record sup idx k;
        let t1 = if instrument || tracing then Obs.now () else 0.0 in
        if instrument then chunk_times.(c) <- t1 -. t0;
        if tracing then
          trace_chunk tr ~w ~idx ~cid ~t0 ~t1 ~cached:false ~ok:true;
        Obs.Progress.step progress
      | exception e ->
        if tracing then
          trace_chunk tr ~w ~idx ~cid ~t0 ~t1:(Obs.now ()) ~cached:false
            ~ok:false;
        raise e)
  in
  let should_stop () =
    Atomic.get abort <> None || Campaign.stop_requested ()
  in
  let workers = min domains n in
  let claims = Array.make (max workers 1) (-1) in
  let warmup_s = ref 0.0 in
  if n > 0 then begin
    let ctx0 = worker_init () in
    if workers > 1 then begin
      let rec first_open c =
        if c = n then None
        else if cached sup (lo_chunk + c) = None then Some (lo_chunk + c)
        else first_open (c + 1)
      in
      Option.iter
        (fun idx ->
          let t_warm = if instrument then Obs.now () else 0.0 in
          body.warm ctx0 idx;
          if instrument then warmup_s := Obs.now () -. t_warm)
        (first_open 0)
    end;
    let cursor = Atomic.make 0 in
    let work w ctx =
      let mine = ref 0 in
      let rec loop () =
        if not (should_stop ()) then begin
          let c = Atomic.fetch_and_add cursor 1 in
          if c < n then begin
            (try process w ctx c
             with e -> ignore (Atomic.compare_and_set abort None (Some e)));
            incr mine;
            loop ()
          end
        end
      in
      loop ();
      claims.(w) <- !mine
    in
    let spawned =
      List.init (workers - 1) (fun w ->
          Domain.spawn (fun () -> work (w + 1) (worker_init ())))
    in
    work 0 ctx0;
    List.iter Domain.join spawned
  end;
  let completed =
    Array.fold_left (fun k x -> if x >= 0 then k + 1 else k) 0 counts
  in
  if completed < n then begin
    (* abnormal exit: persist what we have, then raise *)
    flush sup;
    match Atomic.get abort with
    | Some e -> raise e
    | None ->
      raise
        (Campaign.Interrupted
           { completed; total = n; checkpoint = resume_token sup })
  end;
  (match Atomic.get abort with Some e -> raise e | None -> ());
  if instrument then
    record_run obs ~engine:engine_label ~trials:range_trials ~chunks:n
      ~workers ~wall_s:(Obs.now () -. t_start) ~warmup_s:!warmup_s ~chunk_times
      ~claims ~resumed:(Atomic.get resumed) ~retried:(Atomic.get retried)
      ~timeouts:(Atomic.get timeouts);
  Array.fold_left ( + ) 0 counts

(* One engine run of [trials] in chunks of [chunk]: resolve the shared
   controls, open the run's progress reporter and span, and hand [k]
   the chunk count and a function counting the failures of chunks
   [lo, hi).  [engine] keys the campaign job; [engine_label] names the
   run in spans and metrics; [label] names its progress line. *)
let count_run ?domains ?obs ?campaign ?chunk_timeout ?retries ?backoff ?chaos
    ~engine ~engine_label ~label ~trials ~chunk ~seed ~worker_init body k =
  if trials < 0 then invalid_arg "Mc.Runner: trials must be >= 0";
  let domains = resolve_domains domains in
  let obs = resolve_obs obs in
  let sup =
    counting_sup ?campaign ?chunk_timeout ?retries ?backoff ?chaos ~engine
      ~seed ~trials ~chunk ()
  in
  let body = body sup (Rng.root seed) in
  let nchunks = (trials + chunk - 1) / chunk in
  let progress = Obs.Progress.create ~label ~total:nchunks in
  let tr = trace_run ~engine_label ~seed ~trials ~chunk ~slots:domains in
  let count lo_chunk hi_chunk =
    run_chunk_range ~obs ~progress ~tr ~domains ~chunk ~trials ~lo_chunk
      ~hi_chunk ~sup ~engine_label ~worker_init body
  in
  match k ~nchunks count with
  | result ->
    trace_run_finish tr ~interrupted:false;
    Obs.Progress.finish progress;
    result
  | exception e ->
    trace_run_finish tr ~interrupted:true;
    Obs.Progress.abandon progress;
    raise e

(* ---------------------------------------------------- scalar engine *)

(* Chunk [idx] runs trials [idx·chunk, min trials ((idx+1)·chunk)) on
   the stream [Rng.split root idx]; a supervised attempt checks the
   watchdog and the chaos trial hook before each trial. *)
let scalar_body ~chunk ~trials trial sup root =
  let stream idx = Rng.to_state (Rng.split root idx) in
  let last idx = min trials ((idx + 1) * chunk) - 1 in
  let chaos_on = not (Chaos.is_none sup.chaos) in
  { fast =
      (fun ctx idx ->
        let rng = stream idx and n = ref 0 in
        for i = idx * chunk to last idx do
          if trial ctx rng i then incr n
        done;
        !n);
    attempt =
      (fun ctx idx ~attempt ~deadline ->
        let rng = stream idx and n = ref 0 in
        for i = idx * chunk to last idx do
          check_deadline sup deadline;
          if chaos_on then
            sup.chaos.Chaos.on_trial ~chunk:idx ~attempt ~trial:i;
          if trial ctx rng i then incr n
        done;
        !n);
    warm = (fun ctx idx -> ignore (trial ctx (stream idx) (idx * chunk))) }

let default_min_trials = 1000

let estimate_scalar ?domains ?chunk ?obs ?campaign ?chunk_timeout ?retries
    ?backoff ?chaos ?z ?target_half_width ?(min_trials = default_min_trials)
    ~trials ~seed ~worker_init trial =
  if min_trials < 1 then invalid_arg "Mc.Runner: min_trials must be >= 1";
  let chunk = resolve_chunk ~trials chunk in
  let obs = resolve_obs obs in
  (* One supervision bundle for every batch of the early-stopping
     loop: cached per-chunk counts replay identically, so a resumed
     early-stopped run revisits the same batch boundaries and stops
     at the same point as the uninterrupted run. *)
  count_run ?domains ~obs ?campaign ?chunk_timeout ?retries ?backoff ?chaos
    ~engine:"scalar" ~engine_label:"scalar" ~label:"mc" ~trials ~chunk ~seed
    ~worker_init (scalar_body ~chunk ~trials trial)
    (fun ~nchunks count ->
      match target_half_width with
      | None -> Stats.estimate ?z ~failures:(count 0 nchunks) ~trials ()
      | Some target ->
        (* Geometric batches at fixed chunk boundaries: the stop
           decision after each batch depends only on aggregate counts,
           so early stopping is as domain-count-invariant as the
           counts are.  The floor [min_trials] is never undercut. *)
        let floor_trials = min trials (max 1 min_trials) in
        let chunks_for t = min nchunks ((t + chunk - 1) / chunk) in
        let trace ~done_chunks ~done_trials (e : Stats.estimate) ~stopped =
          Obs.event obs "mc.early_stop_batch"
            [ ("done_chunks", Obs.Json.Int done_chunks);
              ("done_trials", Obs.Json.Int done_trials);
              ("failures", Obs.Json.Int e.Stats.failures);
              ("half_width", Obs.Json.Float (Stats.half_width e));
              ("target", Obs.Json.Float target);
              ("stopped", Obs.Json.Bool stopped) ]
        in
        let rec go done_chunks failures =
          let done_trials = min trials (done_chunks * chunk) in
          let e = Stats.estimate ?z ~failures ~trials:done_trials () in
          if done_chunks >= nchunks then begin
            if done_chunks > 0 then
              trace ~done_chunks ~done_trials e ~stopped:true;
            e
          end
          else if done_trials >= floor_trials && Stats.half_width e <= target
          then begin
            trace ~done_chunks ~done_trials e ~stopped:true;
            e
          end
          else begin
            if done_chunks > 0 then
              trace ~done_chunks ~done_trials e ~stopped:false;
            let next_chunks =
              if done_trials = 0 then chunks_for floor_trials
              else max (done_chunks + 1) (chunks_for (2 * done_trials))
            in
            let next_chunks = min nchunks next_chunks in
            go next_chunks (failures + count done_chunks next_chunks)
          end
        in
        go 0 0)

(* ----------------------------------------------------- batch engine

   One chunk = one tile of [tile_width / 64] 64-shot lanes.  The batch
   function returns one int64 per lane; bit k of lane j is the outcome
   of shot [base + 64*j + k].  The body masks each lane to its live
   shots and popcounts.

   Cross-width determinism: lane [j] of tile [c] covers the same 64
   shots as the width-64 chunk [c * lanes + j] and runs on that
   chunk's RNG stream, [Rng.split root (c * lanes + j)] — so provided
   the batch function gives each lane its own key's draw sequence
   (Frame.Sampler tiles do), the aggregate is bit-identical for every
   tile width as well as for every domain count.  Supervision mirrors
   the scalar engine, with two adaptations: the watchdog deadline is
   checked after the (uninterruptible) batch call, and chaos
   [on_trial] hooks do not apply (a tile has no per-trial boundary). *)

let word_size = 64

let popcount64 x =
  let open Int64 in
  let x = sub x (logand (shift_right_logical x 1) 0x5555555555555555L) in
  let x =
    add
      (logand x 0x3333333333333333L)
      (logand (shift_right_logical x 2) 0x3333333333333333L)
  in
  let x = logand (add x (shift_right_logical x 4)) 0x0F0F0F0F0F0F0F0FL in
  to_int (shift_right_logical (mul x 0x0101010101010101L) 56)

let live_mask count =
  if count >= word_size then -1L
  else Int64.sub (Int64.shift_left 1L count) 1L

let batch_body ~tile_width ~trials batch sup root =
  let lanes = tile_width / word_size in
  let words ctx c =
    let base = c * tile_width in
    batch ctx
      (Array.init lanes (fun j -> Rng.split root ((c * lanes) + j)))
      ~base ~count:(min tile_width (trials - base))
  in
  let tile ctx c =
    let ws = words ctx c in
    if Array.length ws < lanes then
      invalid_arg "Mc.Runner: batch returned fewer words than lanes";
    let n = ref 0 in
    for j = 0 to lanes - 1 do
      (* lane j's shots from [trials] on are masked off *)
      let live = trials - (c * tile_width) - (j * word_size) in
      if live > 0 then
        n := !n + popcount64 (Int64.logand ws.(j) (live_mask live))
    done;
    !n
  in
  { fast = tile;
    attempt =
      (fun ctx c ~attempt:_ ~deadline ->
        let n = tile ctx c in
        check_deadline sup deadline;
        n);
    (* the kernel call alone: a short word array raises in the tile
       that counts it, inside supervision *)
    warm = (fun ctx c -> ignore (words ctx c)) }

(* ------------------------------------------------------------ models *)

type 'ctx rare_model = {
  fault_model : Subset.model;
  evaluate : 'ctx -> Subset.fault array -> bool;
}

type 'ctx model = {
  m_worker_init : unit -> 'ctx;
  m_trial : ('ctx -> Random.State.t -> int -> bool) option;
  m_batch :
    ('ctx -> Rng.key array -> base:int -> count:int -> int64 array) option;
  m_rare : 'ctx rare_model option;
}

let model ~worker_init ?trial ?batch ?rare () =
  if trial = None && batch = None && rare = None then
    invalid_arg "Mc.Runner.model: at least one of ?trial ?batch ?rare";
  { m_worker_init = worker_init; m_trial = trial; m_batch = batch;
    m_rare = rare }

let scalar trial =
  { m_worker_init = (fun () -> ());
    m_trial = Some (fun () rng i -> trial rng i);
    m_batch = None;
    m_rare = None }

let supported_engines m =
  List.filter_map
    (fun x -> x)
    [ Option.map (fun _ -> "scalar") m.m_trial;
      Option.map (fun _ -> "batch") m.m_batch;
      Option.map (fun _ -> "rare") m.m_rare ]
  |> String.concat ", "

let missing m ~wanted ~capability =
  invalid_arg
    (Printf.sprintf
       "Mc.Runner: the %s engine needs a model with %s; this model supports \
        engines: %s"
       wanted capability (supported_engines m))

let require_trial m =
  match m.m_trial with
  | Some t -> t
  | None -> missing m ~wanted:"scalar" ~capability:"a ?trial function"

let require_batch m =
  match m.m_batch with
  | Some b -> b
  | None -> missing m ~wanted:"batch" ~capability:"a ?batch kernel"

let require_rare m =
  match m.m_rare with
  | Some r -> r
  | None -> missing m ~wanted:"rare" ~capability:"a ?rare fault model"

let reject_chunk ~engine = function
  | None -> ()
  | Some _ ->
    invalid_arg
      (Printf.sprintf
         "Mc.Runner: ?chunk does not apply to the %s engine" engine)

(* ------------------------------------------------- rare-event engine

   Weight-class subset sampling (see Subset): each weight class of the
   model's fault space runs as its own counting ledger through the
   chunk loop with the scalar body — enumerated classes evaluate
   unranked configurations by trial index, sampled classes draw uniform
   configurations from the chunk's RNG stream.  Class w runs on seed
   [Rng.derive seed [w]] under campaign engine "rare:w<w>", so classes
   never collide in a checkpoint store and each inherits the scalar
   engine's determinism, supervision and resume behavior wholesale. *)

let estimate_rare ?domains ?chunk ?obs ?campaign ?chunk_timeout ?retries
    ?backoff ?chaos ?z ?(config = Engine.default_rare) ~seed m =
  let rare = require_rare m in
  let { Engine.max_weight; samples_per_class; enum_cutoff } = config in
  let fm = rare.fault_model in
  Subset.validate fm;
  let plan = Subset.plan fm ~max_weight ~samples_per_class ~enum_cutoff in
  (* Class-level progress: a long enumerated class advances its own
     chunk reporter, but the campaign-level view is "classes done" —
     without it FTQC_PROGRESS sits silent between classes. *)
  let progress =
    Obs.Progress.create ~label:"rare classes" ~total:(List.length plan)
  in
  let rare_id =
    Obs.Trace.span_id
      [ "rare"; Campaign.label (); string_of_int seed;
        string_of_int max_weight; string_of_int samples_per_class ]
  in
  let run_classes () =
    List.map
      (fun (cls : Subset.cls) ->
        let w = cls.weight in
        let trial =
          if cls.exhaustive then fun ctx _rng i ->
            rare.evaluate ctx (Subset.unrank fm ~weight:w ~index:i)
          else fun ctx rng _i ->
            rare.evaluate ctx (Subset.sample fm ~weight:w rng)
        in
        let trials = cls.evals in
        let chunk = resolve_chunk ~trials chunk in
        let failures =
          (* the class span parents the class's run span (the run
             below picks it up as the ambient parent) *)
          Obs.Trace.timed ~cat:"runner"
            ~name:(Printf.sprintf "weight class w=%d" w)
            ~id:(Obs.Trace.span_id [ rare_id; "w" ^ string_of_int w ])
            ~args:
              [ ("weight", Obs.Json.Int w);
                ("evals", Obs.Json.Int trials);
                ("exhaustive", Obs.Json.Bool cls.exhaustive) ]
            (fun () ->
              count_run ?domains ?obs ?campaign ?chunk_timeout ?retries
                ?backoff ?chaos
                ~engine:(Printf.sprintf "rare:w%d" w)
                ~engine_label:"rare" ~label:"mc" ~trials ~chunk
                ~seed:(Rng.derive seed [ w ]) ~worker_init:m.m_worker_init
                (scalar_body ~chunk ~trials trial)
                (fun ~nchunks count -> count 0 nchunks))
        in
        Obs.Progress.step progress;
        { Stats.weight = w;
          prob = cls.prob;
          evals = trials;
          failures;
          exhaustive = cls.exhaustive })
      plan
  in
  let traced () =
    Obs.Trace.timed ~cat:"runner" ~name:"rare estimate" ~id:rare_id
      ~args:
        [ ("seed", Obs.Json.Int seed);
          ("max_weight", Obs.Json.Int max_weight);
          ("classes", Obs.Json.Int (List.length plan)) ]
      run_classes
  in
  match traced () with
  | classes ->
    Obs.Progress.finish progress;
    Subset.weighted ?z ~model:fm ~max_weight classes
  | exception e ->
    Obs.Progress.abandon progress;
    raise e

(* ------------------------------------- unified, engine-polymorphic API *)

let estimate ?domains ?chunk ?obs ?campaign ?chunk_timeout ?retries ?backoff
    ?chaos ?(engine = `Scalar) ?z ?target_half_width ?min_trials ~trials
    ~seed m =
  let reject_target name =
    match target_half_width with
    | None -> ()
    | Some _ ->
      invalid_arg
        (Printf.sprintf
           "Mc.Runner: ?target_half_width requires the scalar engine (got \
            %s)"
           name)
  in
  match (engine : Engine.t) with
  | `Scalar ->
    estimate_scalar ?domains ?chunk ?obs ?campaign ?chunk_timeout ?retries
      ?backoff ?chaos ?z ?target_half_width ?min_trials ~trials ~seed
      ~worker_init:m.m_worker_init (require_trial m)
  | `Batch { Engine.tile_width } ->
    reject_target "batch";
    reject_chunk ~engine:"batch" chunk;
    let batch = require_batch m in
    if tile_width < word_size || tile_width mod word_size <> 0 then
      invalid_arg "Mc.Runner: tile_width must be a positive multiple of 64";
    (* Campaign chunks are whole tiles, so width-64 runs keep the exact
       pre-tile job identity and old checkpoints stay replayable; other
       widths get their own job key via [chunk]. *)
    let failures =
      count_run ?domains ?obs ?campaign ?chunk_timeout ?retries ?backoff
        ?chaos ~engine:"batch" ~engine_label:"batch" ~label:"mc-batch"
        ~trials ~chunk:tile_width ~seed ~worker_init:m.m_worker_init
        (batch_body ~tile_width ~trials batch)
        (fun ~nchunks count -> count 0 nchunks)
    in
    Stats.estimate ?z ~failures ~trials ()
  | `Rare config ->
    reject_target "rare";
    Stats.weighted_to_estimate
      (estimate_rare ?domains ?chunk ?obs ?campaign ?chunk_timeout ?retries
         ?backoff ?chaos ?z ~config ~seed m)

(* Every engine's count is its estimate's: under [`Rare] that is the
   raw failing-evaluation total ([Stats.weighted_to_estimate]). *)
let failures ?domains ?chunk ?obs ?campaign ?chunk_timeout ?retries ?backoff
    ?chaos ?engine ~trials ~seed m =
  (estimate ?domains ?chunk ?obs ?campaign ?chunk_timeout ?retries ?backoff
     ?chaos ?engine ~trials ~seed m)
    .Stats.failures
