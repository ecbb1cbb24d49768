(* Threading model: connection handlers, workers and the progress
   clock are systhreads (they block on sockets, the job queue, job
   conditions and the clock's pipe); the actual parallelism lives
   inside each job, where Mc.Runner fans trials out over OCaml 5
   domains (Domain.join releases the runtime lock, so other threads
   keep serving).  *)

type config = {
  socket : string;
  max_queue : int;
  workers : int;
  cache_capacity : int;
  domains : int option;
  progress_interval : float;
  fleet : Fleet.config option;
  limit : Qos.limit;
}

let config ?(max_queue = 32) ?(workers = 2) ?(cache_capacity = 128) ?domains
    ?(progress_interval = 1.0) ?fleet ?(limit = Qos.unlimited) ~socket () =
  if max_queue < 1 then invalid_arg "Server.config: max_queue must be >= 1";
  if workers < 1 then invalid_arg "Server.config: workers must be >= 1";
  (* a waiter sends a frame each time its deadline passes: a zero
     interval would stream frames back to back *)
  if not (progress_interval > 0.0) then
    invalid_arg "Server.config: progress_interval must be > 0";
  { socket; max_queue; workers; cache_capacity; domains; progress_interval;
    fleet; limit }

(* ------------------------------------------------------- estimators *)

(* Single-process request execution lives in [Exec] (the fleet shares
   it for shard computation); re-exported here for compatibility. *)
let execute = Exec.execute

(* Admission cost of a request, for deficit-round-robin fairness:
   total trial volume across the request's cells. *)
let est_cost (est : Protocol.estimator) =
  match est with
  | Steane_memory { trials; _ }
  | Toric_memory { trials; _ }
  | Toric_noisy { trials; _ }
  | Toric_circuit { trials; _ }
  | Css_memory { trials; _ } -> trials
  | Toric_scan { ls; ps; trials; _ } ->
    trials * List.length ls * List.length ps
  | Pseudothreshold { eps_list; trials; _ } ->
    trials * List.length eps_list

(* ------------------------------------------------------------- jobs *)

type job_state =
  | Queued
  | Running
  | Finished of (Protocol.payload, string) result

type job = {
  key : string;  (* canonical request string: cache/coalescing key *)
  khash : string;  (* display/scope form of [key] *)
  est : Protocol.estimator;
  tenant : string;  (* admitting tenant (coalesced joiners may differ) *)
  started : float;  (* admission time *)
  jlock : Mutex.t;
  changed : Condition.t;
      (* broadcast under [jlock] when the state changes, and by the
         progress clock when a waiter's next frame is due *)
  mutable state : job_state;
}

(* The progress clock: one thread per daemon that wakes each waiter
   when its next progress frame is due.  A waiter pushes
   [(now + progress_interval, job)] with [now] read under [lock], so
   the FIFO is in deadline order and the clock only looks at its head.
   The clock sleeps in [Unix.select] on [wake_r] until the head's
   deadline (unbounded when nothing is pending); a push into an empty
   FIFO, and the stop, write one byte to [wake_w]. *)
type progress_clock = {
  lock : Mutex.t;
  due : (float * job) Queue.t;
  wake_r : Unix.file_descr;
  wake_w : Unix.file_descr;  (* non-blocking *)
  mutable stopped : bool;
}

type t = {
  cfg : config;
  obs : Obs.t;
  cache : Protocol.payload Cache.t;
  queue : job Qos.t;  (* two-level DRR scheduler, not a plain FIFO *)
  limiter : Qos.limiter;
  fleet : Fleet.t option;
  inflight : (string, job) Hashtbl.t;  (* key -> job, under [ilock] *)
  ilock : Mutex.t;
  started_at : float;
  busy : int Atomic.t;  (* workers currently executing *)
  mutable conns : (Thread.t * Unix.file_descr) list;  (* under [clock] *)
  clock : Mutex.t;
  progress : progress_clock;
}

(* ------------------------------------------------- request tracing *)

(* Every span of a request's lifecycle hangs off one deterministic
   root id derived from the canonical request bytes, so traces of the
   same request line up run to run.  Coalesced joiners repeat the
   request span id — legal in the trace schema (children are valid
   under any occurrence of their parent). *)
let req_span_id khash = Obs.Trace.span_id [ "svc"; "request"; khash ]

let short_hash khash =
  if String.length khash > 8 then String.sub khash 0 8 else khash

(* The progress view of a job: the most recently created live
   reporter scoped to this request (the innermost phase — e.g. the
   current cell of a scan). *)
let job_progress khash =
  List.fold_left
    (fun acc (v : Obs.Progress.view) ->
      if v.v_scope = khash then Some v else acc)
    None
    (Obs.Progress.snapshot ())

let job_state j =
  Mutex.lock j.jlock;
  let s = j.state in
  Mutex.unlock j.jlock;
  s

let wake_waiters j =
  Mutex.lock j.jlock;
  Condition.broadcast j.changed;
  Mutex.unlock j.jlock

let set_job_state j s =
  Mutex.lock j.jlock;
  j.state <- s;
  Condition.broadcast j.changed;
  Mutex.unlock j.jlock

(* --------------------------------------------------- progress clock *)

let clock_create () =
  let wake_r, wake_w = Unix.pipe ~cloexec:true () in
  Unix.set_nonblock wake_w;
  { lock = Mutex.create (); due = Queue.create (); wake_r; wake_w;
    stopped = false }

(* Under [c.lock].  A full pipe already holds a pending wake-up. *)
let clock_wake c =
  try ignore (Unix.single_write_substring c.wake_w "x" 0 1)
  with Unix.Unix_error ((EAGAIN | EWOULDBLOCK), _, _) -> ()

(* [clock_schedule c job dt] — have the clock wake [job]'s waiters [dt]
   seconds from now, and return that deadline. *)
let clock_schedule c job dt =
  Mutex.lock c.lock;
  let deadline = Obs.now () +. dt in
  if Queue.is_empty c.due && not c.stopped then clock_wake c;
  Queue.push (deadline, job) c.due;
  Mutex.unlock c.lock;
  deadline

let clock_run c =
  let buf = Bytes.create 64 in
  let rec loop () =
    Mutex.lock c.lock;
    let now = Obs.now () in
    let rec pop_due acc =
      match Queue.peek_opt c.due with
      | Some (deadline, job) when deadline <= now ->
        ignore (Queue.pop c.due);
        pop_due (job :: acc)
      | _ -> acc
    in
    let fired = pop_due [] in
    let timeout =
      match Queue.peek_opt c.due with
      | Some (deadline, _) -> deadline -. now
      | None -> -1.0 (* unbounded *)
    in
    let stopped = c.stopped in
    Mutex.unlock c.lock;
    List.iter wake_waiters fired;
    if not stopped then begin
      (match Unix.select [ c.wake_r ] [] [] timeout with
      | [], _, _ -> ()
      | _ :: _, _, _ -> ignore (Unix.read c.wake_r buf 0 (Bytes.length buf))
      | exception Unix.Unix_error (EINTR, _, _) -> ());
      loop ()
    end
  in
  loop ()

(* Stop the clock running on thread [th], join it and close its pipe. *)
let clock_stop c th =
  Mutex.lock c.lock;
  c.stopped <- true;
  clock_wake c;
  Mutex.unlock c.lock;
  Thread.join th;
  Unix.close c.wake_r;
  Unix.close c.wake_w

(* ---------------------------------------------------------- workers *)

let worker t =
  let rec loop () =
    match Qos.pop t.queue with
    | None -> ()
    | Some job ->
      Obs.set_gauge t.obs "svc.queue_depth" (float_of_int (Qos.depth t.queue));
      let rid = req_span_id job.khash in
      if Obs.Trace.enabled () then
        (* the queue-wait interval is only known once the pop happens,
           so it is emitted retroactively from the admission time *)
        Obs.Trace.emit
          { Obs.Trace.id = Obs.Trace.span_id [ rid; "queue" ];
            parent = rid;
            name = "queue wait";
            cat = "svc";
            start_s = job.started;
            dur_s = Obs.now () -. job.started;
            args = [ ("key", Obs.Json.String job.khash) ] };
      set_job_state job Running;
      Atomic.incr t.busy;
      let result =
        (* scope: reporters created while executing are tagged with
           the request hash, so [await_job] and [handle_status] can
           attribute runner completion to this job.  The ambient trace
           parent re-roots the runner's spans under this request. *)
        try
          Ok
            (Obs.Progress.with_scope job.khash (fun () ->
                 Obs.Trace.with_parent rid (fun () ->
                     Obs.Trace.timed ~cat:"svc" ~name:"execute"
                       ~id:(Obs.Trace.span_id [ rid; "exec" ])
                       ~args:
                         [ ( "estimator",
                             Obs.Json.String (Protocol.estimator_name job.est)
                           ) ]
                       (fun () ->
                         match t.fleet with
                         | Some fleet -> Fleet.execute fleet job.est
                         | None ->
                           execute ?domains:t.cfg.domains ~obs:t.obs job.est))))
        with exn -> Error (Printexc.to_string exn)
      in
      Atomic.decr t.busy;
      (match result with
      | Ok payload -> Cache.add t.cache job.key payload
      | Error _ -> ());
      (* drop from the coalescing table before publishing the state,
         so late arrivals go to the cache, not to a finished job *)
      Mutex.lock t.ilock;
      Hashtbl.remove t.inflight job.key;
      Mutex.unlock t.ilock;
      set_job_state job (Finished result);
      Obs.incr t.obs "svc.jobs_done";
      loop ()
  in
  loop ()

(* ------------------------------------------------------ connections *)

let send fd j = Codec.write fd j

let finish_request t fd ~key ~khash ~est_name ~t0 ~cached ~coalesced payload =
  let wall = Obs.now () -. t0 in
  (* record latency before the reply goes out: once the client has the
     result frame, a status request must already see these series *)
  Obs.observe_histogram t.obs "svc.request_latency_s" wall;
  (* per-estimator latency, for `ftqc_client top` and status *)
  Obs.observe_histogram t.obs
    (Printf.sprintf "svc.request_latency_s.%s" est_name)
    wall;
  Obs.Trace.timed ~cat:"svc" ~name:"encode result"
    ~id:(Obs.Trace.span_id [ req_span_id khash; "encode" ])
    (fun () ->
      send fd (Protocol.meta_frame ~cached ~coalesced ~wall_s:wall);
      send fd (Protocol.result_frame ~key payload))

(* Wait for [job] to finish, streaming progress frames.  The waiter
   blocks on the job's condition.  The worker broadcasts it when the
   job ends, so the reply leaves at once; the progress clock
   broadcasts it when this waiter's next frame is due, one
   [progress_interval] after the wait began or after its previous
   frame.  Coalesced joiners wait on the same condition, each with its
   own deadline.  No wake-up is needed at shutdown: the drain joins
   the workers, which finish every job first. *)
let await_job t fd ~coalesced ~t0 job =
  let interval = t.cfg.progress_interval in
  let rec loop deadline =
    Mutex.lock job.jlock;
    let rec next () =
      match job.state with
      | (Queued | Running) when Obs.now () < deadline ->
        Condition.wait job.changed job.jlock;
        next ()
      | state -> state
    in
    let state = next () in
    Mutex.unlock job.jlock;
    match state with
    | Finished (Ok payload) ->
      finish_request t fd ~key:job.key ~khash:job.khash
        ~est_name:(Protocol.estimator_name job.est) ~t0 ~cached:false
        ~coalesced payload
    | Finished (Error msg) ->
      send fd (Protocol.error_frame ~code:"failed" ~message:msg ())
    | Queued | Running ->
      (* sample the runner's own completion for this job (reporters
         are scoped by request hash); every waiter — primary and
         coalesced joiners alike — gets the enriched frame *)
      let completed, total, phase =
        match job_progress job.khash with
        | Some v -> (Some v.v_done, Some v.v_total, Some v.v_label)
        | None -> (None, None, None)
      in
      send fd
        (Protocol.progress_frame ?completed ?total ?phase ~key:job.key
           ~state:(match state with Running -> "running" | _ -> "queued")
           ~elapsed_s:(Obs.now () -. job.started)
           ());
      loop (clock_schedule t.progress job interval)
  in
  loop (clock_schedule t.progress job interval)

let handle_run t fd ~tenant ~high est =
  let req = Protocol.Run est in
  let key = Protocol.to_canonical req in
  let khash = Protocol.hash req in
  let est_name = Protocol.estimator_name est in
  let rid = req_span_id khash in
  Obs.Trace.timed ~cat:"svc"
    ~name:(Printf.sprintf "request %s %s" est_name (short_hash khash))
    ~id:rid
    ~args:
      [ ("estimator", Obs.Json.String est_name);
        ("key", Obs.Json.String khash) ]
  @@ fun () ->
  let t0 = Obs.now () in
  Obs.incr t.obs "svc.requests";
  Obs.incr t.obs (Printf.sprintf "svc.requests.%s" est_name);
  Obs.incr t.obs (Printf.sprintf "svc.tenant.%s.requests" tenant);
  (* front-door rate limit: spend one token per run request before any
     work happens; an empty bucket sheds load with the exact refill
     time as the retry-after hint *)
  match Qos.admit t.limiter ~tenant ~now:(Obs.now ()) with
  | `Retry_after s ->
    Obs.incr t.obs "svc.rate_limited";
    Obs.incr t.obs (Printf.sprintf "svc.tenant.%s.rate_limited" tenant);
    send fd
      (Protocol.error_frame ~retry_after_s:s ~code:"overloaded"
         ~message:
           (Printf.sprintf "tenant %S over rate limit, retry in %.3fs" tenant
              s)
         ())
  | `Ok -> (
  let cached =
    Obs.Trace.timed ~cat:"svc" ~name:"cache lookup"
      ~id:(Obs.Trace.span_id [ rid; "cache" ])
      (fun () -> Cache.find t.cache key)
  in
  match cached with
  | Some payload ->
    Obs.incr t.obs "svc.cache_hits";
    send fd (Protocol.ack_frame ~key:khash ~state:"cached");
    finish_request t fd ~key ~khash ~est_name ~t0 ~cached:true
      ~coalesced:false payload
  | None -> (
    Obs.incr t.obs "svc.cache_misses";
    (* Coalesce onto an in-flight job for the same canonical request,
       or admit a new one (bounded; reject, never hang). *)
    let verdict =
      Obs.Trace.timed ~cat:"svc" ~name:"admission"
        ~id:(Obs.Trace.span_id [ rid; "admit" ])
      @@ fun () ->
      Mutex.lock t.ilock;
      let verdict =
        match Hashtbl.find_opt t.inflight key with
        | Some job -> `Join job
        | None -> (
          let job =
            {
              key;
              khash;
              est;
              tenant;
              started = t0;
              jlock = Mutex.create ();
              changed = Condition.create ();
              state = Queued;
            }
          in
          match Qos.push t.queue ~tenant ~high ~cost:(est_cost est) job with
          | Ok () ->
            Hashtbl.replace t.inflight key job;
            `Fresh job
          | Error `Overloaded -> `Overloaded
          | Error `Closed -> `Closed)
      in
      Mutex.unlock t.ilock;
      verdict
    in
    match verdict with
    | `Join job ->
      Obs.incr t.obs "svc.coalesced";
      send fd (Protocol.ack_frame ~key:khash ~state:"coalesced");
      await_job t fd ~coalesced:true ~t0 job
    | `Fresh job ->
      Obs.set_gauge t.obs "svc.queue_depth" (float_of_int (Qos.depth t.queue));
      send fd (Protocol.ack_frame ~key:khash ~state:"queued");
      await_job t fd ~coalesced:false ~t0 job
    | `Overloaded ->
      Obs.incr t.obs "svc.overloaded";
      Obs.incr t.obs (Printf.sprintf "svc.tenant.%s.overloaded" tenant);
      (* saturated: shed load with a hint scaled to the backlog — one
         progress interval per queued job is a deliberately rough but
         monotone proxy for drain time *)
      let hint =
        Float.max 0.1
          (t.cfg.progress_interval *. float_of_int (Qos.depth t.queue))
      in
      send fd
        (Protocol.error_frame ~retry_after_s:hint ~code:"overloaded"
           ~message:
             (Printf.sprintf "queue full (%d queued, capacity %d)"
                (Qos.depth t.queue) (Qos.capacity t.queue))
           ())
    | `Closed ->
      send fd
        (Protocol.error_frame ~code:"shutting_down"
           ~message:"daemon is shutting down" ())))

let handle_status t fd =
  Obs.incr t.obs "svc.requests";
  let now = Obs.now () in
  (* one row per in-flight request, with live runner completion *)
  let jobs =
    Mutex.lock t.ilock;
    let js = Hashtbl.fold (fun _ j acc -> j :: acc) t.inflight [] in
    Mutex.unlock t.ilock;
    List.sort (fun a b -> compare a.started b.started) js
    |> List.map (fun j ->
           let state =
             match job_state j with
             | Running -> "running"
             | Queued -> "queued"
             | Finished _ -> "finishing"
           in
           let progress =
             match job_progress j.khash with
             | None -> []
             | Some v ->
               [ ("completed", Obs.Json.Int v.v_done);
                 ("total", Obs.Json.Int v.v_total);
                 ("phase", Obs.Json.String v.v_label) ]
           in
           Obs.Json.Obj
             ([ ("key", Obs.Json.String j.khash);
                ( "estimator",
                  Obs.Json.String (Protocol.estimator_name j.est) );
                ("state", Obs.Json.String state);
                ("elapsed_s", Obs.Json.Float (now -. j.started)) ]
             @ progress))
  in
  (* fleet section: worker-process registry + lifecycle counters *)
  let fleet =
    match t.fleet with
    | None -> None
    | Some f ->
      let s = Fleet.stats f in
      Some
        (Obs.Json.Obj
           [ ("size", Obs.Json.Int s.s_size);
             ("alive", Obs.Json.Int s.s_alive);
             ("spawned", Obs.Json.Int s.s_spawned);
             ("restarts", Obs.Json.Int s.s_restarts);
             ("redispatched", Obs.Json.Int s.s_redispatched);
             ("hangs", Obs.Json.Int s.s_hangs);
             ( "workers",
               Obs.Json.List
                 (List.map
                    (fun (slot, gen, pid) ->
                      Obs.Json.Obj
                        [ ("slot", Obs.Json.Int slot);
                          ("gen", Obs.Json.Int gen);
                          ("pid", Obs.Json.Int pid) ])
                    s.s_workers) ) ])
  in
  (* tenants section: queued work per tenant (QoS scheduler rows) *)
  let tenants =
    match Qos.tenants t.queue with
    | [] -> None
    | rows ->
      Some
        (List.map
           (fun (name, qh, qn) ->
             Obs.Json.Obj
               [ ("tenant", Obs.Json.String name);
                 ("queued_high", Obs.Json.Int qh);
                 ("queued_normal", Obs.Json.Int qn) ])
           rows)
  in
  send fd
    (Protocol.status_frame ~workers:t.cfg.workers ~busy:(Atomic.get t.busy)
       ~jobs ?fleet ?tenants
       ~uptime_s:(now -. t.started_at)
       ~queue_depth:(Qos.depth t.queue) ~queue_capacity:(Qos.capacity t.queue)
       ~cache_length:(Cache.length t.cache)
       ~cache_capacity:(Cache.capacity t.cache) ~metrics:(Obs.metrics_json t.obs)
       ())

let handle_frame t fd j =
  let req =
    match Protocol.check_frame j with
    | Error msg -> Error msg
    | Ok "request" -> (
      match Protocol.frame_field j "body" with
      | None -> Error "request frame: missing body"
      | Some body -> Protocol.request_of_json body)
    | Ok other -> Error (Printf.sprintf "unexpected %s frame" other)
  in
  (* QoS hints ride at frame level, outside the canonical body *)
  let tenant =
    match Protocol.frame_field j "tenant" with
    | Some (Obs.Json.String s) when s <> "" -> s
    | _ -> "anon"
  in
  let high =
    match Protocol.frame_field j "priority" with
    | Some (Obs.Json.String "high") -> true
    | _ -> false
  in
  match req with
  | Error msg ->
    send fd (Protocol.error_frame ~code:"bad_request" ~message:msg ())
  | Ok (Run est) -> handle_run t fd ~tenant ~high est
  | Ok Status -> handle_status t fd
  | Ok Ping ->
    Obs.incr t.obs "svc.requests";
    send fd Protocol.pong_frame
  | Ok Shutdown ->
    Obs.incr t.obs "svc.requests";
    send fd Protocol.ok_frame;
    Mc.Campaign.request_stop ()

let handle_conn t fd =
  let rec loop () =
    match Codec.read fd with
    | Error `Closed -> ()
    | Error (`Bad msg) ->
      (try send fd (Protocol.error_frame ~code:"bad_frame" ~message:msg ())
       with _ -> ())
    | Ok (j, _) ->
      (match (try Ok (handle_frame t fd j) with exn -> Error exn) with
      | Ok () -> loop ()
      | Error _ -> ())
  in
  (try loop () with _ -> ());
  (* deregister before closing so the shutdown sweep never touches a
     closed (possibly reused) descriptor *)
  Mutex.lock t.clock;
  t.conns <- List.filter (fun (_, fd') -> fd' != fd) t.conns;
  Mutex.unlock t.clock;
  try Unix.close fd with Unix.Unix_error _ -> ()

(* ------------------------------------------------------------ setup *)

(* A socket file can be left behind by a crashed daemon.  Probe it:
   a live listener answers the connect; a stale file refuses, and is
   safe to replace. *)
let claim_socket path =
  if Sys.file_exists path then begin
    let probe = Unix.socket PF_UNIX SOCK_STREAM 0 in
    let live =
      try
        Unix.connect probe (ADDR_UNIX path);
        true
      with Unix.Unix_error _ -> false
    in
    (try Unix.close probe with Unix.Unix_error _ -> ());
    if live then
      failwith (Printf.sprintf "Svc.Server: %s: daemon already running" path);
    try Unix.unlink path with Unix.Unix_error _ -> ()
  end

let run ?(obs = Obs.create ()) cfg =
  (* a client that hangs up before its reply, or a connection shut
     down by the drain below, must cost one handler an EPIPE, not the
     daemon its life (the fleet sets the same for its worker pipes) *)
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore
   with Invalid_argument _ -> ());
  claim_socket cfg.socket;
  let listen_fd = Unix.socket ~cloexec:true PF_UNIX SOCK_STREAM 0 in
  (* fleet first: worker processes must exist before jobs can pop *)
  let fleet = Option.map (Fleet.create ~obs) cfg.fleet in
  let t =
    {
      cfg;
      obs;
      cache = Cache.create ~capacity:cfg.cache_capacity;
      queue = Qos.create ~capacity:cfg.max_queue ();
      limiter = Qos.limiter cfg.limit;
      fleet;
      inflight = Hashtbl.create 16;
      ilock = Mutex.create ();
      started_at = Obs.now ();
      busy = Atomic.make 0;
      conns = [];
      clock = Mutex.create ();
      progress = clock_create ();
    }
  in
  let progress_th = Thread.create clock_run t.progress in
  (* Publish mode: runner progress reporters register (silently) so
     await_job/handle_status can sample in-flight completion.  The
     previous value is restored on exit — the daemon may be embedded
     in a test binary that runs other suites after it. *)
  let prev_publish = Obs.Progress.publishing () in
  Obs.Progress.set_publish true;
  Fun.protect
    ~finally:(fun () ->
      Obs.Progress.set_publish prev_publish;
      clock_stop t.progress progress_th;
      (try Unix.close listen_fd with Unix.Unix_error _ -> ());
      try Unix.unlink cfg.socket with Unix.Unix_error _ -> ())
    (fun () ->
      Unix.bind listen_fd (ADDR_UNIX cfg.socket);
      Unix.listen listen_fd 64;
      let workers = List.init cfg.workers (fun _ -> Thread.create worker t) in
      (* accept loop: select with a timeout so the campaign stop flag
         (signal handler or shutdown request) is noticed promptly *)
      while not (Mc.Campaign.stop_requested ()) do
        match Unix.select [ listen_fd ] [] [] 0.2 with
        | [], _, _ -> ()
        | _ :: _, _, _ ->
          (* cloexec: restarted fleet workers must not inherit client
             connections (an inherited fd would defeat EOF detection) *)
          let fd, _ = Unix.accept ~cloexec:true listen_fd in
          (* register under the lock so the handler can't deregister
             before its entry exists *)
          Mutex.lock t.clock;
          let th = Thread.create (fun () -> handle_conn t fd) () in
          t.conns <- (th, fd) :: t.conns;
          Mutex.unlock t.clock
        | exception Unix.Unix_error (EINTR, _, _) -> ()
      done;
      (* drain: workers finish queued jobs (pop empties the queue
         before yielding None), waiters then see Finished and reply *)
      Qos.close t.queue;
      List.iter Thread.join workers;
      Option.iter Fleet.shutdown t.fleet;
      Mutex.lock t.clock;
      let conns = t.conns in
      t.conns <- [];
      Mutex.unlock t.clock;
      (* nudge any connection still blocked in read, then collect *)
      List.iter
        (fun (_, fd) ->
          try Unix.shutdown fd SHUTDOWN_ALL with Unix.Unix_error _ -> ())
        conns;
      List.iter (fun (th, _) -> Thread.join th) conns)
