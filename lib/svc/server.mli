(** The [ftqcd] daemon: a Unix-domain-socket server over the
    library's Monte-Carlo estimators.

    Request lifecycle: a connection thread parses one [ftqc-rpc/1]
    request, consults the LRU {!Cache} (hit → immediate byte-identical
    reply), otherwise coalesces onto an in-flight job with the same
    canonical key or enqueues a new one on the bounded {!Qos} queue
    (overflow → structured [overloaded] error).  A pool of worker
    threads drains the queue, driving {!Mc.Runner}-based estimators —
    whose counts are domain-count-invariant, so a cached, coalesced or
    fresh reply to the same canonical request (seed included) carries
    bit-identical failure counts.  Each waiting connection, primary or
    coalesced joiner, blocks on its job's condition variable.  The
    worker broadcasts it when the job ends, so the reply leaves at
    once: a [meta] frame (cache/coalescing flags, wall time), then the
    deterministic [result] frame.  Until then one progress clock per
    daemon wakes each waiter every [progress_interval], the first time
    one interval after its wait began, to send a [progress] frame with
    the runner's live completion.

    Telemetry: the handle passed to {!run} (or a fresh live one)
    accumulates [svc.*] series — request/hit/miss/coalesced/overloaded
    counters, a queue-depth gauge, per-request latency histogram — and
    every [mc.*] series the runner records; a [status] request
    returns the whole registry.

    Shutdown rides the campaign signal path:
    [Mc.Campaign.install_signal_handlers] (or a [shutdown] request,
    or {!Mc.Campaign.request_stop}) raises the stop flag; the accept
    loop notices, drains queued jobs, joins the workers, closes every
    connection, stops the progress clock and removes the socket
    file. *)

type config = {
  socket : string;  (** Unix-domain socket path *)
  max_queue : int;  (** admission limit: queued (not yet running) jobs *)
  workers : int;  (** worker threads driving estimators *)
  cache_capacity : int;  (** LRU result-cache entries *)
  domains : int option;
      (** [?domains] forwarded to {!Mc.Runner} (None = engine default);
          counts do not depend on it *)
  progress_interval : float;
      (** seconds between progress frames (> 0) *)
  fleet : Fleet.config option;
      (** [Some cfg] shards jobs over a multi-process {!Fleet};
          [None] executes in-process *)
  limit : Qos.limit;  (** per-tenant front-door rate limit *)
}

(** [config ~socket ()] — defaults: [max_queue 32], [workers 2],
    [cache_capacity 128], [domains None], [progress_interval 1.0],
    no fleet, no rate limit. *)
val config :
  ?max_queue:int ->
  ?workers:int ->
  ?cache_capacity:int ->
  ?domains:int ->
  ?progress_interval:float ->
  ?fleet:Fleet.config ->
  ?limit:Qos.limit ->
  socket:string ->
  unit ->
  config

(** [execute ?domains ?obs est] — run one estimator synchronously
    (the function worker threads apply); exposed so tests and bench
    probes can compare service replies against direct runs. *)
val execute :
  ?domains:int -> ?obs:Obs.t -> Protocol.estimator -> Protocol.payload

(** [run ?obs cfg] — bind the socket and serve until the campaign
    stop flag ({!Mc.Campaign.stop_requested}) turns true; then clean
    up (socket file removed) and return.  Raises [Failure] if the
    socket path is in use by a live daemon; a stale socket file (no
    listener) is replaced.  Call from a thread to embed a daemon
    in-process. *)
val run : ?obs:Obs.t -> config -> unit
