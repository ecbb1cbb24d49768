(** Parallel Monte-Carlo chunk loop over OCaml 5 domains, behind one
    engine-polymorphic API.

    A driver describes {e what} to run once, as a {!model} — a scalar
    per-trial predicate, optionally a bit-sliced batch kernel and a
    rare-event fault model over the same experiment — and picks {e how}
    to run it per call with an {!Engine.t}:

    - [`Scalar] (default): one trial per shot on a [Random.State.t]
      stream.  The reference semantics.
    - [`Batch {tile_width}]: 64 shots per word, [tile_width / 64]
      lanes per tile.  Requires [model.batch].
    - [`Rare config]: weight-class subset sampling ({!Subset}).
      Requires [model.rare].  Reports weighted estimates with the
      truncation bound folded into the interval ({!estimate_rare}).

    Selecting an engine the model does not implement raises
    [Invalid_argument] naming the missing capability and the engines
    the model does support.

    All three engines run through one chunk loop, which owns
    scheduling, checkpoint replay, supervision, warm-up and telemetry.
    An engine only supplies the chunk body that counts one chunk's
    failures: a scalar chunk is a run of trials, a batch chunk is one
    tile, and a rare weight class is a scalar run of its own.

    {2 Determinism}

    The trial range is cut into fixed-size chunks whose size depends
    only on the trial count; each chunk runs on its own {!Rng} stream
    ([Rng.split root chunk_index]) and its count lands in its own
    slot.  Consequently the aggregate is **bit-identical for any
    domain count** — [~domains:1] (fully sequential, no spawning) is
    the reference semantics and [~domains:n] is just faster.  Workers
    claim chunks from a shared atomic cursor, so load balancing is
    dynamic even when trial costs vary.

    Batch runs add cross-width determinism: lane [j] of tile [c]
    covers the same 64 shots as the width-64 chunk [c·lanes + j] and
    receives that chunk's key, so counts are bit-identical for every
    tile width too (provided the batch function gives each lane its
    own key's draw sequence — {!Frame.Sampler} tiles do).

    Rare runs execute each weight class as its own deterministic
    chunk ledger (class seed [Rng.derive seed [w]], campaign engine
    ["rare:w<w>"]), so per-class counts — and therefore the weighted
    estimate — inherit the same any-domain-count bit-identity and
    checkpoint/resume behavior.

    [domains] defaults to the [FTQC_DOMAINS] environment variable if
    set, else [Domain.recommended_domain_count ()].

    Warmup: when more than one worker will run, the loop first makes
    one discarded trial (or one tile's kernel call) sequentially, so
    that any [lazy] the trial forces (code tables, decoders) is already
    forced before domains race on it — concurrent [Lazy.force] is
    unsafe in OCaml 5.
    It runs on the first chunk of the range that the checkpoint does
    not hold (for a shard whose other chunks are prefilled, the
    shard's first chunk), with that chunk's own stream and first trial
    index; a range the checkpoint holds entirely (a full replay) skips
    it and computes nothing.
    Trial, batch and rare-evaluate functions therefore must tolerate
    an extra invocation; pure trials trivially do.

    {2 Supervision and checkpointing}

    Every entry point takes watchdog/retry/chaos controls and
    [?campaign:Campaign.t] (default: the ambient {!Campaign.current}
    store, if set):

    - [?chunk_timeout] (seconds, default 0 = off) arms a cooperative
      per-chunk watchdog: the deadline is checked between trials (after
      the kernel call, for a batch tile), so a chunk stalled past the
      timeout is abandoned and retried.
    - [?retries] (default 2) bounds retry attempts per chunk with
      exponential backoff starting at [?backoff] (default 0.1 s,
      doubling per attempt).  A retry re-derives the chunk's RNG
      stream from scratch, so recovery cannot change any count.
      Exhausted retries raise {!Chunk_failed} — after flushing the
      checkpoint, so completed chunks survive.
    - With a campaign store, each completed chunk's count is recorded
      (and periodically flushed, atomically); chunks already in the
      store are replayed from cache, making an interrupted run
      resumed from its checkpoint bit-identical to an uninterrupted
      one — including the stopping point of [target_half_width]
      early-stopping runs, whose batch decisions depend only on
      aggregate counts.
    - When [Campaign.stop_requested] turns true (e.g. a SIGINT routed
      through [Campaign.install_signal_handlers]), workers stop
      claiming chunks, the checkpoint is flushed, and
      [Campaign.Interrupted] is raised with a resume token.
    - [?chaos] (test only, default {!Chaos.none}) injects failures at
      chunk/trial boundaries to exercise all of the above.

    {2 Telemetry}

    Every entry point takes [?obs:Obs.t] (default [Obs.none], whose
    no-op recording keeps the hot path overhead-free).  A live handle
    receives, per engine run: the trial/chunk totals ([mc.trials],
    [mc.chunks], [mc.runs] counters), per-chunk wall times (summary
    and fixed-bucket histogram [mc.chunk_wall_s], folded in chunk
    order; checkpoint-replayed chunks are not observed), chunks
    claimed per worker ([mc.chunks_per_worker]), the sequential warmup
    cost ([mc.warmup_s]), supervision counters ([mc.chunks_resumed],
    [mc.chunk_retries], [mc.chunk_timeouts]), aggregate wall time and
    throughput ([mc.wall_s], [mc.shots_per_s]), an [mc.run] event
    whose [engine] field is ["scalar"], ["batch"] or ["rare"], and —
    under early stopping — one [mc.early_stop_batch] event per batch
    decision.  A rare run emits one [mc.run] per weight class.
    Instrumentation draws no randomness and gates no control flow, so
    results are bit-identical with telemetry on or off. *)

(** The default domain count ([FTQC_DOMAINS] env override, else
    [Domain.recommended_domain_count ()]). *)
val default_domains : unit -> int

(** The environment variable consulted by {!default_domains}
    ("FTQC_DOMAINS"). *)
val env_domains : string

(** Raised when a chunk fails [retries + 1] consecutive attempts;
    carries the final attempt's error.  The checkpoint (if any) is
    flushed first. *)
exception
  Chunk_failed of { chunk : int; attempts : int; message : string }

(** Default retry budget per chunk (2). *)
val default_retries : int

(** [set_default_chunk_timeout t] — ambient watchdog default used
    when an entry point receives no explicit [?chunk_timeout] (the
    CLI sets it from [--chunk-timeout]; initial value 0 = off). *)
val set_default_chunk_timeout : float -> unit

val default_chunk_timeout : unit -> float

(** Default base backoff delay in seconds (0.1, doubling per
    attempt).  Each retry sleep is additionally scaled by a
    deterministic jitter factor in [\[0.5, 1.5)], drawn from a stream
    split off the chunk's own RNG key under a reserved tag — so a
    fleet of workers retrying the same wave of chunks de-synchronizes
    its sleeps, while consuming no draw of any chunk's trial stream
    (counts are unaffected by construction). *)
val default_backoff : float

(** [default_chunk ~trials] — the chunk size an entry point picks
    when the caller passes no [?chunk] (at most 1024 chunks).
    Exported so out-of-process shard planners ([Svc.Exec]) can
    reproduce the exact campaign job key a driver's run will use. *)
val default_chunk : trials:int -> int

(** {1 Models}

    A model bundles everything a driver knows how to execute; the
    engine argument of {!failures}/{!estimate} picks the part to
    run. *)

(** Rare-event capability: an explicit fault model plus a
    deterministic evaluator.  [evaluate ctx faults] must depend only
    on [ctx] (per-worker scratch) and the configuration — it is
    called on enumerated configurations in arbitrary chunk order and
    must be a pure function of the faults. *)
type 'ctx rare_model = {
  fault_model : Subset.model;
  evaluate : 'ctx -> Subset.fault array -> bool;
}

type 'ctx model

(** [model ~worker_init ?trial ?batch ?rare ()] — [worker_init] runs
    once per worker domain (reusable scratch buffers, simulator
    state).  [trial ctx rng i] is the scalar per-shot predicate;
    [batch ctx keys ~base ~count] the bit-sliced kernel (one {!Rng}
    key per lane; bit [k] of word [j] = outcome of shot
    [base + 64·j + k]); [rare] the fault-path capability.  At least
    one part must be given. *)
val model :
  worker_init:(unit -> 'ctx) ->
  ?trial:('ctx -> Random.State.t -> int -> bool) ->
  ?batch:('ctx -> Rng.key array -> base:int -> count:int -> int64 array) ->
  ?rare:'ctx rare_model ->
  unit ->
  'ctx model

(** [scalar trial] — the one-liner for context-free scalar drivers:
    [model ~worker_init:(fun () -> ()) ~trial:(fun () -> trial) ()]. *)
val scalar : (Random.State.t -> int -> bool) -> unit model

(** {1 Counting}

    [?engine] defaults to [`Scalar].  [?chunk] applies to the scalar
    and rare engines (the batch engine's chunk is its tile).
    Checkpointed through [?campaign] (default: the ambient
    {!Campaign.current} store). *)

(** [failures ?engine ~trials ~seed model] — count [true] outcomes:
    the [failures] field of {!estimate} on the same arguments.  Under
    [`Rare] that is the {e raw} number of failing evaluated
    configurations across all weight classes (useful for identity
    checks; the statistically meaningful quantity is
    {!estimate_rare}), and [trials] is ignored in favor of the
    config's per-class budgets. *)
val failures :
  ?domains:int ->
  ?chunk:int ->
  ?obs:Obs.t ->
  ?campaign:Campaign.t ->
  ?chunk_timeout:float ->
  ?retries:int ->
  ?backoff:float ->
  ?chaos:Chaos.t ->
  ?engine:Engine.t ->
  trials:int ->
  seed:int ->
  'ctx model ->
  int

(** The default early-stopping trial floor (1000). *)
val default_min_trials : int

(** [estimate ?engine ?z ?target_half_width ?min_trials ~trials ~seed
    model] — failure-rate estimate with Wilson score interval.  When
    [target_half_width] is given (scalar engine only), trials run in
    geometrically growing batches (at fixed chunk boundaries, so the
    stopping decision is domain-count-invariant too) and stop early
    once the interval half-width drops to the target — but never
    before [min_trials] (default {!default_min_trials}) trials, and
    never beyond [trials].  Early stopping honors the same
    checkpoint/supervision hooks as the straight-through path: a
    resumed run replays cached chunk counts and therefore stops at
    the identical batch boundary.

    Under [`Rare], the returned record is
    [Stats.weighted_to_estimate] of {!estimate_rare}: [rate]/CI are
    the weighted values (truncation bound included in [ci_high]),
    [failures]/[trials] the raw evaluation totals. *)
val estimate :
  ?domains:int ->
  ?chunk:int ->
  ?obs:Obs.t ->
  ?campaign:Campaign.t ->
  ?chunk_timeout:float ->
  ?retries:int ->
  ?backoff:float ->
  ?chaos:Chaos.t ->
  ?engine:Engine.t ->
  ?z:float ->
  ?target_half_width:float ->
  ?min_trials:int ->
  trials:int ->
  seed:int ->
  'ctx model ->
  Stats.estimate

(** [estimate_rare ?config ~seed model] — the full weighted estimate:
    per-class sums, stratified variance, and the truncation bound
    ({!Subset.tail_mass}) folded into the upper CI edge.  Each weight
    class runs as its own supervised, checkpointable chunk ledger
    (campaign engine ["rare:w<w>"], seed [Rng.derive seed [w]]), so
    an interrupted rare campaign resumes bit-identically at any
    domain count. *)
val estimate_rare :
  ?domains:int ->
  ?chunk:int ->
  ?obs:Obs.t ->
  ?campaign:Campaign.t ->
  ?chunk_timeout:float ->
  ?retries:int ->
  ?backoff:float ->
  ?chaos:Chaos.t ->
  ?z:float ->
  ?config:Engine.rare ->
  seed:int ->
  'ctx model ->
  Stats.weighted

(** {1 Batched helpers} *)

(** Shots per lane word (64). *)
val word_size : int

(** [popcount64 w] — number of set bits of [w]. *)
val popcount64 : int64 -> int

(** [live_mask count] — a word with the low [min count 64] bits set
    (the engine's ragged-tail mask; [count >= 64] gives all ones). *)
val live_mask : int -> int64
