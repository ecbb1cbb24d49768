(** Crash-safe checkpointing for Monte-Carlo campaigns.

    A campaign store records, per {e job} — identified by (label,
    engine, seed, trials, chunk size), everything that determines the
    deterministic chunk ledger — the failure count of every completed
    chunk.  {!Runner} consults the store before executing a chunk and
    records each freshly computed one; since chunk [c] always runs on
    [Rng.split root c] and results merge in chunk order, a run
    interrupted at an arbitrary point and resumed from its checkpoint
    produces **bit-identical** counts to an uninterrupted run, at any
    domain count.

    On disk a store is one [ftqc-checkpoint/1] JSON document, always
    written via [Obs.Json.write_atomic_with] (temp file in the same
    directory + rename): at every instant the file is a complete,
    parseable checkpoint.  A crash loses at most the chunks recorded
    since the last flush (at most [flush_every − 1]); those are simply
    recomputed on resume.  Truncated, corrupted or schema-mismatched
    files are rejected by {!load} with a diagnostic — never repaired
    into a wrong resume.

    Flush cost: each job keeps its chunk entries rendered up to the
    contiguous run of chunks recorded from index 0, so a flush renders
    only the chunks recorded since the previous flush (plus any still
    waiting behind a gap in that run), then streams the kept text into
    the temp file.  The whole ledger is re-rendered only on a job's
    first flush after {!load} and after a chunk inside the run is
    recorded again.  The file's bytes are unchanged by this: every
    flush writes exactly [Obs.Json.to_string (to_json t)].

    Caveat: the job key cannot see the trial function itself.  Resume
    a checkpoint only with the same binary and experiment selection
    (the experiments CLI scopes keys with per-experiment labels and
    [Rng.derive]d seeds, so distinct experiments never collide). *)

(** The on-disk schema identifier, ["ftqc-checkpoint/1"]. *)
val schema_version : string

(** Job key: every field that pins the deterministic chunk ledger. *)
type job = {
  label : string;  (** scoping label, e.g. the experiment name; "" if unscoped *)
  engine : string;  (** "scalar" or "batch" *)
  seed : int;
  trials : int;
  chunk : int;  (** chunk size in trials (the batch engine uses 64) *)
}

type t

(** [create ?flush_every ?fsync file] — start a fresh campaign.
    Errors if [file] already exists (resume it instead, or remove it);
    otherwise immediately writes an empty checkpoint so a resume token
    exists from the first instant.  [flush_every] (default 8) bounds
    how many recorded chunks may be lost to a crash; [fsync] (default
    false) additionally forces each flush to disk before the rename. *)
val create : ?flush_every:int -> ?fsync:bool -> string -> (t, string) result

(** [load ?flush_every ?fsync file] — reopen an existing checkpoint.
    Missing, truncated, corrupted or out-of-range documents yield
    [Error] with a filename-prefixed diagnostic. *)
val load : ?flush_every:int -> ?fsync:bool -> string -> (t, string) result

(** [in_memory ()] — a store that never touches the filesystem
    ({!file} returns [""]; flushes are no-ops).  Same thread-safe
    find/record surface as a disk store; used as the fleet
    coordinator's per-request re-dispatch ledger and as a worker's
    range-restricted replay ledger. *)
val in_memory : unit -> t

(** The checkpoint file path ([""] for an {!in_memory} store). *)
val file : t -> string

(** [find t ~job ~chunk] — cached failure count of a completed chunk,
    if recorded.  Thread-safe. *)
val find : t -> job:job -> chunk:int -> int option

(** [record t ~job ~chunk ~failures] — record a completed chunk and
    flush to disk if [flush_every] records have accumulated.
    Thread-safe (called from worker domains). *)
val record : t -> job:job -> chunk:int -> failures:int -> unit

(** [completed t ~job] — number of chunks recorded for [job]. *)
val completed : t -> job:job -> int

(** [jobs t] — all job keys in the store, sorted. *)
val jobs : t -> job list

(** [flush t] — force an atomic write of the current state. *)
val flush : t -> unit

(** [to_json t] — the current state as a checkpoint document (sorted,
    so equal stores render byte-identically). *)
val to_json : t -> Obs.Json.t

(** [validate json] — check a parsed document against the
    [ftqc-checkpoint/1] schema: schema tag, per-job field types,
    chunk indices in range and duplicate-free, every count within
    [0, trials-in-chunk].  Returns the job count. *)
val validate : Obs.Json.t -> (int, string) result

(** {1 Ambient store}

    Set from the main domain (e.g. by the experiments CLI after
    parsing [--checkpoint]/[--resume]); every counting entry point of
    {!Runner} consults it by default, so checkpointing reaches all
    [_mc] drivers without widening their signatures. *)

val set_current : t option -> unit
val current : unit -> t option

(** [with_label l f] — scope job keys created under [f] with label
    [l] (e.g. the experiment name), restoring the previous label
    after. *)
val with_label : string -> (unit -> 'a) -> 'a

(** The current ambient label ("" if none). *)
val label : unit -> string

(** {1 Graceful stop}

    {!install_signal_handlers} routes SIGINT/SIGTERM to a flag that
    workers poll between chunks; the runner then flushes the
    checkpoint and raises {!Interrupted} so the caller can emit a
    partial manifest carrying a resume token instead of dying
    silently. *)

exception
  Interrupted of { completed : int; total : int; checkpoint : string option }

val install_signal_handlers : unit -> unit
val request_stop : unit -> unit
val stop_requested : unit -> bool
val reset_stop : unit -> unit
