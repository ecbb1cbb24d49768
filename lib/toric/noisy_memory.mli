(** Toric-code memory with *noisy syndrome measurements* — the §7
    regime where the medium is operated at finite temperature and the
    error diagnosis itself is unreliable.

    Errors accumulate over [rounds] measurement rounds: each round,
    every qubit flips with probability [p] and every reported
    plaquette bit is wrong with probability [q]; a final perfect round
    closes the history (the standard memory-experiment convention), so
    one round is plain perfect-measurement memory ({!Memory}).
    Decoding matches *detection events* (differences between
    consecutive syndrome records) in the space-time graph: spatial
    edges are qubit errors, vertical edges are measurement errors.
    The threshold drops from ≈10% (perfect measurement) to a few
    percent — the price of fault tolerance when even looking at the
    system is noisy. *)

type result = {
  l : int;
  rounds : int;
  p : float;
  q : float;
  trials : int;
  failures : int;
  rate : float;
}

(** [run ~l ~rounds ~p ~q ~trials rng]. *)
val run :
  l:int ->
  rounds:int ->
  p:float ->
  q:float ->
  trials:int ->
  Random.State.t ->
  result

(** [run_mc ?domains ?obs ~l ~rounds ~p ~q ~trials ~seed ()] — the
    same experiment on the shared {!Mc.Runner} engine: the space-time
    graph is built once and shared read-only across OCaml 5 domains;
    failure counts are bit-identical for any [domains].  [?obs]
    (default {!Obs.none}) forwards runner telemetry without perturbing
    results; likewise below. *)
val run_mc :
  ?domains:int ->
  ?obs:Obs.t ->
  l:int ->
  rounds:int ->
  p:float ->
  q:float ->
  trials:int ->
  seed:int ->
  unit ->
  result

(** [run_batch ?domains ?campaign ?engine ?tile_width ~l ~rounds ~p ~q
    ~trials ~seed ()] — the bit-sliced engine, and the one toric batch
    kernel ({!Memory.run_batch} is its [rounds = 1], [q = 0] case).
    Per round, qubit-flip and measurement-flip tiles ([tile_width /
    64] words, default 64) are sampled word-wise and turned into
    space-time detection rows; at one round these are the syndrome
    rows.  [`Batch] (default) judges each 64-shot lane word-wise:
    shots with no detection event by their winding alone; the rest
    are matched straight from the lane's detection words (block-
    transposed once a lane has three or more of them) in a
    worker-held {!Decoder.workspace} — through the process-wide
    syndrome table of a graph with at most 62 nodes and 62 edges,
    else by union-find, with the same edges either way — their
    spatial corrections XORed into one word per qubit, and the
    residual checked for zero syndrome on every live shot before its
    winding is read.  A live [?obs] receives, once per tile, the
    counters [toric.shots] (shots judged), [toric.defect_shots]
    (those with a detection event) and [toric.uf_calls] (union-find
    calls; the other defect shots were table hits).  They count every
    tile judged, the runner's warm-up tile and retried tiles
    included, and [toric.uf_calls] depends on what the table held, so
    on earlier runs and domain timing: metrics, never results.
    [`Scalar] re-runs each shot through the one-shot pipeline
    ({!Decoder.decode_space_time}, {!Lattice.syndrome},
    {!Lattice.winding}) on the same sampled noise, so counts are
    bit-identical — across engines, domain counts and tile widths.
    [?campaign] journals completed tiles through
    {!Mc.Runner.failures} (chunk size = [tile_width]) and skips them
    on resume.  [rounds >= 1]. *)
val run_batch :
  ?domains:int ->
  ?obs:Obs.t ->
  ?campaign:Mc.Campaign.t ->
  ?engine:[ `Batch | `Scalar ] ->
  ?tile_width:int ->
  l:int ->
  rounds:int ->
  p:float ->
  q:float ->
  trials:int ->
  seed:int ->
  unit ->
  result
