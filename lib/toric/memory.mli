(** Toric-code memory Monte Carlo (E10): IID X noise of strength p on
    every edge, one round of perfect syndrome measurement, decoding,
    and a homology-class check of the residual.  Below threshold the
    logical failure rate falls with lattice size; above it rises —
    the phase transition behind §7's intrinsically fault-tolerant
    hardware.  (Z noise is the exact mirror image under lattice
    duality, so only the X sector is simulated.) *)

type result = { l : int; p : float; trials : int; failures : int; rate : float }

(** [run ?decoder ~l ~p ~trials rng] — [decoder] is [`Union_find]
    (default) or [`Greedy]. *)
val run :
  ?decoder:[ `Union_find | `Greedy ] ->
  l:int ->
  p:float ->
  trials:int ->
  Random.State.t ->
  result

(** [run_mc ?domains ?obs ?decoder ~l ~p ~trials ~seed ()] — the same
    experiment on the shared {!Mc.Runner} engine: trials fan out over
    OCaml 5 domains, failure counts are bit-identical for any
    [domains].  [?obs] (default {!Obs.none}) forwards to the runner
    for telemetry without perturbing results; likewise below. *)
val run_mc :
  ?domains:int ->
  ?obs:Obs.t ->
  ?decoder:[ `Union_find | `Greedy ] ->
  l:int ->
  p:float ->
  trials:int ->
  seed:int ->
  unit ->
  result

(** [run_batch ?domains ?campaign ?engine ?tile_width ~l ~p ~trials
    ~seed ()] — the bit-sliced engine: 64 shots per word,
    [tile_width / 64] words per tile (default 64; 256/512 are the
    tuned widths), word-wise noise sampling and plaquette syndromes
    ({!Frame}).  It is {!Noisy_memory.run_batch} at one perfect round
    ([rounds = 1], [q = 0]): shots without a defect are judged by
    word-parallel winding, defect shots are matched straight from
    their lane's syndrome words (through the shared syndrome table
    of {!Decoder} up to L = 5, by union-find otherwise, with the same
    edges either way), and each lane's residual is checked and judged
    word-wise.  [`Batch] (default) and [`Scalar] see the identical
    sampled noise (same {!Frame.Sampler} call sequence), so their
    failure counts are bit-identical — across engines, domain counts
    and tile widths;
    [`Scalar] re-runs the per-shot pipeline ({!Lattice.syndrome},
    one-shot decoding, {!Lattice.winding}) as the cross-check /
    baseline.  The legacy [run]/[run_mc] use per-shot [Random.State]
    sampling and keep their historical counts.  [?campaign] threads a
    checkpoint ledger through to {!Mc.Runner.failures}: completed
    tiles are journaled (chunk size = [tile_width]) and skipped on
    resume. *)
val run_batch :
  ?domains:int ->
  ?obs:Obs.t ->
  ?campaign:Mc.Campaign.t ->
  ?engine:[ `Batch | `Scalar ] ->
  ?tile_width:int ->
  l:int ->
  p:float ->
  trials:int ->
  seed:int ->
  unit ->
  result

(** [rare_model ?decoder ~l ~p ()] — the same experiment as an
    explicit fault model for the rare-event engine: one location per
    edge qubit, one kind (an X flip), firing probability [p] — the
    identical IID distribution [run]/[run_mc] sample, so rare and
    plain estimates cross-validate on the same model. *)
val rare_model :
  ?decoder:[ `Union_find | `Greedy ] ->
  l:int ->
  p:float ->
  unit ->
  Gf2.Bitvec.t Mc.Runner.model

(** [run_rare ?config ~l ~p ~seed ()] — weight-class subset estimate
    ({!Mc.Runner.estimate_rare}): exact enumeration of low-weight
    error patterns with analytic binomial prefactors, reaching
    deep-subthreshold failure rates no shot budget can. *)
val run_rare :
  ?domains:int ->
  ?chunk:int ->
  ?obs:Obs.t ->
  ?campaign:Mc.Campaign.t ->
  ?z:float ->
  ?config:Mc.Engine.rare ->
  ?decoder:[ `Union_find | `Greedy ] ->
  l:int ->
  p:float ->
  seed:int ->
  unit ->
  Mc.Stats.weighted
