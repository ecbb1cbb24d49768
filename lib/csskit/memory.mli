(** Memory-failure model for any pipeline-built CSS code, in the
    {!Codes.Pauli_frame} style: each round draws a fresh depolarizing
    error, decodes its syndrome, and XOR-accumulates the residual's
    anticommutation bits against every logical pair; a trial fails if
    any logical is hit after [rounds] rounds (k ≥ 1 codes — the
    k-generic extension of the k = 1 Steane stack).

    The batch driver runs on the bit-sliced {!Frame} engine at any
    tile width.  Per shot, the residual's logical indicators are the
    error's logical parities XOR a function of the syndrome alone (the
    logicals the decoder's correction flips), evaluated 64 shots at a
    time by one of two classifiers, chosen from the code's shape:
    - when both sides have at most {!Kit.max_table_checks} checks and
      k ≤ 62 (every zoo code): the lane's syndrome words are
      block-transposed to one word per shot, and each shot costs two
      lookups into the code's per-side {!Kit.flip_tables} — the
      decoder is a CSS product, so the flipped logicals are the X
      side's for the H_Z syndrome and the Z side's for the H_X one
      (every logical, on both sides, when either side is
      undecodable);
    - otherwise: per-shot syndromes decoded through a per-worker memo
      keyed by the syndrome bitstring.
    The [`Scalar] engine is the cross-check: the identical sampler
    sequence with each shot extracted and classified by the scalar
    decoder — counts are bit-identical to [`Batch] by construction. *)

type engine = [ `Batch | `Scalar ]

(** [memory_trial t decoder ~eps ~rounds rng] — one scalar trial. *)
val memory_trial :
  Kit.t ->
  Codes.Stabilizer_code.decoder ->
  eps:float ->
  rounds:int ->
  Random.State.t ->
  bool

(** [memory_failure_mc t ~eps ~rounds ~trials ~seed ()] — the scalar
    Monte-Carlo estimate (domain-parallel, checkpointable). *)
val memory_failure_mc :
  ?domains:int ->
  ?obs:Obs.t ->
  Kit.t ->
  eps:float ->
  rounds:int ->
  trials:int ->
  seed:int ->
  unit ->
  Mc.Stats.estimate

(** [memory_failure_batch t ~eps ~rounds ~trials ~seed ()] — the
    bit-sliced estimate ([tile_width] ∈ 64·ℕ shots per op);
    [~engine:`Scalar] runs the bit-identical scalar cross-check
    through the same sampler stream. *)
val memory_failure_batch :
  ?domains:int ->
  ?obs:Obs.t ->
  ?engine:engine ->
  ?tile_width:int ->
  Kit.t ->
  eps:float ->
  rounds:int ->
  trials:int ->
  seed:int ->
  unit ->
  Mc.Stats.estimate
