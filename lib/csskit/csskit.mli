(** Generic CSS code pipeline: parity-check matrices in — validated
    construction, distance probe, decoder, word-wise batch classifier
    and memory-failure estimators out.

    - The pipeline core ({!Kit}, included here): {!build} / {!t}.
    - {!Zoo}: cyclic and BCH-derived members ([steane7], [golay23],
      [bch15], [bch31]) plus the constructions behind them.
    - {!Memory}: scalar and bit-sliced memory-failure drivers for any
      pipeline code (the [css-memory] estimator's engine room). *)

include module type of struct
  include Kit
end

module Zoo : module type of Zoo
module Memory : module type of Memory
