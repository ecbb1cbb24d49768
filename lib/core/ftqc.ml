(** Umbrella module: the full fault-tolerant quantum computation stack
    reproducing Preskill's "Fault-Tolerant Quantum Computation".

    Layering, bottom to top:
    - {!Obs}: telemetry — counters/gauges/timers/histograms merged
      per-worker, a structured-event sink, a dependency-free JSON
      encoder/parser, machine-readable experiment manifests, and the
      opt-in [FTQC_PROGRESS] reporter.
    - {!Mc}: the shared Monte-Carlo engine — splittable deterministic
      RNG streams, a parallel (OCaml 5 domains) map-reduce runner with
      domain-count-invariant results, Wilson-interval estimators —
      instrumented behind an {!Obs.t} handle.
    - {!Gf2}: GF(2) linear algebra (bit vectors, matrices).
    - {!Qmath}: complex scalars, dense matrices, standard gates.
    - {!Group}: finite permutation groups (A₅ and friends, §7.4).
    - {!Pauli}: n-qubit Pauli operators (symplectic form).
    - {!Circuit}: the gate/measurement IR.
    - {!Statevec}: exact state-vector simulation (≤ ~20 qubits).
    - {!Tableau}: stabilizer (Aaronson–Gottesman) simulation.
    - {!Frame}: bit-sliced Pauli-frame batch engine — 64 Monte-Carlo
      shots per machine word, held in unboxed word vectors
      ({!Mc.Words}), word-sampled noise, compiled frame programs (the
      fast path behind the [_batch] drivers).
    - {!Codes}: Hamming, Steane, Shor-9, 5-qubit, CSS, concatenation.
    - {!Csskit}: the generic CSS pipeline — parity-check matrices in;
      validated construction, distance probe, decoder, word-wise
      batch classifier and memory estimators out — plus the
      cyclic/BCH code zoo ([steane7], [golay23], [bch15], [bch31]).
    - {!Ft}: fault-tolerant gadgets — noisy executor, verified cats,
      Shor/Steane EC, transversal gates, FT Toffoli, leakage,
      Monte-Carlo memory experiments.
    - {!Threshold}: concatenation flow equations, big-code scaling,
      factoring resource estimates.
    - {!Toric}: Kitaev's toric code + union-find decoder (§7).
    - {!Anyon}: nonabelian flux-pair computation over A₅ (§7.3–7.4).
    - {!Svc}: the persistent estimation service ([ftqcd]) — a
      Unix-socket daemon with a bounded job queue, request
      coalescing and an LRU result cache over the estimators. *)

module Obs = Obs
module Mc = Mc
module Gf2 = Gf2
module Qmath = Qmath
module Group = Group
module Pauli = Pauli
module Circuit = Circuit
module Statevec = Statevec
module Tableau = Tableau
module Frame = Frame
module Codes = Codes
module Csskit = Csskit
module Ft = Ft
module Threshold = Threshold
module Toric = Toric
module Anyon = Anyon
module Svc = Svc

(** Library version. *)
let version = "1.0.0"
