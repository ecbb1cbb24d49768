module Bitvec = Gf2.Bitvec

type result = { l : int; p : float; trials : int; failures : int; rate : float }

(* One trial: sample IID X noise into [error] (fully overwritten),
   decode, judge the residual's homology class.  [lat] is immutable
   after creation and a one-shot decode never shares its scratch with
   a concurrent one, so one lattice is safely shared across domains. *)
let trial_one lat ~decoder ~p error rng =
  Bitvec.randomize ~p rng error;
  let syndrome = Lattice.syndrome lat error in
  let correction =
    match decoder with
    | `Union_find -> Decoder.decode lat syndrome
    | `Greedy -> Decoder.greedy_decode lat syndrome
  in
  let residual = Bitvec.xor error correction in
  (* sanity: the residual must have trivial syndrome *)
  assert (Bitvec.is_zero (Lattice.syndrome lat residual));
  let wx, wy = Lattice.winding lat residual in
  wx || wy

let result ~l ~p ~trials failures =
  { l; p; trials; failures; rate = float_of_int failures /. float_of_int trials }

let run ?(decoder = `Union_find) ~l ~p ~trials rng =
  let lat = Lattice.create l in
  let error = Bitvec.create (Lattice.num_qubits lat) in
  let failures = ref 0 in
  for _ = 1 to trials do
    if trial_one lat ~decoder ~p error rng then incr failures
  done;
  result ~l ~p ~trials !failures

let run_mc ?domains ?obs ?(decoder = `Union_find) ~l ~p ~trials ~seed () =
  let lat = Lattice.create l in
  let failures =
    Mc.Runner.failures ?domains ?obs ~trials ~seed
      (Mc.Runner.model
         ~worker_init:(fun () -> Bitvec.create (Lattice.num_qubits lat))
         ~trial:(fun error rng _ -> trial_one lat ~decoder ~p error rng)
         ())
  in
  result ~l ~p ~trials failures

(* The batch engine is the space-time kernel's one-round, q = 0
   case: one perfect round's detection events are its syndrome, and a
   one-layer space-time graph is the plaquette graph. *)
let run_batch ?domains ?obs ?campaign ?engine ?tile_width ~l ~p ~trials ~seed
    () =
  let r =
    Noisy_memory.run_batch ?domains ?obs ?campaign ?engine ?tile_width ~l
      ~rounds:1 ~p ~q:0.0 ~trials ~seed ()
  in
  result ~l ~p ~trials r.Noisy_memory.failures

(* Rare-event fault model: one location per edge qubit, single kind
   (an X flip), firing probability p — the identical IID noise
   [trial_one] samples with [Bitvec.randomize], so the rare and plain
   engines estimate the same quantity. *)
let rare_model ?(decoder = `Union_find) ~l ~p () =
  let lat = Lattice.create l in
  let nq = Lattice.num_qubits lat in
  let fault_model = { Mc.Subset.locations = nq; kinds = 1; p } in
  let evaluate error faults =
    Bitvec.clear error;
    Array.iter (fun f -> Bitvec.set error f.Mc.Subset.loc true) faults;
    let syndrome = Lattice.syndrome lat error in
    let correction =
      match decoder with
      | `Union_find -> Decoder.decode lat syndrome
      | `Greedy -> Decoder.greedy_decode lat syndrome
    in
    let residual = Bitvec.xor error correction in
    let wx, wy = Lattice.winding lat residual in
    wx || wy
  in
  Mc.Runner.model
    ~worker_init:(fun () -> Bitvec.create nq)
    ~rare:{ Mc.Runner.fault_model; evaluate }
    ()

let run_rare ?domains ?chunk ?obs ?campaign ?z ?config ?decoder ~l ~p ~seed ()
    =
  Mc.Runner.estimate_rare ?domains ?chunk ?obs ?campaign ?z ?config ~seed
    (rare_model ?decoder ~l ~p ())
