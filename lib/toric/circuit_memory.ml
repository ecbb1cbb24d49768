module Bitvec = Gf2.Bitvec

type result = {
  l : int;
  rounds : int;
  noise : Ft.Noise.t;
  trials : int;
  failures : int;
  rate : float;
}

(* a Z string on the given data edges *)
let z_on ~total support =
  List.fold_left
    (fun acc e -> Pauli.mul acc (Pauli.single total e Pauli.Z))
    (Pauli.identity total) support

let logical_z_ops lat ~total =
  let l = Lattice.size lat in
  ( z_on ~total (List.init l (fun y -> Lattice.v_edge lat ~x:0 ~y)),
    z_on ~total (List.init l (fun x -> Lattice.h_edge lat ~x ~y:0)) )

(* Everything a trial needs that is worth building once: lattice,
   space-time graph over [rounds]+1 detection layers (noisy rounds
   plus the final noise-free readout layer), logical operators,
   plaquette checks.  All read-only during trials, so one setup is
   shared across worker domains. *)
type setup = {
  s_l : int;
  lat : Lattice.t;
  nq : int;
  np : int;
  total : int;
  space_time : Decoder.space_time;
  z1 : Pauli.t;
  z2 : Pauli.t;
  plaq_ops : Pauli.t array;
}

let make_setup ~l ~rounds =
  if rounds < 1 then invalid_arg "Circuit_memory.run: rounds >= 1";
  let lat = Lattice.create l in
  let nq = Lattice.num_qubits lat in
  let np = Lattice.num_plaquettes lat in
  let total = nq + np in
  let space_time = Decoder.space_time lat ~layers:(rounds + 1) in
  let z1, z2 = logical_z_ops lat ~total in
  let plaq_ops =
    Array.init np (fun p ->
        z_on ~total (Lattice.plaquette_edges lat ~x:(p mod l) ~y:(p / l)))
  in
  { s_l = l; lat; nq; np; total; space_time; z1; z2; plaq_ops }

let trial_one st ~rounds ~noise rng =
  let { s_l = l; lat; nq; np; total; space_time; z1; z2; plaq_ops } = st in
  begin
    let sim = Ft.Sim.create ~n:total ~noise rng in
    let tab = Ft.Sim.tableau sim in
    let prev = Bitvec.create np in
    let defects = Array.make (np * (rounds + 1)) false in
    let data_qubits = List.init nq Fun.id in
    for t = 0 to rounds - 1 do
      (* one noisy measurement round: each plaquette through its own
         bare ancilla (|+⟩, four CZs, X readout) — Kitaev's
         single-ancilla scheme *)
      let observed = Bitvec.create np in
      for p = 0 to np - 1 do
        let anc = nq + p in
        Ft.Sim.prepare_plus sim anc;
        List.iter
          (fun e -> Ft.Sim.cz sim anc e)
          (Lattice.plaquette_edges lat ~x:(p mod l) ~y:(p / l));
        if Ft.Sim.measure_x sim anc then Bitvec.set observed p true
      done;
      Ft.Sim.tick sim data_qubits;
      for p = 0 to np - 1 do
        if Bitvec.get observed p <> Bitvec.get prev p then
          defects.((t * np) + p) <- true
      done;
      Bitvec.blit ~src:observed prev
    done;
    (* final noise-free layer: the true syndrome *)
    let final = Bitvec.create np in
    Array.iteri
      (fun p op ->
        if Tableau.measure_pauli_rng tab (Ft.Sim.rng sim) op then
          Bitvec.set final p true)
      plaq_ops;
    for p = 0 to np - 1 do
      if Bitvec.get final p <> Bitvec.get prev p then
        defects.((rounds * np) + p) <- true
    done;
    (* decode in space-time and apply the spatial corrections *)
    let correction = Decoder.decode_space_time lat space_time ~defects in
    let cpauli =
      Bitvec.support correction
      |> List.fold_left
           (fun acc e -> Pauli.mul acc (Pauli.single total e Pauli.X))
           (Pauli.identity total)
    in
    Tableau.apply_pauli tab cpauli;
    (* judged by the logical Z loops, which started at +1 *)
    let rng' = Ft.Sim.rng sim in
    let bad1 = Tableau.measure_pauli_rng tab rng' z1 in
    let bad2 = Tableau.measure_pauli_rng tab rng' z2 in
    bad1 || bad2
  end

let result ~l ~rounds ~noise ~trials failures =
  { l;
    rounds;
    noise;
    trials;
    failures;
    rate = float_of_int failures /. float_of_int trials }

let run ~l ~rounds ~noise ~trials rng =
  let st = make_setup ~l ~rounds in
  let failures = ref 0 in
  for _ = 1 to trials do
    if trial_one st ~rounds ~noise rng then incr failures
  done;
  result ~l ~rounds ~noise ~trials !failures

let run_mc ?domains ?obs ~l ~rounds ~noise ~trials ~seed () =
  let st = make_setup ~l ~rounds in
  let failures =
    Mc.Runner.failures ?domains ?obs ~trials ~seed
      (Mc.Runner.scalar (fun rng _ -> trial_one st ~rounds ~noise rng))
  in
  result ~l ~rounds ~noise ~trials failures

(* ------------- propagation-free sampler (Delfosse–Paetznick style)

   The noiseless run of this circuit is fully deterministic: the data
   qubits stay in Z eigenstates throughout (the circuit applies only
   CZ gates, and the fault families below inject only X-type errors),
   so every ancilla X readout and every final stabilizer measurement
   has a predetermined outcome, and each outcome is a GF(2)-linear
   function of the X flips injected so far.  The effect of any single
   fault — the set of detection events it toggles plus the data-X
   footprint it leaves — can therefore be measured exactly by
   injecting it alone into the real tableau simulation, and the
   effect of a multi-fault configuration is the XOR of the
   single-fault effects.  Evaluating a configuration then needs no
   tableau at all: XOR the precomputed dictionaries, run one matching
   call, take one winding parity.

   Fault families, [nq + 5·np] locations per round (loc =
   round · sites + slot):
   - slot in [0, nq):        X on data edge [slot] after the round's
                             measurements (storage errors);
   - slot in [nq, nq+np):    flip of plaquette [slot − nq]'s readout
                             (measurement errors);
   - slot in [nq+np, nq+5np): hook fault — X on leg [k]'s data edge
                             injected right after plaquette [p]'s
                             CZ to that leg (p = (slot−nq−np)/4,
                             k = (slot−nq−np) mod 4), the ancilla
                             feedback path Kitaev's four-XOR remark
                             is about. *)

let dp_sites_per_round st = st.nq + (5 * st.np)
let dp_sites st ~rounds = rounds * dp_sites_per_round st

(* The data edge whose X the fault leaves behind, or -1 (measurement
   flips leave none). *)
let dp_edge st ~loc =
  let lpr = dp_sites_per_round st in
  let slot = loc mod lpr in
  if slot < st.nq then slot
  else if slot < st.nq + st.np then -1
  else begin
    let h = slot - st.nq - st.np in
    let p = h / 4 and k = h mod 4 in
    List.nth (Lattice.plaquette_edges st.lat ~x:(p mod st.s_l) ~y:(p / st.s_l)) k
  end

(* Run the real tableau circuit with zero noise and the given fault
   set injected; return the detection-event pattern.  Deterministic:
   no measurement consumes randomness. *)
let run_faults_sim st ~rounds active =
  let { s_l = l; lat; nq; np; total; plaq_ops; _ } = st in
  let lpr = dp_sites_per_round st in
  let rng = Random.State.make [| 0x5ca1ab1e |] in
  let sim = Ft.Sim.create ~n:total ~noise:Ft.Noise.none rng in
  let tab = Ft.Sim.tableau sim in
  let prev = Bitvec.create np in
  let defects = Array.make (np * (rounds + 1)) false in
  for t = 0 to rounds - 1 do
    let base = t * lpr in
    let observed = Bitvec.create np in
    for p = 0 to np - 1 do
      let anc = nq + p in
      Ft.Sim.prepare_plus sim anc;
      List.iteri
        (fun k e ->
          Ft.Sim.cz sim anc e;
          if active.(base + nq + np + (4 * p) + k) then
            Ft.Sim.inject sim (Pauli.single total e Pauli.X))
        (Lattice.plaquette_edges lat ~x:(p mod l) ~y:(p / l));
      let m = Ft.Sim.measure_x sim anc in
      let m = if active.(base + nq + p) then not m else m in
      if m then Bitvec.set observed p true
    done;
    for e = 0 to nq - 1 do
      if active.(base + e) then
        Ft.Sim.inject sim (Pauli.single total e Pauli.X)
    done;
    for p = 0 to np - 1 do
      if Bitvec.get observed p <> Bitvec.get prev p then
        defects.((t * np) + p) <- true
    done;
    Bitvec.blit ~src:observed prev
  done;
  let final = Bitvec.create np in
  Array.iteri
    (fun p op ->
      if Tableau.measure_pauli_rng tab (Ft.Sim.rng sim) op then
        Bitvec.set final p true)
    plaq_ops;
  for p = 0 to np - 1 do
    if Bitvec.get final p <> Bitvec.get prev p then
      defects.((rounds * np) + p) <- true
  done;
  defects

(* Decode a defect pattern and judge the corrected data error — the
   back half of [trial_one], shared by both evaluation paths. *)
let dp_judge st ~defects ~error =
  let correction = Decoder.decode_space_time st.lat st.space_time ~defects in
  let residual = Bitvec.xor error correction in
  let wx, wy = Lattice.winding st.lat residual in
  wx || wy

type dp_dict = {
  dd_st : setup;
  dd_rounds : int;
  dd_sites : int;
  dd_defects : int list array;  (* per location: toggled defect nodes *)
  dd_edge : int array;  (* per location: data-X footprint edge or -1 *)
}

let dp_dict ~l ~rounds =
  let st = make_setup ~l ~rounds in
  let n = dp_sites st ~rounds in
  let active = Array.make n false in
  let dd_defects =
    Array.init n (fun loc ->
        active.(loc) <- true;
        let defects = run_faults_sim st ~rounds active in
        active.(loc) <- false;
        let nodes = ref [] in
        Array.iteri (fun i d -> if d then nodes := i :: !nodes) defects;
        !nodes)
  in
  let dd_edge = Array.init n (fun loc -> dp_edge st ~loc) in
  { dd_st = st; dd_rounds = rounds; dd_sites = n; dd_defects; dd_edge }

type dp_ctx = { c_defects : bool array; c_error : Bitvec.t }

let dp_ctx st ~rounds =
  { c_defects = Array.make (st.np * (rounds + 1)) false;
    c_error = Bitvec.create st.nq }

let dp_apply dict ctx loc =
  List.iter
    (fun i -> ctx.c_defects.(i) <- not ctx.c_defects.(i))
    dict.dd_defects.(loc);
  let e = dict.dd_edge.(loc) in
  if e >= 0 then Bitvec.flip ctx.c_error e

let dp_reset ctx =
  Array.fill ctx.c_defects 0 (Array.length ctx.c_defects) false;
  Bitvec.clear ctx.c_error

let dp_eval dict ctx faults =
  dp_reset ctx;
  Array.iter (fun f -> dp_apply dict ctx f.Mc.Subset.loc) faults;
  dp_judge dict.dd_st ~defects:ctx.c_defects ~error:ctx.c_error

let dp_model ~l ~rounds ~p () =
  if not (p >= 0.0 && p <= 1.0) then
    invalid_arg "Circuit_memory.dp_model: p must be in [0,1]";
  let dict = dp_dict ~l ~rounds in
  let st = dict.dd_st in
  let n = dict.dd_sites in
  let fault_model = { Mc.Subset.locations = n; kinds = 1; p } in
  (* The scalar trial samples every location IID Bernoulli(p) and
     evaluates through the same dictionary: the propagation-free
     plain-MC comparator over the identical fault model, so the rare
     and plain engines cross-validate like for like. *)
  let trial ctx rng _ =
    dp_reset ctx;
    for loc = 0 to n - 1 do
      if Random.State.float rng 1.0 < p then dp_apply dict ctx loc
    done;
    dp_judge st ~defects:ctx.c_defects ~error:ctx.c_error
  in
  Mc.Runner.model
    ~worker_init:(fun () -> dp_ctx st ~rounds)
    ~trial
    ~rare:{ Mc.Runner.fault_model; evaluate = dp_eval dict }
    ()

let dp_locations ~l ~rounds =
  let st = make_setup ~l ~rounds in
  dp_sites st ~rounds

let run_dp ?domains ?chunk ?obs ?campaign ~l ~rounds ~p ~trials ~seed () =
  Mc.Runner.estimate ?domains ?chunk ?obs ?campaign ~trials ~seed
    (dp_model ~l ~rounds ~p ())

let run_rare ?domains ?chunk ?obs ?campaign ?z ?config ~l ~rounds ~p ~seed ()
    =
  Mc.Runner.estimate_rare ?domains ?chunk ?obs ?campaign ?z ?config ~seed
    (dp_model ~l ~rounds ~p ())

(* Cross-check the XOR dictionary against direct simulation on random
   weight-[weight] fault sets: returns false iff any configuration's
   verdict differs.  (A test hook: exercises the linearity the
   dictionary evaluation rests on.) *)
let dp_self_check ~l ~rounds ~weight ~samples ~seed =
  let dict = dp_dict ~l ~rounds in
  let st = dict.dd_st in
  let fm = { Mc.Subset.locations = dict.dd_sites; kinds = 1; p = 0.5 } in
  let rng = Random.State.make [| seed |] in
  let ctx = dp_ctx st ~rounds in
  let ok = ref true in
  for _ = 1 to samples do
    let faults = Mc.Subset.sample fm ~weight rng in
    let via_dict = dp_eval dict ctx faults in
    let active = Array.make dict.dd_sites false in
    Array.iter (fun f -> active.(f.Mc.Subset.loc) <- true) faults;
    let defects = run_faults_sim st ~rounds active in
    let error = Bitvec.create st.nq in
    Array.iter
      (fun f ->
        let e = dict.dd_edge.(f.Mc.Subset.loc) in
        if e >= 0 then Bitvec.flip error e)
      faults;
    if via_dict <> dp_judge st ~defects ~error then ok := false
  done;
  !ok
