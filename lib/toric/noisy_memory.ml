module Bitvec = Gf2.Bitvec

type result = {
  l : int;
  rounds : int;
  p : float;
  q : float;
  trials : int;
  failures : int;
  rate : float;
}

(* Build the space-time matching graph once per (l, rounds): node
   (plaq, t) for t in 0..rounds-1; spatial edges replicate the lattice
   adjacency at each time slice, temporal edges link consecutive
   slices.  Edge ids are recorded so spatial corrections can be mapped
   back to qubits. *)
type graph = {
  g : Match_graph.t;
  spatial_qubit : (int, int) Hashtbl.t; (* edge id -> qubit *)
}

let build_graph lat ~rounds =
  let np = Lattice.num_plaquettes lat in
  let g = Match_graph.create ~num_nodes:(np * rounds) in
  let spatial_qubit = Hashtbl.create (Lattice.num_qubits lat * rounds) in
  for t = 0 to rounds - 1 do
    for e = 0 to Lattice.num_qubits lat - 1 do
      let a, b = Lattice.edge_endpoints lat e in
      let id = Match_graph.add_edge g ((t * np) + a) ((t * np) + b) in
      Hashtbl.add spatial_qubit id e
    done;
    if t < rounds - 1 then
      for plaq = 0 to np - 1 do
        ignore (Match_graph.add_edge g ((t * np) + plaq) (((t + 1) * np) + plaq))
      done
  done;
  { g; spatial_qubit }

(* One trial against a prebuilt space-time graph.  The graph and
   lattice are read-only here ([Match_graph.decode] never shares its
   scratch with a concurrent call), so one build is safely shared
   across worker domains. *)
let trial_one lat graph ~rounds ~p ~q rng =
  let nq = Lattice.num_qubits lat in
  let np = Lattice.num_plaquettes lat in
  let error = Bitvec.create nq in
  let prev = Bitvec.create np in
  let defects = Array.make (np * rounds) false in
  let fresh = Bitvec.create nq in
  for t = 0 to rounds - 1 do
    (* new qubit errors this round *)
    Bitvec.randomize ~p rng fresh;
    Bitvec.xor_into ~src:fresh error;
    let sigma = Lattice.syndrome lat error in
    let observed = Bitvec.copy sigma in
    if t < rounds - 1 && q > 0.0 then
      for i = 0 to np - 1 do
        if Random.State.float rng 1.0 < q then Bitvec.flip observed i
      done;
    (* detection events = change since the previous record *)
    for i = 0 to np - 1 do
      if Bitvec.get observed i <> Bitvec.get prev i then
        defects.((t * np) + i) <- true
    done;
    Bitvec.blit ~src:observed prev
  done;
  let selected = Match_graph.decode graph.g ~defects in
  let correction = Bitvec.create nq in
  Array.iteri
    (fun id on ->
      if on then
        match Hashtbl.find_opt graph.spatial_qubit id with
        | Some qubit -> Bitvec.flip correction qubit
        | None -> () (* temporal edge: a diagnosed measurement error *))
    selected;
  let residual = Bitvec.xor error correction in
  assert (Bitvec.is_zero (Lattice.syndrome lat residual));
  let wx, wy = Lattice.winding lat residual in
  wx || wy

let run_with_graph lat graph ~rounds ~p ~q ~trials rng =
  let failures = ref 0 in
  for _ = 1 to trials do
    if trial_one lat graph ~rounds ~p ~q rng then incr failures
  done;
  !failures

let setup ~l ~rounds =
  if rounds < 2 then invalid_arg "Noisy_memory.run: need >= 2 rounds";
  let lat = Lattice.create l in
  (lat, build_graph lat ~rounds)

let result ~l ~rounds ~p ~q ~trials failures =
  { l;
    rounds;
    p;
    q;
    trials;
    failures;
    rate = float_of_int failures /. float_of_int trials }

let run ~l ~rounds ~p ~q ~trials rng =
  let lat, graph = setup ~l ~rounds in
  let failures = run_with_graph lat graph ~rounds ~p ~q ~trials rng in
  result ~l ~rounds ~p ~q ~trials failures

let run_mc ?domains ?obs ~l ~rounds ~p ~q ~trials ~seed () =
  let lat, graph = setup ~l ~rounds in
  let failures =
    Mc.Runner.failures ?domains ?obs ~trials ~seed
      (Mc.Runner.scalar (fun rng _ -> trial_one lat graph ~rounds ~p ~q rng))
  in
  result ~l ~rounds ~p ~q ~trials failures

(* Bit-sliced batch engine, [tile_width / 64] words per tile.  The
   sampling and space-time-defect phase is word-wise and shared
   verbatim by both engines (same sampler call sequence, so identical
   noise); decoding falls back per shot.  Per lane, shots with no
   detection events anywhere skip the matcher and are judged by
   word-parallel winding; the defect shots' final error planes are
   extracted tile-at-a-time through a 64x64 block transpose.  All
   word buffers are row-major: row [i]'s lane [j] at [i * lanes + j]. *)
type batch_ctx = {
  plane : Frame.Plane.t;
  out : int64 array;     (* np rows: one round's syndrome tiles *)
  mw : int64 array;      (* np*rounds rows: measurement-flip tiles *)
  dw : int64 array;      (* np*rounds rows: defect tiles *)
  prev : int64 array;    (* np rows: previous round's observed syndrome *)
  acc : int64 array;     (* nq*rounds rows: accumulated-error snapshots *)
  defects : bool array;  (* np*rounds: one shot's defect pattern *)
  terr : int64 array;    (* transposed error plane, one lane *)
}

let correction_of_selected graph ~nq selected =
  let correction = Bitvec.create nq in
  Array.iteri
    (fun id on ->
      if on then
        match Hashtbl.find_opt graph.spatial_qubit id with
        | Some qubit -> Bitvec.flip correction qubit
        | None -> () (* temporal edge: a diagnosed measurement error *))
    selected;
  correction

(* As in Memory: lanes with at least this many defect shots extract
   their error planes through the block transpose. *)
let transpose_threshold = 3

let run_batch ?domains ?obs ?(engine = `Batch) ?(tile_width = 64) ~l ~rounds
    ~p ~q ~trials ~seed () =
  let lat, graph = setup ~l ~rounds in
  let nq = Lattice.num_qubits lat in
  let np = Lattice.num_plaquettes lat in
  if tile_width < 64 || tile_width mod 64 <> 0 then
    invalid_arg "Toric.Noisy_memory: tile_width must be a positive multiple of 64";
  let lanes = tile_width / 64 in
  let qubits = Array.init nq Fun.id in
  let checks =
    Array.init np (fun idx ->
        let x = idx mod l and y = idx / l in
        {
          Frame.Program.x_sel =
            Array.of_list (Lattice.plaquette_edges lat ~x ~y);
          z_sel = [||];
        })
  in
  let round_prog =
    Frame.Program.make ~n:nq
      [ Frame.Program.Flip_x { qubits; p }; Frame.Program.Extract checks ]
  in
  let qplan = Frame.Sampler.plan q in
  let wx_sel, wy_sel = Lattice.winding_selectors lat in
  let judge error correction fail b =
    let residual = Bitvec.xor error correction in
    let wx, wy = Lattice.winding lat residual in
    if wx || wy then fail := Int64.logor !fail (Int64.shift_left 1L b)
  in
  let match_shot ctx ~lane b =
    for r = 0 to (np * rounds) - 1 do
      ctx.defects.(r) <- Frame.Plane.bit ctx.dw.((r * lanes) + lane) b
    done;
    let selected = Match_graph.decode graph.g ~defects:ctx.defects in
    correction_of_selected graph ~nq selected
  in
  let batch ctx keys ~base:_ ~count =
    let sampler = Frame.Sampler.create_tile keys in
    Frame.Plane.clear ctx.plane;
    Array.fill ctx.prev 0 (np * lanes) 0L;
    for t = 0 to rounds - 1 do
      Frame.Program.run_into round_prog sampler ctx.plane ctx.out;
      Frame.Plane.blit_x ctx.plane ctx.acc (t * nq * lanes);
      for i = 0 to np - 1 do
        let row = i * lanes in
        if t < rounds - 1 && q > 0.0 then
          Frame.Sampler.bernoulli_plan_into sampler qplan ctx.mw
            (((t * np) + i) * lanes)
        else Array.fill ctx.mw (((t * np) + i) * lanes) lanes 0L;
        for j = 0 to lanes - 1 do
          let m = ctx.mw.((((t * np) + i) * lanes) + j) in
          let observed = Int64.logxor ctx.out.(row + j) m in
          ctx.dw.((((t * np) + i) * lanes) + j) <-
            Int64.logxor observed ctx.prev.(row + j);
          ctx.prev.(row + j) <- observed
        done
      done
    done;
    match engine with
    | `Batch ->
      Array.init lanes (fun j ->
          let live = min 64 (count - (64 * j)) in
          let any = ref 0L in
          for r = 0 to (np * rounds) - 1 do
            any := Int64.logor !any ctx.dw.((r * lanes) + j)
          done;
          let clean_winding =
            Int64.logor
              (Frame.Plane.parity_x ~lane:j ctx.plane wx_sel)
              (Frame.Plane.parity_x ~lane:j ctx.plane wy_sel)
          in
          let any = !any in
          let fail = ref (Int64.logand clean_winding (Int64.lognot any)) in
          if any <> 0L then begin
            let nd =
              Mc.Runner.popcount64
                (Int64.logand any (Mc.Runner.live_mask (max live 0)))
            in
            let transposed = nd >= transpose_threshold in
            if transposed then Frame.Plane.transpose_x ctx.plane ~lane:j ctx.terr;
            for b = 0 to live - 1 do
              if Frame.Plane.bit any b then begin
                let correction = match_shot ctx ~lane:j b in
                let error =
                  if transposed then
                    Frame.Plane.shot_of_transposed ctx.terr ~len:nq b
                  else Frame.Plane.extract_shot_x ctx.plane ((64 * j) + b)
                in
                judge error correction fail b
              end
            done
          end;
          !fail)
    | `Scalar ->
      (* re-run the existing per-shot pipeline on the per-round
         snapshots of the same sampled noise *)
      Array.init lanes (fun j ->
          let live = min 64 (count - (64 * j)) in
          let fail = ref 0L in
          for b = 0 to live - 1 do
            let prev_b = Bitvec.create np in
            Array.fill ctx.defects 0 (np * rounds) false;
            for t = 0 to rounds - 1 do
              let error_t =
                Frame.Plane.row_shot_vec ctx.acc ~lanes ~lane:j ~pos:(t * nq)
                  ~len:nq b
              in
              let observed = Bitvec.copy (Lattice.syndrome lat error_t) in
              for i = 0 to np - 1 do
                if Frame.Plane.bit ctx.mw.((((t * np) + i) * lanes) + j) b then
                  Bitvec.flip observed i
              done;
              for i = 0 to np - 1 do
                if Bitvec.get observed i <> Bitvec.get prev_b i then
                  ctx.defects.((t * np) + i) <- true
              done;
              Bitvec.blit ~src:observed prev_b
            done;
            let selected = Match_graph.decode graph.g ~defects:ctx.defects in
            let correction = correction_of_selected graph ~nq selected in
            let error =
              Frame.Plane.row_shot_vec ctx.acc ~lanes ~lane:j
                ~pos:((rounds - 1) * nq) ~len:nq b
            in
            let residual = Bitvec.xor error correction in
            assert (Bitvec.is_zero (Lattice.syndrome lat residual));
            let wx, wy = Lattice.winding lat residual in
            if wx || wy then fail := Int64.logor !fail (Int64.shift_left 1L b)
          done;
          !fail)
  in
  let failures =
    Mc.Runner.failures ?domains ?obs
      ~engine:(Mc.Engine.batch ~tile_width ())
      ~trials ~seed
      (Mc.Runner.model
         ~worker_init:(fun () ->
           {
             plane = Frame.Plane.create ~width:tile_width nq;
             out = Array.make (np * lanes) 0L;
             mw = Array.make (np * rounds * lanes) 0L;
             dw = Array.make (np * rounds * lanes) 0L;
             prev = Array.make (np * lanes) 0L;
             acc = Array.make (nq * rounds * lanes) 0L;
             defects = Array.make (np * rounds) false;
             terr = Array.make ((nq + 63) / 64 * 64) 0L;
           })
         ~batch ())
  in
  result ~l ~rounds ~p ~q ~trials failures

let scan ~ls ~ps ~rounds ~trials rng =
  List.concat_map
    (fun l -> List.map (fun p -> run ~l ~rounds ~p ~q:p ~trials rng) ps)
    ls

let scan_mc ?domains ?obs ~ls ~ps ~rounds ~trials ~seed () =
  List.concat_map
    (fun l ->
      List.mapi
        (fun i p ->
          run_mc ?domains ?obs ~l ~rounds ~p ~q:p ~trials
            ~seed:(Mc.Rng.derive seed [ l; i ])
            ())
        ps)
    ls
