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

(* Bit-sliced batch engine: 64 shots per word, [tile_width / 64]
   words per tile.  Noise and plaquette syndromes are word-wise; an
   early parity-based split sends clean shots (no defects anywhere)
   through word-parallel winding, and only defect shots fall back to
   the per-shot decoder (at interesting p most shots below threshold
   are clean, so the word path does the bulk of the work).  Defect
   shots of a lane are extracted tile-at-a-time through a 64x64
   block transpose of the error plane and syndrome rows instead of
   per-shot bit-probing ([Plane.shot_vec]) — the matcher front-end is
   batched; only the matching itself stays per shot.  [`Scalar]
   re-runs every extracted shot through the existing
   Lattice.syndrome / Decoder pipeline on the same sampled noise, so
   its counts are bit-identical to [`Batch] by construction.  Each
   worker holds one decoder workspace and one residual buffer. *)
let plaquette_checks lat ~l =
  Array.init (Lattice.num_plaquettes lat) (fun idx ->
      let x = idx mod l and y = idx / l in
      {
        Frame.Program.x_sel = Array.of_list (Lattice.plaquette_edges lat ~x ~y);
        z_sel = [||];
      })

(* Lanes with at least this many defect shots extract them through
   the block transpose; sparser lanes bit-probe per shot (a 64x64
   transpose costs ~6x64 word ops per block, so it amortizes after a
   few shots). *)
let transpose_threshold = 3

let run_batch ?domains ?obs ?campaign ?(engine = `Batch)
    ?(decoder = `Union_find) ?(tile_width = 64) ~l ~p ~trials ~seed () =
  let lat = Lattice.create l in
  let nq = Lattice.num_qubits lat in
  let np = Lattice.num_plaquettes lat in
  if tile_width < 64 || tile_width mod 64 <> 0 then
    invalid_arg "Toric.Memory: tile_width must be a positive multiple of 64";
  let lanes = tile_width / 64 in
  let qubits = Array.init nq Fun.id in
  let prog =
    Frame.Program.make ~n:nq
      [ Frame.Program.Flip_x { qubits; p };
        Frame.Program.Extract (plaquette_checks lat ~l) ]
  in
  let wx_sel, wy_sel = Lattice.winding_selectors lat in
  let eb = (nq + 63) / 64 * 64 and sb = (np + 63) / 64 * 64 in
  let judge (ws, residual) error syndrome fail b =
    Bitvec.blit ~src:error residual;
    (match decoder with
    | `Union_find -> Decoder.correct_into ws syndrome residual
    | `Greedy ->
      Bitvec.xor_into ~src:(Decoder.greedy_decode lat syndrome) residual);
    assert (Bitvec.is_zero (Lattice.syndrome lat residual));
    let wx, wy = Lattice.winding lat residual in
    if wx || wy then fail := Int64.logor !fail (Int64.shift_left 1L b)
  in
  let batch (plane, out, terr, tsyn, dec) keys ~base:_ ~count =
    let sampler = Frame.Sampler.create_tile keys in
    Frame.Plane.clear plane;
    Frame.Program.run_into prog sampler plane out;
    match engine with
    | `Batch ->
      (* early clean/defect split per lane: word path for clean
         shots, transposed extraction + per-shot decode for the
         rest *)
      Array.init lanes (fun j ->
          let live = min 64 (count - (64 * j)) in
          let any = ref 0L in
          for i = 0 to np - 1 do
            any := Int64.logor !any out.((i * lanes) + j)
          done;
          let clean_winding =
            Int64.logor
              (Frame.Plane.parity_x ~lane:j plane wx_sel)
              (Frame.Plane.parity_x ~lane:j plane wy_sel)
          in
          let any = !any in
          let fail = ref (Int64.logand clean_winding (Int64.lognot any)) in
          if any <> 0L then begin
            let nd =
              Mc.Runner.popcount64
                (Int64.logand any (Mc.Runner.live_mask (max live 0)))
            in
            if nd >= transpose_threshold then begin
              Frame.Plane.transpose_x plane ~lane:j terr;
              Frame.Plane.transpose_rows ~src:out ~lanes ~lane:j ~pos:0
                ~nrows:np tsyn;
              for b = 0 to live - 1 do
                if Frame.Plane.bit any b then
                  judge dec
                    (Frame.Plane.shot_of_transposed terr ~len:nq b)
                    (Frame.Plane.shot_of_transposed tsyn ~len:np b)
                    fail b
              done
            end
            else
              for b = 0 to live - 1 do
                if Frame.Plane.bit any b then
                  judge dec
                    (Frame.Plane.extract_shot_x plane ((64 * j) + b))
                    (Frame.Plane.row_shot_vec out ~lanes ~lane:j ~pos:0
                       ~len:np b)
                    fail b
              done
          end;
          !fail)
    | `Scalar ->
      Array.init lanes (fun j ->
          let live = min 64 (count - (64 * j)) in
          let fail = ref 0L in
          for b = 0 to live - 1 do
            let error = Frame.Plane.extract_shot_x plane ((64 * j) + b) in
            judge dec error (Lattice.syndrome lat error) fail b
          done;
          !fail)
  in
  let failures =
    Mc.Runner.failures ?domains ?obs ?campaign
      ~engine:(Mc.Engine.batch ~tile_width ())
      ~trials ~seed
      (Mc.Runner.model
         ~worker_init:(fun () ->
           ( Frame.Plane.create ~width:tile_width nq,
             Array.make (np * lanes) 0L,
             Array.make eb 0L,
             Array.make sb 0L,
             (Decoder.workspace lat, Bitvec.create nq) ))
         ~batch ())
  in
  result ~l ~p ~trials failures

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

let scan ?(decoder = `Union_find) ~ls ~ps ~trials rng =
  List.concat_map
    (fun l -> List.map (fun p -> run ~decoder ~l ~p ~trials rng) ps)
    ls

let scan_mc ?domains ?obs ?(decoder = `Union_find) ~ls ~ps ~trials ~seed () =
  List.concat_map
    (fun l ->
      List.mapi
        (fun i p ->
          run_mc ?domains ?obs ~decoder ~l ~p ~trials
            ~seed:(Mc.Rng.derive seed [ l; i ])
            ())
        ps)
    ls
