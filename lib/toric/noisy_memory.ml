module Bitvec = Gf2.Bitvec
module W = Mc.Words

type result = {
  l : int;
  rounds : int;
  p : float;
  q : float;
  trials : int;
  failures : int;
  rate : float;
}

(* The per-shot judgment: the residual must have trivial syndrome,
   and the shot fails if it winds the torus. *)
let fails lat ~error ~correction =
  let residual = Bitvec.xor error correction in
  assert (Bitvec.is_zero (Lattice.syndrome lat residual));
  let wx, wy = Lattice.winding lat residual in
  wx || wy

(* One trial against a prebuilt space-time graph of [rounds] layers.
   The graph and lattice are read-only here ([Match_graph.decode]
   never shares its scratch with a concurrent call), so one build is
   safely shared across worker domains. *)
let trial_one lat st ~rounds ~p ~q rng =
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
  fails lat ~error ~correction:(Decoder.decode_space_time lat st ~defects)

let run_with_graph lat st ~rounds ~p ~q ~trials rng =
  let failures = ref 0 in
  for _ = 1 to trials do
    if trial_one lat st ~rounds ~p ~q rng then incr failures
  done;
  !failures

let setup ~l ~rounds =
  if rounds < 1 then invalid_arg "Noisy_memory.run: need >= 1 round";
  let lat = Lattice.create l in
  (lat, Decoder.space_time lat ~layers:rounds)

let result ~l ~rounds ~p ~q ~trials failures =
  { l;
    rounds;
    p;
    q;
    trials;
    failures;
    rate = float_of_int failures /. float_of_int trials }

let run ~l ~rounds ~p ~q ~trials rng =
  let lat, st = setup ~l ~rounds in
  let failures = run_with_graph lat st ~rounds ~p ~q ~trials rng in
  result ~l ~rounds ~p ~q ~trials failures

let run_mc ?domains ?obs ~l ~rounds ~p ~q ~trials ~seed () =
  let lat, st = setup ~l ~rounds in
  let failures =
    Mc.Runner.failures ?domains ?obs ~trials ~seed
      (Mc.Runner.scalar (fun rng _ -> trial_one lat st ~rounds ~p ~q rng))
  in
  result ~l ~rounds ~p ~q ~trials failures

(* The bit-sliced batch kernel, [tile_width / 64] words per tile, and
   the only toric one: plain memory ({!Memory.run_batch}) is its
   one-round, q = 0 case.  Word buffers are unboxed ({!Mc.Words}) and
   row-major, row [i]'s lane [j] at word [i * lanes + j].

   Sampling is word-wise and shared verbatim by both engines (same
   sampler call sequence, so identical noise).  Each round flips
   qubits and extracts the plaquette syndrome; measurement flips
   (none in the final, perfect round) turn it into the observed
   syndrome, and its change since the previous round gives that
   round's detection rows.  At one round the detection rows are the
   syndrome rows.

   [`Batch] judges a lane word-wise.  A lane with no detection event
   is judged by its clean winding alone.  Otherwise each live defect
   shot's detection nodes are read off the lane's rows (through one
   block transpose of them when the lane has [transpose_threshold]
   defect shots or more, by bit-probing below that) and decoded in
   the worker's {!Decoder.workspace}: on a small graph its shared
   syndrome table answers repeats and union-find the rest, with the
   same edges either way.  The selected spatial edges are XORed into
   one correction word per qubit.  The residual (the plane's error
   words XOR corrections) must have zero syndrome on every live shot,
   and its winding parity is the failure word.  A live [?obs] gets,
   per tile, the shots and defect shots judged and the union-find
   calls made.  [`Scalar] re-runs every shot through the one-shot
   pipeline on per-round snapshots of the same noise, so its counts
   equal [`Batch]'s by construction. *)
type batch_ctx = {
  plane : Frame.Plane.t;
  out : W.t;  (* np rows: one round's syndrome *)
  det : W.t;  (* np*rounds rows: detection events ([out] at one round) *)
  mw : W.t;  (* np*rounds rows: measurement flips *)
  prev : W.t;  (* np rows: previous round's observed syndrome *)
  acc : W.t;  (* [`Scalar] only: nq*rounds rows, per-round errors *)
  tdet : W.t;  (* one lane's detection rows, block-transposed *)
  nodes : int array;  (* one shot's detection nodes *)
  corr : W.t;  (* one lane's correction, one word per qubit *)
  dec : Decoder.workspace;
  mutable defect_shots : int;  (* judged so far by this worker *)
}

(* Lanes with at least this many defect shots read their detection
   nodes through the block transpose; sparser lanes bit-probe the
   rows per shot (a 64x64 transpose costs ~6x64 word ops per block,
   so it amortizes after a few shots). *)
let transpose_threshold = 3

(* Index of the lowest set bit of a nonzero word (de Bruijn
   multiplication).  This, [bit] and [parity] are inlined so that
   their int64 argument or result is not boxed on every call. *)
let debruijn = 0x03f79d71b4ca8b09L

let ctz_table =
  let t = Array.make 64 0 in
  for i = 0 to 63 do
    t.(Int64.to_int (Int64.shift_right_logical (Int64.shift_left debruijn i) 58))
    <- i
  done;
  t

let[@inline] ctz w =
  ctz_table.(Int64.to_int
               (Int64.shift_right_logical
                  (Int64.mul (Int64.logand w (Int64.neg w)) debruijn)
                  58))

let[@inline] bit w k = Int64.logand (Int64.shift_right_logical w k) 1L <> 0L

(* Parity of the rows [sel] of lane [lane] of a row-major buffer of
   [lanes]-wide rows. *)
let[@inline] parity words ~lanes ~lane sel =
  let acc = ref 0L in
  for i = 0 to Array.length sel - 1 do
    acc := Int64.logxor !acc (W.get words (8 * ((sel.(i) * lanes) + lane)))
  done;
  !acc

let run_batch ?domains ?(obs = Obs.none) ?campaign ?(engine = `Batch)
    ?(tile_width = 64) ~l ~rounds ~p ~q ~trials ~seed () =
  let lat, st = setup ~l ~rounds in
  let nq = Lattice.num_qubits lat in
  let np = Lattice.num_plaquettes lat in
  if tile_width < 64 || tile_width mod 64 <> 0 then
    invalid_arg "Toric.Noisy_memory: tile_width must be a positive multiple of 64";
  let lanes = tile_width / 64 in
  let nrows = np * rounds in
  let nblocks = (nrows + 63) / 64 in
  let plaq =
    Array.init np (fun i ->
        Array.of_list (Lattice.plaquette_edges lat ~x:(i mod l) ~y:(i / l)))
  in
  let round_prog =
    Frame.Program.make ~n:nq
      [ Frame.Program.Flip_x { qubits = Array.init nq Fun.id; p };
        Frame.Program.Extract
          (Array.map (fun x_sel -> { Frame.Program.x_sel; z_sel = [||] }) plaq)
      ]
  in
  let qplan = Frame.Sampler.plan q in
  let wx_sel, wy_sel = Lattice.winding_selectors lat in
  let snapshots = engine = `Scalar in
  let sample ctx keys =
    let sampler = Frame.Sampler.create_tile keys in
    Frame.Plane.clear ctx.plane;
    if rounds > 1 then W.fill ctx.prev 0 (np * lanes) 0L;
    for t = 0 to rounds - 1 do
      Frame.Program.run_words round_prog sampler ctx.plane ctx.out;
      if snapshots then Frame.Plane.blit_x ctx.plane ctx.acc (t * nq * lanes);
      if rounds > 1 then
        for i = 0 to np - 1 do
          let row = i * lanes and r = ((t * np) + i) * lanes in
          if t < rounds - 1 && q > 0.0 then
            Frame.Sampler.bernoulli_plan_into sampler qplan ctx.mw r
          else W.fill ctx.mw r lanes 0L;
          for j = 0 to lanes - 1 do
            let o = 8 * (row + j) and d = 8 * (r + j) in
            let observed = Int64.logxor (W.get ctx.out o) (W.get ctx.mw d) in
            W.set ctx.det d (Int64.logxor observed (W.get ctx.prev o));
            W.set ctx.prev o observed
          done
        done
    done
  in
  (* shot [b]'s detection nodes into [ctx.nodes], ascending *)
  let transposed_nodes ctx b =
    let count = ref 0 in
    for d = 0 to nblocks - 1 do
      let w = ref (W.get ctx.tdet (8 * ((d * 64) + b))) in
      while !w <> 0L do
        ctx.nodes.(!count) <- (d * 64) + ctz !w;
        incr count;
        w := Int64.logand !w (Int64.sub !w 1L)
      done
    done;
    !count
  in
  let probed_nodes ctx ~lane b =
    let count = ref 0 in
    for r = 0 to nrows - 1 do
      if bit (W.get ctx.det (8 * ((r * lanes) + lane))) b then begin
        ctx.nodes.(!count) <- r;
        incr count
      end
    done;
    !count
  in
  let judge_lane ctx ~live j =
    let any = ref 0L in
    for r = 0 to nrows - 1 do
      any := Int64.logor !any (W.get ctx.det (8 * ((r * lanes) + j)))
    done;
    let any = !any in
    let err = Frame.Plane.x_words ctx.plane in
    let wx = parity err ~lanes ~lane:j wx_sel
    and wy = parity err ~lanes ~lane:j wy_sel in
    let clean = Int64.logand (Int64.logor wx wy) (Int64.lognot any) in
    let mask = Mc.Runner.live_mask (max live 0) in
    let todo = Int64.logand any mask in
    if todo = 0L then clean
    else begin
      let n_todo = Mc.Runner.popcount64 todo in
      ctx.defect_shots <- ctx.defect_shots + n_todo;
      let transposed = n_todo >= transpose_threshold in
      if transposed then
        Frame.Plane.transpose_words ~src:ctx.det ~lanes ~lane:j ~pos:0 ~nrows
          ctx.tdet;
      let corr = ctx.corr in
      W.fill corr 0 nq 0L;
      let rest = ref todo in
      while !rest <> 0L do
        let b = ctz !rest in
        rest := Int64.logand !rest (Int64.sub !rest 1L);
        let count =
          if transposed then transposed_nodes ctx b
          else probed_nodes ctx ~lane:j b
        in
        let s = Decoder.decode_into ctx.dec ~defects:ctx.nodes ~count in
        let sel = Decoder.selected ctx.dec and m = Int64.shift_left 1L b in
        for i = 0 to s - 1 do
          let qb = st.Decoder.qubit.(sel.(i)) in
          if qb >= 0 then W.set corr (8 * qb) (Int64.logxor (W.get corr (8 * qb)) m)
        done
      done;
      (* corr becomes the residual *)
      for qb = 0 to nq - 1 do
        W.set corr (8 * qb)
          (Int64.logxor (W.get corr (8 * qb)) (W.get err (8 * ((qb * lanes) + j))))
      done;
      let syn = ref 0L in
      for i = 0 to np - 1 do
        syn := Int64.logor !syn (parity corr ~lanes:1 ~lane:0 plaq.(i))
      done;
      assert (Int64.logand !syn mask = 0L);
      let wound =
        Int64.logor (parity corr ~lanes:1 ~lane:0 wx_sel)
          (parity corr ~lanes:1 ~lane:0 wy_sel)
      in
      Int64.logor clean (Int64.logand wound todo)
    end
  in
  (* the per-shot reference pipeline *)
  let scalar_lane ctx ~live j =
    let fail = ref 0L in
    for b = 0 to live - 1 do
      let prev = Bitvec.create np in
      let defects = Array.make nrows false in
      for t = 0 to rounds - 1 do
        let error_t =
          Frame.Plane.row_shot_words ctx.acc ~lanes ~lane:j ~pos:(t * nq)
            ~len:nq b
        in
        let observed = Lattice.syndrome lat error_t in
        for i = 0 to np - 1 do
          if bit (W.get ctx.mw (8 * ((((t * np) + i) * lanes) + j))) b then
            Bitvec.flip observed i
        done;
        for i = 0 to np - 1 do
          if Bitvec.get observed i <> Bitvec.get prev i then
            defects.((t * np) + i) <- true
        done;
        Bitvec.blit ~src:observed prev
      done;
      let error =
        Frame.Plane.row_shot_words ctx.acc ~lanes ~lane:j
          ~pos:((rounds - 1) * nq) ~len:nq b
      in
      if fails lat ~error ~correction:(Decoder.decode_space_time lat st ~defects)
      then fail := Int64.logor !fail (Int64.shift_left 1L b)
    done;
    !fail
  in
  let batch ctx keys ~base:_ ~count =
    sample ctx keys;
    let live j = min 64 (count - (64 * j)) in
    match engine with
    | `Batch ->
      let shots0 = ctx.defect_shots and uf0 = Decoder.uf_calls ctx.dec in
      let fails = Array.init lanes (fun j -> judge_lane ctx ~live:(live j) j) in
      if Obs.enabled obs then begin
        Obs.add obs "toric.shots" count;
        Obs.add obs "toric.defect_shots" (ctx.defect_shots - shots0);
        Obs.add obs "toric.uf_calls" (Decoder.uf_calls ctx.dec - uf0)
      end;
      fails
    | `Scalar -> Array.init lanes (fun j -> scalar_lane ctx ~live:(live j) j)
  in
  let failures =
    Mc.Runner.failures ?domains ~obs ?campaign
      ~engine:(Mc.Engine.batch ~tile_width ())
      ~trials ~seed
      (Mc.Runner.model
         ~worker_init:(fun () ->
           let out = W.create (np * lanes) in
           {
             plane = Frame.Plane.create ~width:tile_width nq;
             out;
             det = (if rounds = 1 then out else W.create (nrows * lanes));
             mw = W.create (nrows * lanes);
             prev = W.create (np * lanes);
             acc = (if snapshots then W.create (nq * rounds * lanes) else W.empty);
             tdet = W.create (nblocks * 64);
             nodes = Array.make nrows 0;
             corr = W.create nq;
             dec = Decoder.workspace st;
             defect_shots = 0;
           })
         ~batch ())
  in
  result ~l ~rounds ~p ~q ~trials failures
