(* Per-layer measurement from outside the library: each engine
   workload's reps are replayed through the same public calls its
   entry point makes ([Frame.Program.run_into], [Frame.Plane.*],
   [Toric.Decoder.decode], [Csskit.Kit] decoding, [Mc.Campaign.record])
   with a clock read around every call group.  A replay must count
   exactly the failures its entry point counts on the same seed, and
   its stage times must add up to the entry point's single-domain time
   ([closure]); both are checked by the traced run. *)

open Ftqc
open Common
module Plane = Frame.Plane
module Program = Frame.Program
module Bitvec = Gf2.Bitvec

type acc = {
  stage_s : (string, float) Hashtbl.t;
  mutable shots : int;
  mutable defect_shots : int;  (** toric shots with at least one defect *)
  mutable lookups : int;  (** csskit memo lookups *)
  mutable misses : int;  (** csskit memo misses = decoder calls *)
  mutable record_s : float list;  (** campaign find+record, per chunk *)
  mutable flush_s : float list;  (** campaign flush, per flush *)
  mutable bytes : int;  (** checkpoint bytes written *)
  mutable spans_of : string option;  (** parent span while recording spans *)
  mutable scale : float;  (** host-speed factor of the current rep *)
}

let acc () =
  { stage_s = Hashtbl.create 8; shots = 0; defect_shots = 0; lookups = 0;
    misses = 0; record_s = []; flush_s = []; bytes = 0; spans_of = None;
    scale = 1.0 }

let stage a name = Option.value (Hashtbl.find_opt a.stage_s name) ~default:0.0
let total_s a = Hashtbl.fold (fun _ s acc -> acc +. s) a.stage_s 0.0

(* Stage times are kept at reference host speed, like the end-to-end
   ones (see [Common.host_factor]). *)
let add a name dt = Hashtbl.replace a.stage_s name (stage a name +. (dt *. a.scale))

(* Tiles of the first replayed rep that also get one span per call
   (all tiles would flood the trace). *)
let span_tiles = 64

let mark a name ~tile ~part t0 t1 =
  add a name (t1 -. t0);
  match a.spans_of with
  | Some parent when tile < span_tiles ->
    Obs.Trace.emit
      { Obs.Trace.id =
          Obs.Trace.span_id [ parent; name; string_of_int tile; string_of_int part ];
        parent; name = "replay " ^ name; cat = "bench"; start_s = t0;
        dur_s = t1 -. t0; args = [] }
  | _ -> ()

let lane_keys root ~lanes c = Array.init lanes (fun j -> Mc.Rng.split root ((c * lanes) + j))

(* ------------------------------------------------------------ toric *)

(* [Toric.Memory.run_batch]'s batch path; [after_tile c n] sees each
   tile's failure count (the checkpointed replay journals it). *)
let toric a ?(after_tile = fun _ _ -> ()) ~l ~p ~tile_width ~trials ~seed () =
  let lat = Toric.Lattice.create l in
  let nq = Toric.Lattice.num_qubits lat and np = Toric.Lattice.num_plaquettes lat in
  let noise = Program.make ~n:nq [ Program.Flip_x { qubits = Array.init nq Fun.id; p } ] in
  let checks =
    Array.init np (fun i ->
        Array.of_list (Toric.Lattice.plaquette_edges lat ~x:(i mod l) ~y:(i / l)))
  in
  let wx = Array.init l (fun y -> Toric.Lattice.v_edge lat ~x:0 ~y) in
  let wy = Array.init l (fun x -> Toric.Lattice.h_edge lat ~x ~y:0) in
  let lanes = tile_width / 64 in
  let plane = Plane.create ~width:tile_width nq in
  let out = Array.make (np * lanes) 0L in
  let terr = Array.make ((nq + 63) / 64 * 64) 0L in
  let tsyn = Array.make ((np + 63) / 64 * 64) 0L in
  let root = Mc.Rng.root seed in
  let failures = ref 0 in
  for c = 0 to ((trials + tile_width - 1) / tile_width) - 1 do
    let count = min tile_width (trials - (c * tile_width)) in
    let keys = lane_keys root ~lanes c in
    let t0 = Obs.now () in
    let sampler = Frame.Sampler.create_tile keys in
    Plane.clear plane;
    Program.run_into noise sampler plane [||];
    let t1 = Obs.now () in
    Array.iteri
      (fun i x_sel -> Plane.parity_check_into plane ~x_sel ~z_sel:[||] out (i * lanes))
      checks;
    let t2 = Obs.now () in
    mark a "fold" ~tile:c ~part:0 t0 t1;
    mark a "extract" ~tile:c ~part:0 t1 t2;
    let tile_failures = ref 0 in
    for j = 0 to lanes - 1 do
      let live = min 64 (count - (64 * j)) in
      if live > 0 then begin
        let s0 = Obs.now () in
        let any = ref 0L in
        for i = 0 to np - 1 do
          any := Int64.logor !any out.((i * lanes) + j)
        done;
        let any = !any in
        let winding =
          Int64.logor (Plane.parity_x ~lane:j plane wx) (Plane.parity_x ~lane:j plane wy)
        in
        let fail = ref (Int64.logand winding (Int64.lognot any)) in
        let mask = Mc.Runner.live_mask live in
        let nd = Mc.Runner.popcount64 (Int64.logand any mask) in
        let s1 = Obs.now () in
        mark a "split" ~tile:c ~part:j s0 s1;
        if any <> 0L then begin
          (* the entry point block-transposes a lane from 3 defect shots on
             and bit-probes sparser lanes *)
          let shots = ref [] in
          if nd >= 3 then begin
            Plane.transpose_x plane ~lane:j terr;
            Plane.transpose_rows ~src:out ~lanes ~lane:j ~pos:0 ~nrows:np tsyn;
            for b = live - 1 downto 0 do
              if Plane.bit any b then
                shots :=
                  ( b,
                    Plane.shot_of_transposed terr ~len:nq b,
                    Plane.shot_of_transposed tsyn ~len:np b )
                  :: !shots
            done
          end
          else
            for b = live - 1 downto 0 do
              if Plane.bit any b then
                shots :=
                  ( b,
                    Plane.extract_shot_x plane ((64 * j) + b),
                    Plane.row_shot_vec out ~lanes ~lane:j ~pos:0 ~len:np b )
                  :: !shots
            done;
          let s2 = Obs.now () in
          List.iter
            (fun (b, error, syndrome) ->
              let residual = Bitvec.xor error (Toric.Decoder.decode lat syndrome) in
              assert (Bitvec.is_zero (Toric.Lattice.syndrome lat residual));
              let x, y = Toric.Lattice.winding lat residual in
              if x || y then fail := Int64.logor !fail (Int64.shift_left 1L b))
            !shots;
          let s3 = Obs.now () in
          mark a "transpose" ~tile:c ~part:j s1 s2;
          mark a "decode" ~tile:c ~part:j s2 s3;
          a.defect_shots <- a.defect_shots + nd
        end;
        tile_failures :=
          !tile_failures + Mc.Runner.popcount64 (Int64.logand !fail mask)
      end
    done;
    after_tile c !tile_failures;
    failures := !failures + !tile_failures
  done;
  a.shots <- a.shots + trials;
  !failures

(* -------------------------------------------------------------- css *)

(* [Csskit.Memory.memory_failure_batch]'s per-shot memo path (one
   round): syndrome words by word parity, then per shot the syndrome
   bitstring, a memo lookup, and a decode on a miss. *)
let css a ~code ~eps ~tile_width ~trials ~seed =
  let t = Csskit.Zoo.get code in
  let c = t.Csskit.code in
  let n = t.n and k = t.k in
  let gens = Array.map Program.check_of_generator c.generators in
  let lzs = Array.map Program.check_of_generator c.logical_z in
  let lxs = Array.map Program.check_of_generator c.logical_x in
  let m = Array.length gens in
  let p = eps /. 3.0 in
  let prog =
    Program.make ~n
      [ Program.Depolarize { qubits = Array.init n Fun.id; px = p; py = p; pz = p } ]
  in
  let dec = Csskit.decoder t in
  let classify sv =
    match Codes.Stabilizer_code.decode dec sv with
    | None -> (Array.make k true, Array.make k true)
    | Some corr ->
      ( Array.init k (fun j -> not (Pauli.commutes corr c.logical_z.(j))),
        Array.init k (fun j -> not (Pauli.commutes corr c.logical_x.(j))) )
  in
  let lanes = tile_width / 64 in
  let plane = Plane.create ~width:tile_width n in
  let synd = Array.make (m * lanes) 0L in
  let px = Array.make (k * lanes) 0L and pz = Array.make (k * lanes) 0L in
  let parities (checks : Program.check array) dst =
    Array.iteri
      (fun i (ch : Program.check) ->
        Plane.parity_check_into plane ~x_sel:ch.x_sel ~z_sel:ch.z_sel dst (i * lanes))
      checks
  in
  let memo = Hashtbl.create 64 in
  let root = Mc.Rng.root seed in
  let failures = ref 0 in
  for tile = 0 to ((trials + tile_width - 1) / tile_width) - 1 do
    let count = min tile_width (trials - (tile * tile_width)) in
    let keys = lane_keys root ~lanes tile in
    let t0 = Obs.now () in
    let sampler = Frame.Sampler.create_tile keys in
    Plane.clear plane;
    Program.run_into prog sampler plane [||];
    let t1 = Obs.now () in
    parities gens synd;
    parities lzs px;
    parities lxs pz;
    let t2 = Obs.now () in
    mark a "fold" ~tile ~part:0 t0 t1;
    mark a "extract" ~tile ~part:0 t1 t2;
    for lane = 0 to lanes - 1 do
      let a0 = Obs.now () in
      let decode_s = ref 0.0 in
      let muxx = Array.make k 0L and muxz = Array.make k 0L in
      for b = 0 to 63 do
        let sv = Plane.row_shot_vec synd ~lanes ~lane ~pos:0 ~len:m b in
        let key = Bitvec.to_string sv in
        a.lookups <- a.lookups + 1;
        let jx, jz =
          match Hashtbl.find_opt memo key with
          | Some v -> v
          | None ->
            let d0 = Obs.now () in
            let v = classify sv in
            Hashtbl.add memo key v;
            decode_s := !decode_s +. (Obs.now () -. d0);
            a.misses <- a.misses + 1;
            v
        in
        let bit = Int64.shift_left 1L b in
        for j = 0 to k - 1 do
          if jx.(j) then muxx.(j) <- Int64.logor muxx.(j) bit;
          if jz.(j) then muxz.(j) <- Int64.logor muxz.(j) bit
        done
      done;
      let fail = ref 0L in
      for j = 0 to k - 1 do
        let s = (j * lanes) + lane in
        fail :=
          Int64.logor !fail
            (Int64.logor (Int64.logxor px.(s) muxx.(j)) (Int64.logxor pz.(s) muxz.(j)))
      done;
      let a1 = Obs.now () in
      mark a "assemble" ~tile ~part:lane a0 (a1 -. !decode_s);
      add a "decode" !decode_s;
      let live = count - (64 * lane) in
      if live > 0 then
        failures :=
          !failures + Mc.Runner.popcount64 (Int64.logand !fail (Mc.Runner.live_mask live))
    done
  done;
  a.shots <- a.shots + trials;
  !failures

(* ----------------------------------------------------------- ledger *)

(* The checkpointed rep: the toric replay journaling each tile the way
   the runner does (find, then record; a flush every 8 records), with
   the campaign file created and removed as [Engines.rep] does. *)
let flush_every = 8

let toric_ckpt a ~l ~p ~tile_width ~trials ~seed =
  let file = Engines.ckpt_file () in
  let t0 = Obs.now () in
  (* flushed by hand below, so flushes are timed apart from records *)
  let store = Engines.new_campaign ~flush_every:max_int file in
  add a "ledger" (Obs.now () -. t0);
  let job =
    { Mc.Campaign.label = Mc.Campaign.label (); engine = "batch"; seed; trials;
      chunk = tile_width }
  in
  let records = ref 0 in
  let after_tile c n =
    let r0 = Obs.now () in
    ignore (Mc.Campaign.find store ~job ~chunk:c);
    Mc.Campaign.record store ~job ~chunk:c ~failures:n;
    incr records;
    let r1 = Obs.now () in
    a.record_s <- ((r1 -. r0) *. a.scale) :: a.record_s;
    let r2 =
      if !records mod flush_every <> 0 then r1
      else begin
        Mc.Campaign.flush store;
        let r2 = Obs.now () in
        a.flush_s <- ((r2 -. r1) *. a.scale) :: a.flush_s;
        a.bytes <- a.bytes + (Unix.stat file).st_size;
        r2
      end
    in
    mark a "ledger" ~tile:c ~part:0 r0 r2
  in
  Fun.protect
    ~finally:(fun () ->
      let t0 = Obs.now () in
      remove_quiet file;
      add a "ledger" (Obs.now () -. t0))
    (toric a ~after_tile ~l ~p ~tile_width ~trials ~seed)

let replay a (wl : Engines.t) ~seed =
  match wl.physics with
  | Engines.Toric { l; p } when wl.checkpoint ->
    toric_ckpt a ~l ~p ~tile_width:wl.tile_width ~trials:wl.shots ~seed
  | Engines.Toric { l; p } ->
    toric a ~l ~p ~tile_width:wl.tile_width ~trials:wl.shots ~seed ()
  | Engines.Css { code; eps } ->
    css a ~code ~eps ~tile_width:wl.tile_width ~trials:wl.shots ~seed

(* ----------------------------------------------------------- replay *)

let reps = 10

type replayed = {
  wl : Engines.t;
  a : acc;
  e2e_s : float;  (** the entry point's single-domain time over the same reps *)
  checks : check list;
}

(* The first [reps] measured reps of [wl], each run through its entry point
   on one domain and then replayed; spans cover the first replay. *)
let run (wl : Engines.t) ~seed =
  let a = acc () in
  let e2e_s = ref 0.0 in
  let checks =
    List.init reps (fun i ->
        let r = Engines.warmups + i in
        let s = Engines.rep_seed wl ~seed r in
        a.scale <- host_factor ~domains:1 ~files:wl.checkpoint;
        let t0 = Obs.now () in
        let expected = with_sink None (fun () -> Engines.rep ~domains:1 wl ~seed:s) in
        e2e_s := !e2e_s +. ((Obs.now () -. t0) *. a.scale);
        let id = [ wl.name; "replay"; string_of_int r ] in
        let got =
          span ~name:("replay rep " ^ wl.name) ~id (fun () ->
              if i = 0 then a.spans_of <- Some (Obs.Trace.span_id id);
              Fun.protect
                ~finally:(fun () -> a.spans_of <- None)
                (fun () -> replay a wl ~seed:s))
        in
        check_equal (Printf.sprintf "%s replay rep %d" wl.name r) ~expected ~got)
  in
  { wl; a; e2e_s = !e2e_s; checks }

let closure r = total_s r.a /. r.e2e_s

let ns_per x n = x *. 1e9 /. float_of_int (max n 1)

(* ----------------------------------------------------------- runner *)

(* [Mc.Runner.failures] over tiles that do no work, at toric-decode's
   trials, width and domains: the runner's own cost per shot. *)
let runner_ns_per_shot () =
  let wl = Engines.toric_decode in
  let zeros = Array.make (wl.tile_width / 64) 0L in
  let model =
    Mc.Runner.model ~worker_init:ignore ~batch:(fun () _ ~base:_ ~count:_ -> zeros) ()
  in
  let engine = Mc.Engine.batch ~tile_width:wl.tile_width () in
  let times =
    List.init 30 (fun i ->
        let factor = host_factor ~domains:wl.domains ~files:false in
        let t0 = Obs.now () in
        ignore (Mc.Runner.failures ~domains:wl.domains ~engine ~trials:wl.shots ~seed:i model);
        (Obs.now () -. t0) *. factor)
  in
  ns_per (Sample.median times) wl.shots

(* Share of the runner's wall time its domains spend inside chunks,
   from the runner's own run and chunk spans over toric-decode reps. *)
let busy_frac ~seed =
  let wl = Engines.toric_decode in
  let sink = Obs.Trace.sink () in
  with_sink (Some sink) (fun () ->
      for i = 0 to reps - 1 do
        ignore (Engines.rep wl ~seed:(Engines.rep_seed wl ~seed (Engines.warmups + i)))
      done);
  let spans = Obs.Trace.sink_spans sink in
  List.iter Obs.Trace.emit spans;
  let runs = List.filter (fun (s : Obs.Trace.span) -> s.cat = "runner" && s.parent = "") spans in
  let ids = List.map (fun (s : Obs.Trace.span) -> s.id) runs in
  let busy =
    List.fold_left
      (fun acc (s : Obs.Trace.span) -> if List.mem s.parent ids then acc +. s.dur_s else acc)
      0.0 spans
  in
  let wall = List.fold_left (fun acc (s : Obs.Trace.span) -> acc +. s.dur_s) 0.0 runs in
  busy /. (wall *. float_of_int wl.domains)
