(* The four engine workloads: each is a fixed Monte-Carlo estimate (a
   "rep") repeated on fresh seeds.  Reps are sized to ~50 ms here so a
   10 s run holds well over 100 of them, enough for a p90 with ten
   samples beyond it.  Why each workload exists is in README.md. *)

open Ftqc
open Common

type physics = Toric of { l : int; p : float } | Css of { code : string; eps : float }

type t = {
  name : string;
  path : int;  (** first component of every seed this workload derives *)
  physics : physics;
  shots : int;  (** per rep *)
  tile_width : int;
  domains : int;
  checkpoint : bool;  (** each rep journals into a fresh campaign file *)
}

let deep_p = 0.000244140625 (* 2^-12: a 12-digit dyadic sampling plan *)

let toric_deep =
  { name = "toric-deep"; path = 1; physics = Toric { l = 3; p = deep_p };
    shots = 1 lsl 21; tile_width = 512; domains = 1; checkpoint = false }

let toric_decode =
  { name = "toric-decode"; path = 2; physics = Toric { l = 5; p = 0.05 };
    shots = 32_768; tile_width = 256; domains = 2; checkpoint = false }

let css_golay =
  { name = "css-golay"; path = 3; physics = Css { code = "golay23"; eps = 0.08 };
    shots = 32_768; tile_width = 256; domains = 1; checkpoint = false }

(* w64 is the CLI default; 65,536 shots are 1,024 chunks, so the
   default flush cadence (8) rewrites the ledger 128 times a rep. *)
let toric_ckpt =
  { toric_deep with name = "toric-ckpt"; path = 4; shots = 65_536; tile_width = 64;
    checkpoint = true }

let all = [ toric_deep; toric_decode; css_golay; toric_ckpt ]
let find name = List.find_opt (fun w -> w.name = name) all

(* Rep [r] of a run with seed [seed] always sees the same noise. *)
let rep_seed wl ~seed r = Mc.Rng.derive seed [ wl.path; r ]

let failures ?(engine = `Batch) ?campaign ~domains wl ~seed =
  match wl.physics with
  | Toric { l; p } ->
    (Toric.Memory.run_batch ~domains ?campaign ~engine
       ~tile_width:wl.tile_width ~l ~p ~trials:wl.shots ~seed ())
      .Toric.Memory.failures
  | Css { code; eps } ->
    (Csskit.Memory.memory_failure_batch ~domains ~engine
       ~tile_width:wl.tile_width (Csskit.Zoo.get code) ~eps ~rounds:1
       ~trials:wl.shots ~seed ())
      .Mc.Stats.failures

let ckpt_file () = out_file (Printf.sprintf "ckpt-%d.json" (Unix.getpid ()))

let new_campaign ?flush_every file =
  remove_quiet file;
  match Mc.Campaign.create ?flush_every file with Ok c -> c | Error m -> failwith m

(* One rep as a user runs it: a checkpointed rep creates and deletes
   its campaign file inside the timed region, as a supervised campaign
   pays for it. *)
let rep ?domains wl ~seed =
  let domains = Option.value domains ~default:wl.domains in
  if not wl.checkpoint then failures ~domains wl ~seed
  else begin
    let file = ckpt_file () in
    let c = new_campaign file in
    Fun.protect
      ~finally:(fun () -> remove_quiet file)
      (fun () -> failures ~campaign:c ~domains wl ~seed)
  end

(* ------------------------------------------------------------- loop *)

let warmups = 3

type run = {
  raw_rep_s : float list;  (** measured reps as the clock read them, newest first *)
  factors : float list;  (** each measured rep's host-speed factor *)
  counts : int list;  (** failures of every rep that returned, warm-ups included *)
  rep0 : int option;
  attempted : int;
  failed : int;
}

(* Warm-up reps 0..2 are discarded, then reps run for [seconds] (and
   at least [min_reps] of them — enough for a p90 — within 5x the
   budget).  Each rep is preceded by the host-speed probe.  [wrap r f]
   lets a traced run put a span around rep [r]. *)
let loop ?(wrap = fun _ f -> f ()) ?(min_reps = 100) wl ~seed ~seconds =
  let raw = ref [] and factors = ref [] and counts = ref [] and rep0 = ref None in
  let attempted = ref 0 and failed = ref 0 in
  let one r =
    incr attempted;
    let factor = host_factor ~domains:wl.domains ~files:wl.checkpoint in
    let t0 = Obs.now () in
    match wrap r (fun () -> rep wl ~seed:(rep_seed wl ~seed r)) with
    | f ->
      let dt = Obs.now () -. t0 in
      counts := f :: !counts;
      if r = 0 then rep0 := Some f;
      Some (dt, factor)
    | exception e ->
      incr failed;
      Printf.eprintf "%s rep %d raised %s\n%!" wl.name r (Printexc.to_string e);
      None
  in
  for r = 0 to warmups - 1 do
    ignore (one r)
  done;
  let start = Obs.now () in
  let r = ref warmups in
  while
    let now = Obs.now () in
    now -. start < seconds
    || (List.length !raw < min_reps && now -. start < 5.0 *. seconds)
  do
    (match one !r with
    | Some (dt, factor) ->
      raw := dt :: !raw;
      factors := factor :: !factors
    | None -> ());
    incr r
  done;
  { raw_rep_s = !raw; factors = !factors; counts = !counts; rep0 = !rep0;
    attempted = !attempted; failed = !failed }

(* Measured rep times at reference host speed. *)
let rep_s run = List.map2 ( *. ) run.raw_rep_s run.factors

let shots_per_s wl rep_s = float_of_int wl.shots /. Sample.median rep_s

(* ------------------------------------------------------------ setup *)

(* Set-up: process start to the end of the first warm-up rep —
   lattice, program and zoo-code builds, lazy decoder tables and
   domain spawn.  Measured in a fresh process each time
   ([--setup-only]), because a second set-up in one process would find
   every lazy table already built. *)
let setup_only wl ~seed ~t_start =
  ignore (rep wl ~seed:(rep_seed wl ~seed 0));
  Printf.printf "setup_s %.9f\n%!" (Obs.now () -. t_start)

let setups = 9

(* Raw set-up times, each in a fresh process. *)
let measure_setups wl ~seed =
  List.init setups (fun _ ->
      let ic =
        Unix.open_process_args_in Sys.executable_name
          [| Sys.executable_name; "--setup-only"; "--workload"; wl.name;
             "--seed"; string_of_int seed |]
      in
      let line = In_channel.input_all ic in
      match (Unix.close_process_in ic, Scanf.sscanf_opt line "setup_s %f" Fun.id) with
      | Unix.WEXITED 0, Some s -> s
      | _ -> failwith (wl.name ^ ": set-up child failed"))

(* ----------------------------------------------------------- checks *)

let ledger_check wl ~seed ~rep0 =
  let s0 = rep_seed wl ~seed 0 in
  let file = ckpt_file () in
  let c = new_campaign file in
  Fun.protect
    ~finally:(fun () -> remove_quiet file)
    (fun () ->
      let f = failures ~campaign:c ~domains:wl.domains wl ~seed:s0 in
      match Mc.Campaign.load file with
      | Error m -> { check = "checkpoint ledger"; ok = false; detail = m }
      | Ok store ->
        let job =
          { Mc.Campaign.label = Mc.Campaign.label (); engine = "batch"; seed = s0;
            trials = wl.shots; chunk = wl.tile_width }
        in
        let total =
          List.fold_left
            (fun acc c ->
              match Mc.Campaign.find store ~job ~chunk:c with
              | Some n -> acc + n
              | None -> acc - (wl.shots + 1) (* a missing chunk can never balance *))
            0
            (List.init (wl.shots / wl.tile_width) Fun.id)
        in
        let chk = check_equal "checkpoint ledger total" ~expected:f ~got:total in
        if f = rep0 then chk
        else { chk with ok = false; detail = chk.detail ^ Printf.sprintf "; rep 0 read %d" rep0 })

let checks wl ~seed run =
  match run.rep0 with
  | None -> [ { check = "rep 0"; ok = false; detail = "rep 0 raised" } ]
  | Some rep0 ->
    let scalar =
      failures ~engine:`Scalar ~domains:1 wl ~seed:(rep_seed wl ~seed 0)
    in
    let p_ref, ref_stderr = Spec.reference wl.name in
    let failures = List.fold_left ( + ) 0 run.counts in
    [ check_equal "rep 0 vs scalar engine" ~expected:scalar ~got:rep0;
      check_pooled ~p_ref ~ref_stderr ~failures
        ~shots:(List.length run.counts * wl.shots) ]
    @ if wl.checkpoint then [ ledger_check wl ~seed ~rep0 ] else []
