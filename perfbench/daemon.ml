(* The daemon-mix workload: a seeded open-loop request schedule driven
   at a fixed rate into a freshly spawned [ftqcd] fleet over two
   persistent connections, one client thread each.  Half the requests
   repeat one of the last 64 distinct requests (a cache hit, or a
   coalesced join while the original is still running); the other half
   are fresh-seed batch requests split over three estimators.  Every
   request is timed from the moment it was due, so a stall also
   charges the requests queued behind it. *)

open Ftqc
open Common
module P = Svc.Protocol

let name = "daemon-mix"
let path = 5
let rate = 85.0
let window = 64
let repeat_share = 0.5
let connections = 2

type kind = Toric | Css | Steane

let kinds = [| Toric; Css; Steane |]

let kind_name = function
  | Toric -> "toric_memory"
  | Css -> "css_memory"
  | Steane -> "steane_memory"

(* Trial counts chosen so each estimator computes for 3-6 ms here:
   well inside one 20 ms poll of the daemon's reply loop even when the
   host runs 2x slower, so the poll, not the neighbours' load, sets the
   cold latency. *)
let trials = function Toric -> 2048 | Css -> 2048 | Steane -> 8192

let estimator kind ~seed =
  match kind with
  | Toric ->
    P.Toric_memory
      { l = 5; p = 0.05; trials = trials kind; seed; engine = `Batch; tile_width = 64 }
  | Css ->
    P.Css_memory
      { code = "golay23"; eps = 0.08; rounds = 1; trials = trials kind; seed;
        engine = `Batch; tile_width = 64 }
  | Steane ->
    P.Steane_memory
      { level = 2; eps = 0.01; rounds = 1; trials = trials kind; seed;
        engine = `Batch; tile_width = 64 }

type item = {
  due : float;  (** seconds after the phase starts *)
  kind : kind;
  est : P.estimator;
  original : int option;  (** the fresh item a repeat re-sends *)
}

(* The schedule is a pure function of the seed and the duration. *)
let schedule ~seed ~seconds =
  let n = max 1 (int_of_float (rate *. seconds)) in
  let rng = Mc.Rng.of_seed (Mc.Rng.derive seed [ path; 0 ]) in
  let recent = Array.make window 0 and distinct = ref 0 in
  let items = ref [] in
  let by_index = Hashtbl.create n in
  for i = 0 to n - 1 do
    let due = float_of_int i /. rate in
    let it =
      if !distinct > 0 && Mc.Rng.float rng 1.0 < repeat_share then begin
        let j = recent.(Mc.Rng.int rng (min !distinct window)) in
        let o = Hashtbl.find by_index j in
        { due; kind = o.kind; est = o.est; original = Some j }
      end
      else begin
        let kind = kinds.(Mc.Rng.int rng (Array.length kinds)) in
        recent.(!distinct mod window) <- i;
        incr distinct;
        { due; kind; est = estimator kind ~seed:(Mc.Rng.derive seed [ path; 1; i ]);
          original = None }
      end
    in
    Hashtbl.replace by_index i it;
    items := it :: !items
  done;
  Array.of_list (List.rev !items)

(* ---------------------------------------------------------- process *)

type daemon = { pid : int; socket : string; log : string; trace : string option }

(* Built beside the benchmark by run.py. *)
let ftqcd = "_build/default/bin/ftqcd.exe"

let spawned = ref 0

let spawn ~trace =
  incr spawned;
  let base = out_file (Printf.sprintf "d%d-%d" (Unix.getpid ()) !spawned) in
  let socket = base ^ ".sock" and log = base ^ ".log" in
  let trace = if trace then Some (base ^ "-trace.json") else None in
  remove_quiet socket;
  let out = Unix.openfile log [ O_WRONLY; O_CREAT; O_TRUNC; O_CLOEXEC ] 0o644 in
  let null = Unix.openfile "/dev/null" [ O_RDONLY; O_CLOEXEC ] 0 in
  let args =
    [ ftqcd; "--socket"; socket; "--workers"; "2"; "--domains"; "1" ]
    @ match trace with Some f -> [ "--trace"; f ] | None -> []
  in
  let pid = Unix.create_process ftqcd (Array.of_list args) null out out in
  Unix.close out;
  Unix.close null;
  let d = { pid; socket; log; trace } in
  let deadline = Obs.now () +. 30.0 in
  let rec wait () =
    match Svc.Client.connect ~socket with
    | Ok fd -> Svc.Client.close fd
    | Error _ -> (
      match Unix.waitpid [ WNOHANG ] pid with
      | 0, _ when Obs.now () < deadline ->
        Thread.delay 0.002;
        wait ()
      | 0, _ ->
        Unix.kill pid Sys.sigkill;
        ignore (Unix.waitpid [] pid);
        failwith ("ftqcd did not start; see " ^ log)
      | _ -> failwith ("ftqcd exited at start; see " ^ log))
  in
  wait ();
  d

(* Running, as opposed to gone or a zombie awaiting its reaper. *)
let alive pid =
  match read_file (Printf.sprintf "/proc/%d/status" pid) with
  | text -> (
    match field_of_lines text "State" with
    | Some s -> s <> "" && s.[0] <> 'Z'
    | None -> false)
  | exception Sys_error _ -> false

let rec poll_until ~deadline cond =
  if cond () then true
  else if Obs.now () > deadline then false
  else begin
    Thread.delay 0.01;
    poll_until ~deadline cond
  end

(* Fleet worker pids and the status counters, from the status frame. *)
let status d =
  match Svc.Client.with_connection ~socket:d.socket Svc.Client.status with
  | Ok (Ok j) -> j
  | Ok (Error e) -> failwith ("status: " ^ e.Svc.Client.message)
  | Error m -> failwith ("status: " ^ m)

let worker_pids status =
  match Json.member "fleet" status with
  | None -> []
  | Some f ->
    Option.value (Json.to_list_opt (member_exn "workers" f)) ~default:[]
    |> List.map (fun w -> int_of_float (number (member_exn "pid" w)))

(* Clean stop through the protocol, then make sure ftqcd and its fleet
   are gone: SIGKILL whatever outlives the grace period. *)
let stop d ~workers =
  (try ignore (Svc.Client.with_connection ~socket:d.socket Svc.Client.shutdown)
   with _ -> ());
  let status = ref None in
  let exited () =
    match Unix.waitpid [ WNOHANG ] d.pid with
    | 0, _ -> false
    | _, s -> status := Some s; true
    | exception Unix.Unix_error (EINTR, _, _) -> false
  in
  if not (poll_until ~deadline:(Obs.now () +. 15.0) exited) then begin
    Unix.kill d.pid Sys.sigkill;
    ignore (Unix.waitpid [] d.pid)
  end;
  (* the log only matters when the daemon did not stop cleanly *)
  if !status = Some (Unix.WEXITED 0) then remove_quiet d.log;
  List.iter
    (fun pid ->
      if not (poll_until ~deadline:(Obs.now () +. 5.0) (fun () -> not (alive pid)))
      then begin
        (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
        ignore (poll_until ~deadline:(Obs.now () +. 5.0) (fun () -> not (alive pid)))
      end)
    workers;
  remove_quiet d.socket

(* [f d] on a fresh daemon that is stopped however [f] ends. *)
let with_daemon ~trace f =
  let d = spawn ~trace in
  Fun.protect
    ~finally:(fun () ->
      let workers = try worker_pids (status d) with _ -> [] in
      stop d ~workers)
    (fun () -> f d)

(* ---------------------------------------------------------- clients *)

type reply = {
  mutable sent : float;
  mutable acked : float;
  mutable finished : float;
  mutable cached : bool;
  mutable coalesced : bool;
  mutable server_wall : float;
  mutable raw : string;
  mutable error : string option;
}

let empty_reply () =
  { sent = nan; acked = nan; finished = nan; cached = false; coalesced = false;
    server_wall = nan; raw = ""; error = None }

let transport m = "transport: " ^ m
let is_transport r =
  match r.error with
  | Some e -> String.starts_with ~prefix:"transport" e
  | None -> false

(* One request, reading every frame itself so the ack is timed too. *)
let exchange fd r est =
  r.sent <- Obs.now ();
  Svc.Codec.write fd (P.request_frame (P.Run est));
  let rec frames () =
    match Svc.Codec.read fd with
    | Error `Closed -> r.error <- Some (transport "connection closed")
    | Error (`Bad m) -> r.error <- Some (transport m)
    | Ok (j, raw) -> (
      let field k = P.frame_field j k in
      match P.check_frame j with
      | Error m -> r.error <- Some (transport m)
      | Ok "ack" ->
        r.acked <- Obs.now ();
        frames ()
      | Ok "progress" -> frames ()
      | Ok "meta" ->
        r.cached <- field "cached" = Some (Json.Bool true);
        r.coalesced <- field "coalesced" = Some (Json.Bool true);
        r.server_wall <- Option.fold ~none:nan ~some:number (field "wall_s");
        frames ()
      | Ok "result" ->
        r.finished <- Obs.now ();
        r.raw <- raw
      | Ok "error" ->
        r.error <-
          Some (Option.fold ~none:"error" ~some:string_exn (field "code"))
      | Ok other -> r.error <- Some (transport ("unexpected " ^ other ^ " frame")))
  in
  frames ()

let request_once ~socket est =
  let r = empty_reply () in
  (match Svc.Client.connect ~socket with
  | Error m -> r.error <- Some (transport m)
  | Ok fd ->
    Fun.protect
      ~finally:(fun () -> Svc.Client.close fd)
      (fun () -> exchange fd r est));
  r

type phase = { items : item array; replies : reply array; t0 : float }

let due ph i = ph.t0 +. ph.items.(i).due

(* Open loop: [connections] threads take the next item in schedule
   order, sleep until it is due and send it on their own connection;
   a request that finds both connections busy waits, and that wait is
   part of its latency. *)
let drive ~socket items =
  let replies = Array.init (Array.length items) (fun _ -> empty_reply ()) in
  let ph = { items; replies; t0 = Obs.now () +. 0.05 } in
  let next = Atomic.make 0 in
  let client () =
    let conn = ref None in
    let rec loop () =
      let i = Atomic.fetch_and_add next 1 in
      if i < Array.length items then begin
        let wait = due ph i -. Obs.now () in
        if wait > 0.0 then Thread.delay wait;
        let r = replies.(i) in
        (match
           match !conn with Some fd -> Ok fd | None -> Svc.Client.connect ~socket
         with
        | Error m -> r.error <- Some (transport m)
        | Ok fd ->
          conn := Some fd;
          (try exchange fd r items.(i).est
           with e -> r.error <- Some (transport (Printexc.to_string e)));
          if is_transport r then begin
            Svc.Client.close fd;
            conn := None
          end);
        loop ()
      end
    in
    loop ();
    Option.iter Svc.Client.close !conn
  in
  List.iter Thread.join (List.init connections (fun _ -> Thread.create client ()));
  ph

(* ---------------------------------------------------------- results *)

let ok ph i = ph.replies.(i).error = None

let latency ph i = ph.replies.(i).finished -. due ph i

let select ph pred =
  List.filter pred (List.init (Array.length ph.items) Fun.id)

(* Requests the daemon computed (neither cached nor coalesced). *)
let cold ph =
  select ph (fun i -> ok ph i && not (ph.replies.(i).cached || ph.replies.(i).coalesced))

let hits ph = select ph (fun i -> ok ph i && ph.replies.(i).cached)

(* Shots a client receives per second of waiting when it sends one cold
   request of each estimator: per-estimator medians, so neither the mix
   proportions nor a few stragglers move it. *)
let shots_per_s ph =
  let cold = cold ph in
  let shots, secs =
    Array.fold_left
      (fun (s, t) k ->
        match List.filter (fun i -> ph.items.(i).kind = k) cold with
        | [] -> failwith ("no cold " ^ kind_name k ^ " request completed")
        | is -> (s + trials k, t +. Sample.median (List.map (latency ph) is)))
      (0, 0.0) kinds
  in
  float_of_int shots /. secs

let cold_ms_p90 ph =
  match Sample.percentile (List.map (latency ph) (cold ph)) 0.9 with
  | Some v -> v *. 1e3
  | None -> failwith "too few cold requests for a p90"

let failed_requests ph = List.length (select ph (fun i -> not (ok ph i)))

(* Cached and coalesced replies must repeat their original's bytes. *)
let repeat_check ph =
  let bad =
    select ph (fun i ->
        match ph.items.(i).original with
        | Some j -> ok ph i && ok ph j && ph.replies.(i).raw <> ph.replies.(j).raw
        | None -> false)
  in
  (check_equal "repeats match originals" ~expected:0 ~got:(List.length bad), bad)

(* A sample of cold replies against the estimator run in this process,
   byte for byte; returns the direct execution times too. *)
let sampled = 32

let direct_check ph =
  let cold = Array.of_list (cold ph) in
  let n = min sampled (Array.length cold) in
  let picks = List.init n (fun k -> cold.(k * Array.length cold / n)) in
  let results =
    List.map
      (fun i ->
        let est = ph.items.(i).est in
        let t0 = Obs.now () in
        let payload = Svc.Exec.execute ~domains:1 est in
        let dt = Obs.now () -. t0 in
        let expected =
          Svc.Codec.encode (P.result_frame ~key:(P.to_canonical (P.Run est)) payload)
        in
        (i, expected = ph.replies.(i).raw, dt))
      picks
  in
  let bad = List.filter_map (fun (i, same, _) -> if same then None else Some i) results in
  ( { (check_equal "cold replies match direct execution" ~expected:0
         ~got:(List.length bad))
      with ok = bad = [] && n > 0 },
    bad,
    List.map (fun (_, _, dt) -> dt) results )

(* ------------------------------------------------------------- runs *)

(* Set-up: spawn to the first cold reply (fleet spawn, listener, first
   dispatch and the estimator's lazy tables in the workers). *)
let setup_once ~seed k =
  let t0 = Obs.now () in
  with_daemon ~trace:false (fun d ->
      let r =
        request_once ~socket:d.socket
          (estimator Toric ~seed:(Mc.Rng.derive seed [ path; 2; k ]))
      in
      let dt = Obs.now () -. t0 in
      match r.error with None -> dt | Some e -> failwith ("set-up request: " ^ e))

let setups = 5

(* Sum of VmHWM over ftqcd and its live fleet workers. *)
let fleet_rss_mb d =
  List.fold_left
    (fun acc pid -> acc +. peak_rss_mb (string_of_int pid))
    0.0
    (d.pid :: worker_pids (status d))

let warm ~socket ~seed =
  Array.iteri
    (fun i k ->
      match (request_once ~socket (estimator k ~seed:(Mc.Rng.derive seed [ path; 3; i ]))).error with
      | None -> ()
      | Some e -> failwith ("warm-up request: " ^ e))
    kinds

type load = { ph : phase; rss_mb : float; checks : check list; failed : int;
              exec_s : float list; queue_wait_s : float list }

(* Spans of the ftqcd trace named [name], as durations in seconds. *)
let trace_durations file name =
  match Json.read_file file with
  | Error m -> failwith m
  | Ok j ->
    Option.value (Json.to_list_opt (member_exn "traceEvents" j)) ~default:[]
    |> List.filter_map (fun e ->
           match Json.member "name" e with
           | Some (Json.String n) when n = name -> Some (number (member_exn "dur" e) /. 1e6)
           | _ -> None)

(* One load phase of [seconds] on a fresh daemon, then the checks. *)
let load ~seed ~seconds ~trace =
  let items = schedule ~seed ~seconds in
  let ph, rss_mb, trace_file =
    with_daemon ~trace (fun d ->
        warm ~socket:d.socket ~seed;
        let ph = drive ~socket:d.socket items in
        (ph, fleet_rss_mb d, d.trace))
  in
  (* ftqcd writes its trace on the way out *)
  let queue_wait_s =
    match trace_file with
    | Some f -> Fun.protect ~finally:(fun () -> remove_quiet f) (fun () -> trace_durations f "queue wait")
    | None -> []
  in
  let rc, bad_repeats = repeat_check ph in
  let dc, bad_direct, exec_s = direct_check ph in
  let failed =
    failed_requests ph
    + List.length (List.sort_uniq compare (bad_repeats @ bad_direct))
  in
  { ph; rss_mb; checks = [ rc; dc ]; failed; exec_s; queue_wait_s }
