(* Crash-safe checkpointing for Monte-Carlo campaigns.

   A campaign store maps a job key — (label, engine, seed, trials,
   chunk), i.e. everything that determines the deterministic chunk
   ledger — to the set of completed chunks and their failure counts.
   The runner consults the store before executing a chunk and records
   each freshly computed chunk; because chunk [c] always runs on
   [Rng.split root c] and results merge in chunk order, replaying
   cached counts is bit-identical to recomputing them, at any domain
   count.

   The on-disk format is one versioned JSON document written with
   [Json.write_atomic_with] (temp file + rename), so the file on disk is
   a complete, parseable checkpoint at every instant — a kill at an
   arbitrary point loses at most the chunks recorded since the last
   flush, never the file's integrity.  Serialization sorts jobs and
   chunks, so equal stores produce byte-identical files.

   Flushes are incremental.  Each disk-backed job keeps the rendered
   text of its chunk entries [0..hi] — the contiguous run from chunk 0
   — and the indices recorded above [hi] since.  A flush appends the
   pending indices that extend the run, prints the rest after it, and
   streams the pieces into the temp file; only a record at or below
   [hi] (an overwrite) or a load makes the job re-render from its
   table.  [to_json] is the reference rendering: the file always equals
   [Json.to_string (to_json t)]. *)

module Json = Obs.Json

let schema_version = "ftqc-checkpoint/1"

type job = {
  label : string;
  engine : string;
  seed : int;
  trials : int;
  chunk : int;
}

(* One job's chunk ledger.  In a disk-backed store, [text] holds the
   rendered entries of chunks [0..hi] (all of them recorded), [pending]
   the indices recorded above [hi] since the last flush (unsorted,
   possibly repeated), and [stale] says [text] must be rebuilt from
   [counts].  In-memory stores leave all three untouched. *)
type ledger = {
  counts : (int, int) Hashtbl.t;
  head : string; (* the job's fields, rendered up to its chunk list *)
  text : Buffer.t;
  mutable hi : int;
  mutable pending : int list;
  mutable stale : bool;
}

type t = {
  file : string;
  flush_every : int;
  fsync : bool;
  jobs : (job, ledger) Hashtbl.t;
  mutex : Mutex.t;
  mutable dirty : int; (* records since the last flush *)
  mutable flushes : int; (* completed flushes, for trace span identity *)
}

let file t = t.file

(* ------------------------------------------------------- (de)serialize *)

let nchunks_of j = (j.trials + j.chunk - 1) / j.chunk
let chunk_trials j idx = min j.chunk (j.trials - (idx * j.chunk))

let job_to_json (j, chunks) =
  Json.Obj
    [ ("label", Json.String j.label);
      ("engine", Json.String j.engine);
      ("seed", Json.Int j.seed);
      ("trials", Json.Int j.trials);
      ("chunk", Json.Int j.chunk);
      ( "chunks",
        Json.List
          (List.map (fun (i, c) -> Json.List [ Json.Int i; Json.Int c ]) chunks)
      ) ]

let document jobs =
  Json.Obj [ ("schema", Json.String schema_version); ("jobs", Json.List jobs) ]

(* Stable rendering: jobs sorted by key, chunks by index.  Call with
   [t.mutex] held. *)
let to_json_locked t =
  let jobs =
    Hashtbl.fold
      (fun j l acc ->
        let chunks =
          Hashtbl.fold (fun i c l -> (i, c) :: l) l.counts [] |> List.sort compare
        in
        (j, chunks) :: acc)
      t.jobs []
    |> List.sort compare
  in
  document (List.map job_to_json jobs)

let to_json t =
  Mutex.lock t.mutex;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.mutex) (fun () -> to_json_locked t)

(* ----------------------------------------------- incremental rendering *)

(* The pieces below reproduce [Json.to_string (to_json_locked t)], and
   [Json] renders every value in them: the document is [doc_head], then
   the job list, then ["\n}\n"]; a job is its [head], its chunk list,
   then ["\n    }"]; list items are comma-joined and each starts with
   its own line break.  Only that list and object framing is spelled
   out here. *)

(* [open_prefix ~indent v] — [v], an object whose last field is an
   empty list, rendered at column [indent] and cut just before that
   list, so the streamed list can follow. *)
let open_prefix ~indent v =
  let b = Buffer.create 128 in
  Json.to_buffer ~indent b v;
  let close = "[]\n" ^ String.make indent ' ' ^ "}" in
  Buffer.sub b 0 (Buffer.length b - String.length close)

let doc_head = open_prefix ~indent:0 (document [])

let render_head j = "\n    " ^ open_prefix ~indent:4 (job_to_json (j, []))

let add_entry b i c =
  Buffer.add_string b "\n        ";
  Json.to_buffer ~indent:8 b (Json.List [ Json.Int i; Json.Int c ])

(* Every ledger starts stale, so its first flush renders it from its
   table: a handful of entries for a new job, the whole ledger for a
   loaded one. *)
let new_ledger t j counts =
  { counts;
    head = (if t.file = "" then "" else render_head j);
    text = Buffer.create (if t.file = "" then 1 else 1024);
    hi = -1;
    pending = [];
    stale = true }

(* Bring [text] up to date: re-render a stale ledger from its table,
   then move every pending index that extends the run [hi+1, hi+2, …]
   into [text].  Indices beyond a gap stay pending, sorted. *)
let catch_up l =
  if l.stale then begin
    Buffer.clear l.text;
    l.hi <- -1;
    l.pending <- Hashtbl.fold (fun i _ acc -> i :: acc) l.counts [];
    l.stale <- false
  end;
  let rec extend = function
    | i :: rest when i = l.hi + 1 ->
      if i > 0 then Buffer.add_char l.text ',';
      add_entry l.text i (Hashtbl.find l.counts i);
      l.hi <- i;
      extend rest
    | rest -> rest
  in
  l.pending <- extend (List.sort_uniq compare l.pending)

(* Stream the document of caught-up, key-sorted [jobs] into [oc]. *)
let write_document jobs oc =
  let tail = Buffer.create 1024 in
  output_string oc doc_head;
  (match jobs with
  | [] -> output_string oc "[]"
  | _ ->
    output_char oc '[';
    List.iteri
      (fun k (_, l) ->
        if k > 0 then output_char oc ',';
        output_string oc l.head;
        if Hashtbl.length l.counts = 0 then output_string oc "[]"
        else begin
          output_char oc '[';
          Buffer.output_buffer oc l.text;
          Buffer.clear tail;
          List.iter
            (fun i ->
              if l.hi >= 0 || Buffer.length tail > 0 then Buffer.add_char tail ',';
              add_entry tail i (Hashtbl.find l.counts i))
            l.pending;
          Buffer.output_buffer oc tail;
          output_string oc "\n      ]"
        end;
        output_string oc "\n    }")
      jobs;
    output_string oc "\n  ]");
  output_string oc "\n}\n"

(* Parse + validate one checkpoint document.  Every structural or
   range violation is a hard [Error] with a location: a truncated or
   hand-edited checkpoint must be rejected, never quietly repaired
   into a wrong resume. *)
let parse json =
  let ( let* ) = Result.bind in
  let field obj name conv what =
    match Json.member name obj with
    | None -> Error (Printf.sprintf "missing %S field" name)
    | Some v -> (
      match conv v with
      | Some x -> Ok x
      | None -> Error (Printf.sprintf "%S field is not %s" name what))
  in
  let* schema = field json "schema" Json.to_string_opt "a string" in
  let* () =
    if schema = schema_version then Ok ()
    else if
      String.length schema >= 16 && String.sub schema 0 16 = "ftqc-checkpoint/"
    then Error (Printf.sprintf "unsupported checkpoint schema %S (want %S)" schema schema_version)
    else Error (Printf.sprintf "not a checkpoint file (schema %S)" schema)
  in
  let* jobs = field json "jobs" Json.to_list_opt "a list" in
  let parse_chunk_pair j seen pair =
    match Json.to_list_opt pair with
    | Some [ i; c ] -> (
      match (Json.to_int_opt i, Json.to_int_opt c) with
      | Some idx, Some count ->
        if idx < 0 || idx >= nchunks_of j then
          Error (Printf.sprintf "chunk index %d out of range [0, %d)" idx (nchunks_of j))
        else if Hashtbl.mem seen idx then
          Error (Printf.sprintf "duplicate chunk index %d" idx)
        else if count < 0 || count > chunk_trials j idx then
          Error
            (Printf.sprintf "chunk %d count %d out of range [0, %d]" idx count
               (chunk_trials j idx))
        else begin
          Hashtbl.replace seen idx count;
          Ok ()
        end
      | _ -> Error "chunk entry elements are not ints")
    | _ -> Error "chunk entry is not an [index, count] pair"
  in
  let parse_job n jv =
    let ctx msg = Printf.sprintf "job %d: %s" n msg in
    let* label =
      match Json.member "label" jv with
      | None -> Ok "" (* label is optional *)
      | Some v -> (
        match Json.to_string_opt v with
        | Some s -> Ok s
        | None -> Error (ctx "\"label\" field is not a string"))
    in
    let* engine = Result.map_error ctx (field jv "engine" Json.to_string_opt "a string") in
    let* seed = Result.map_error ctx (field jv "seed" Json.to_int_opt "an int") in
    let* trials = Result.map_error ctx (field jv "trials" Json.to_int_opt "an int") in
    let* chunk = Result.map_error ctx (field jv "chunk" Json.to_int_opt "an int") in
    let* () = if engine = "" then Error (ctx "empty engine") else Ok () in
    let* () = if trials < 0 then Error (ctx "negative trials") else Ok () in
    let* () = if chunk < 1 then Error (ctx "chunk must be >= 1") else Ok () in
    let j = { label; engine; seed; trials; chunk } in
    let* pairs = Result.map_error ctx (field jv "chunks" Json.to_list_opt "a list") in
    let seen = Hashtbl.create (List.length pairs) in
    let* () =
      List.fold_left
        (fun acc pair ->
          let* () = acc in
          Result.map_error ctx (parse_chunk_pair j seen pair))
        (Ok ()) pairs
    in
    Ok (j, seen)
  in
  let* parsed =
    List.fold_left
      (fun acc (n, jv) ->
        let* l = acc in
        let* j = parse_job n jv in
        Ok (j :: l))
      (Ok [])
      (List.mapi (fun n jv -> (n, jv)) jobs)
    |> Result.map List.rev
  in
  let tbl = Hashtbl.create 8 in
  let* () =
    List.fold_left
      (fun acc (j, seen) ->
        let* () = acc in
        if Hashtbl.mem tbl j then Error "duplicate job key"
        else begin
          Hashtbl.replace tbl j seen;
          Ok ()
        end)
      (Ok ()) parsed
  in
  Ok tbl

let validate json =
  Result.map (fun tbl -> Hashtbl.length tbl) (parse json)

(* ------------------------------------------------------------ lifecycle *)

let default_flush_every = 8

let flush_locked t =
  (* The flush sequence number is deterministic (one flush per
     [flush_every] records plus the explicit ones), so the span id is
     stable even though which thread performs the flush is not.  The
     span is emitted with an explicit root parent: flushes fire from
     whichever worker crossed the threshold, where no ambient request
     context applies. *)
  if t.file <> "" then begin
    let traced = Obs.Trace.enabled () in
    let t0 = if traced then Obs.now () else 0.0 in
    let jobs =
      Hashtbl.fold (fun j l acc -> (j, l) :: acc) t.jobs []
      |> List.sort (fun (a, _) (b, _) -> compare a b)
    in
    List.iter (fun (_, l) -> catch_up l) jobs;
    Json.write_atomic_with ~fsync:t.fsync ~file:t.file (write_document jobs);
    let seq = t.flushes in
    t.flushes <- seq + 1;
    if traced then
      Obs.Trace.emit
        { Obs.Trace.id = Obs.Trace.span_id [ t.file; "flush"; string_of_int seq ];
          parent = "";
          name = Printf.sprintf "checkpoint flush #%d" seq;
          cat = "campaign";
          start_s = t0;
          dur_s = Obs.now () -. t0;
          args =
            [ ("file", Json.String t.file);
              ("seq", Json.Int seq);
              ("records", Json.Int t.dirty) ] }
  end;
  t.dirty <- 0

let locked t f =
  Mutex.lock t.mutex;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.mutex) f

let make ~flush_every ~fsync file =
  { file; flush_every; fsync; jobs = Hashtbl.create 8; mutex = Mutex.create ();
    dirty = 0; flushes = 0 }

let create ?(flush_every = default_flush_every) ?(fsync = false) file =
  if flush_every < 1 then invalid_arg "Mc.Campaign.create: flush_every must be >= 1";
  if Sys.file_exists file then
    Error
      (Printf.sprintf
         "%s: checkpoint already exists (resume it with --resume, or remove it \
          to start fresh)"
         file)
  else begin
    let t = make ~flush_every ~fsync file in
    (* Write the empty document up front: from the first instant of
       the campaign there is a valid resume token on disk. *)
    match flush_locked t with
    | () -> Ok t
    | exception Sys_error msg -> Error (Printf.sprintf "%s: %s" file msg)
  end

let in_memory () =
  (* The "" file sentinel never reaches the filesystem: [flush_locked]
     short-circuits on it, so an in-memory store is a plain chunk
     ledger with the same find/record/completed surface.  Used by the
     fleet coordinator (per-request re-dispatch ledger) and by workers
     (range-restricted prefill ledger), where durability is owned by
     the coordinator's own store, not this one. *)
  make ~flush_every:max_int ~fsync:false ""

let load ?(flush_every = default_flush_every) ?(fsync = false) file =
  if flush_every < 1 then invalid_arg "Mc.Campaign.load: flush_every must be >= 1";
  let ( let* ) = Result.bind in
  let* json = Json.read_file file in
  let* jobs = Result.map_error (fun m -> Printf.sprintf "%s: %s" file m) (parse json) in
  let t = make ~flush_every ~fsync file in
  Hashtbl.iter (fun j counts -> Hashtbl.replace t.jobs j (new_ledger t j counts)) jobs;
  Ok t

let flush t = locked t (fun () -> flush_locked t)

(* --------------------------------------------------------------- access *)

let find t ~job ~chunk =
  locked t (fun () ->
      match Hashtbl.find_opt t.jobs job with
      | None -> None
      | Some l -> Hashtbl.find_opt l.counts chunk)

let record t ~job ~chunk ~failures =
  locked t (fun () ->
      let l =
        match Hashtbl.find_opt t.jobs job with
        | Some l -> l
        | None ->
          let l = new_ledger t job (Hashtbl.create 64) in
          Hashtbl.replace t.jobs job l;
          l
      in
      Hashtbl.replace l.counts chunk failures;
      (* in-memory stores never flush, so they track nothing *)
      if t.file <> "" && not l.stale then begin
        if chunk <= l.hi then l.stale <- true else l.pending <- chunk :: l.pending
      end;
      t.dirty <- t.dirty + 1;
      if t.dirty >= t.flush_every then flush_locked t)

let completed t ~job =
  locked t (fun () ->
      match Hashtbl.find_opt t.jobs job with
      | None -> 0
      | Some l -> Hashtbl.length l.counts)

let jobs t =
  locked t (fun () -> Hashtbl.fold (fun j _ acc -> j :: acc) t.jobs [] |> List.sort compare)

(* ------------------------------------------- ambient store & stop flag *)

(* The ambient store lets the experiments CLI turn checkpointing on
   for every `_mc` driver in the tree without widening any driver
   signature (precedent: the FTQC_DOMAINS env override).  Set from
   the main domain only; the runner snapshots it at entry-point time,
   never from inside a worker. *)

let current_store : t option ref = ref None
let set_current c = current_store := c
let current () = !current_store

let current_label = ref ""

let with_label label f =
  let old = !current_label in
  current_label := label;
  Fun.protect ~finally:(fun () -> current_label := old) f

let label () = !current_label

(* Graceful degradation: signal handlers only set this flag; workers
   poll it between chunks and the runner raises [Interrupted] after
   flushing, so the caller can write a partial manifest with a resume
   token instead of dying mid-write. *)

let stop_flag = Atomic.make false
let request_stop () = Atomic.set stop_flag true
let stop_requested () = Atomic.get stop_flag
let reset_stop () = Atomic.set stop_flag false

exception
  Interrupted of { completed : int; total : int; checkpoint : string option }

let () =
  Printexc.register_printer (function
    | Interrupted { completed; total; checkpoint } ->
      Some
        (Printf.sprintf "Mc.Campaign.Interrupted (%d/%d chunks done%s)"
           completed total
           (match checkpoint with
           | Some f -> Printf.sprintf ", resume from %s" f
           | None -> ", no checkpoint"))
    | _ -> None)

let install_signal_handlers () =
  let handle _ = request_stop () in
  List.iter
    (fun s ->
      try ignore (Sys.signal s (Sys.Signal_handle handle))
      with Invalid_argument _ | Sys_error _ -> ())
    [ Sys.sigint; Sys.sigterm ]
