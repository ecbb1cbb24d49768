(* Shared plumbing: the run-artifact directory, the host record,
   process memory, span tables and the one-line JSON result. *)

open Ftqc
module Json = Obs.Json

(* Run artifacts (checkpoint files, daemon sockets and logs, traces)
   live here, relative to the checkout root the benchmark runs from;
   the relative path also keeps socket paths short. *)
let out_dir = "perfbench/out"

let ensure_out_dir () =
  if not (Sys.file_exists out_dir) then Sys.mkdir out_dir 0o755

let out_file name = Filename.concat out_dir name
let remove_quiet f = try Sys.remove f with Sys_error _ -> ()

(* ------------------------------------------------------------- json *)

(* [Json.to_string] on one line (floats print shortest-round-trip, so
   every digit survives). *)
let compact j =
  String.concat "" (List.map String.trim (String.split_on_char '\n' (Json.to_string j)))

let member_exn k j =
  match Json.member k j with
  | Some v -> v
  | None -> failwith (Printf.sprintf "missing field %S" k)

let number j =
  match j with
  | Json.Int i -> float_of_int i
  | Json.Float f -> f
  | _ -> failwith "expected a number"

let string_exn j =
  match Json.to_string_opt j with
  | Some s -> s
  | None -> failwith "expected a string"

(* ------------------------------------------------------------- host *)

let read_file f = In_channel.with_open_text f In_channel.input_all

let field_of_lines text key =
  List.find_map
    (fun line ->
      match String.index_opt line ':' with
      | Some i when String.trim (String.sub line 0 i) = key ->
        Some (String.trim (String.sub line (i + 1) (String.length line - i - 1)))
      | _ -> None)
    (String.split_on_char '\n' text)

let cpu_model () =
  match read_file "/proc/cpuinfo" with
  | text -> Option.value (field_of_lines text "model name") ~default:"unknown"
  | exception Sys_error _ -> "unknown"

(* Everything a comparison must hold equal between two result sets;
   [domains] is recorded per workload beside it. *)
let host () =
  [ ("cpu_model", Json.String (cpu_model ()));
    ("nproc", Json.Int (Domain.recommended_domain_count ()));
    ("ocaml", Json.String Sys.ocaml_version) ]

(* Peak resident set (VmHWM) of a live process, in MiB. *)
let peak_rss_mb pid =
  let file = Printf.sprintf "/proc/%s/status" pid in
  match field_of_lines (read_file file) "VmHWM" with
  | Some v -> (
    match String.split_on_char ' ' v with
    | kb :: _ -> float_of_string kb /. 1024.0
    | [] -> failwith ("unreadable VmHWM in " ^ file))
  | None -> failwith ("no VmHWM in " ^ file)

(* ------------------------------------------------------- host speed *)

(* On a shared host the memory system's speed swings by up to 2x over
   minutes with the neighbours' load, and the engine kernels, which
   allocate on every tile, swing with it while register-bound loops do
   not.  So a fixed reference kernel that calls no library code runs
   right before every timed engine operation, and the operation's time
   is scaled by (the kernel's pinned time / its time just now): times
   are reported at the reference host speed.  The kernel matches the
   operation's shape: it allocates on as many domains as the operation
   runs, and rewrites small files when the operation checkpoints.  Its
   pinned times are in calibration.json.

   The allocation part is blocks of 1,000 table inserts, claimed from a
   shared counter the way [Mc.Runner] claims chunks, so on several
   domains the kernel's time follows their combined speed, as a rep's
   does. *)
let reference_alloc next ~blocks =
  let h = Hashtbl.create 4096 in
  let rec claim () =
    let b = Atomic.fetch_and_add next 1 in
    if b < blocks then begin
      for i = b * 1000 to (b * 1000) + 999 do
        Hashtbl.replace h (string_of_int (i land 4095)) [ i ]
      done;
      claim ()
    end
  in
  claim ()

let reference_payload = String.make 24_000 'x'

let reference_files () =
  let tmp = out_file "reference.tmp" and dst = out_file "reference.dat" in
  for _ = 1 to 8 do
    Out_channel.with_open_bin tmp (fun oc -> Out_channel.output_string oc reference_payload);
    Sys.rename tmp dst
  done;
  Sys.remove dst

let reference_kernel ~domains ~files =
  let next = Atomic.make 0 and blocks = 40 * domains in
  let others =
    List.init (domains - 1) (fun _ -> Domain.spawn (fun () -> reference_alloc next ~blocks))
  in
  reference_alloc next ~blocks;
  List.iter Domain.join others;
  if files then reference_files ()

let calibration =
  lazy
    (match Json.read_file "perfbench/calibration.json" with
    | Ok j -> j
    | Error m -> failwith m)

(* The factor that scales a time measured now to reference speed. *)
let host_factor ~domains ~files =
  let key = Printf.sprintf "%d%s" domains (if files then "+files" else "") in
  let pinned =
    number (member_exn key (member_exn "reference_kernel_s" (Lazy.force calibration)))
  in
  let t0 = Obs.now () in
  reference_kernel ~domains ~files;
  pinned /. (Obs.now () -. t0)

(* ------------------------------------------------------------ spans *)

(* Span names carry chunk and sequence numbers ("chunk 17"); the table
   groups on the name with its numeric words folded to "N". *)
let span_group name =
  String.split_on_char ' ' name
  |> List.map (fun w ->
         if w <> "" && String.for_all (fun c -> (c >= '0' && c <= '9') || c = '#') w
         then "N"
         else w)
  |> String.concat " "

(* Per-name count, total, self (total minus the time covered by child
   spans), p50 and p99, printed from whatever the sink kept. *)
let print_span_table (spans : Obs.Trace.span list) =
  let child = Hashtbl.create 1024 in
  List.iter
    (fun (s : Obs.Trace.span) ->
      if s.parent <> "" then
        Hashtbl.replace child s.parent
          (s.dur_s +. Option.value (Hashtbl.find_opt child s.parent) ~default:0.0))
    spans;
  let groups = Hashtbl.create 64 in
  List.iter
    (fun (s : Obs.Trace.span) ->
      let g = span_group s.name in
      let self =
        s.dur_s -. Option.value (Hashtbl.find_opt child s.id) ~default:0.0
      in
      let durs, selfs =
        Option.value (Hashtbl.find_opt groups g) ~default:([], 0.0)
      in
      Hashtbl.replace groups g (s.dur_s :: durs, selfs +. Float.max 0.0 self))
    spans;
  let rows =
    Hashtbl.fold (fun g (durs, self) acc -> (g, durs, self) :: acc) groups []
    |> List.sort (fun (_, a, _) (_, b, _) ->
           Float.compare (List.fold_left ( +. ) 0.0 b) (List.fold_left ( +. ) 0.0 a))
  in
  Printf.printf "%-34s %8s %11s %11s %10s %10s\n" "span" "count" "total ms"
    "self ms" "p50 ms" "p99 ms";
  List.iter
    (fun (g, durs, self) ->
      let pct q =
        match Sample.percentile durs q with
        | Some v -> Printf.sprintf "%10.4f" (v *. 1e3)
        | None -> Printf.sprintf "%10s" "-"
      in
      Printf.printf "%-34s %8d %11.2f %11.2f %10.4f %s\n"
        (if String.length g > 34 then String.sub g 0 34 else g)
        (List.length durs)
        (List.fold_left ( +. ) 0.0 durs *. 1e3)
        (self *. 1e3)
        (Sample.median durs *. 1e3)
        (pct 0.99))
    rows

(* A bench-side span around [f], parented under the ambient span. *)
let span ~name ~id f =
  Obs.Trace.timed ~cat:"bench" ~name ~id:(Obs.Trace.span_id id) f

(* [f ()] with [sink] (or no sink) installed instead of the current
   one. *)
let with_sink sink f =
  let outer = Obs.Trace.installed () in
  Obs.Trace.install sink;
  Fun.protect ~finally:(fun () -> Obs.Trace.install outer) f

(* ----------------------------------------------------------- checks *)

(* One correctness check; none of them runs inside a timed region. *)
type check = { check : string; ok : bool; detail : string }

let check_equal check ~expected ~got =
  { check; ok = expected = got; detail = Printf.sprintf "%d, expected %d" got expected }

(* The pooled logical failure rate of a run against a pinned reference
   rate (with that reference's own standard error folded in). *)
let z_limit = 4.0

let check_pooled ~p_ref ~ref_stderr ~failures ~shots =
  let n = float_of_int shots in
  let p = float_of_int failures /. n in
  let sd = sqrt ((p_ref *. (1.0 -. p_ref) /. n) +. (ref_stderr *. ref_stderr)) in
  let z = Float.abs (p -. p_ref) /. sd in
  {
    check = "pooled p_L";
    ok = z <= z_limit;
    detail =
      Printf.sprintf "%d/%d = %.4e vs reference %.4e (z = %.2f, limit %.0f)"
        failures shots p p_ref z z_limit;
  }

let print_checks checks =
  List.iter
    (fun c ->
      Printf.printf "check %-30s %s  %s\n" c.check
        (if c.ok then "ok  " else "FAIL")
        c.detail)
    checks
