(* BENCHMARK.json is the single list of metrics: their units, the
   direction that counts as better and the regression bounds.  A run
   reports exactly those names and fails if it measured one it does not
   list or missed one it does. *)

open Common

type better = Lower | Higher

type metric = {
  name : string;
  unit_ : string;
  better : better;
  bound : float option;  (** [None] for per-layer metrics *)
}

type t = {
  workloads : string list;
  end_to_end : metric list;
  per_layer : metric list;
}

let file = "BENCHMARK.json"

let metric j =
  {
    name = string_exn (member_exn "name" j);
    unit_ = string_exn (member_exn "unit" j);
    better =
      (match string_exn (member_exn "better" j) with
      | "lower" -> Lower
      | "higher" -> Higher
      | s -> failwith ("unknown direction " ^ s));
    bound = Option.map number (Json.member "bound" j);
  }

let list k j =
  match Json.to_list_opt (member_exn k j) with
  | Some l -> l
  | None -> failwith (Printf.sprintf "%s: %S is not a list" file k)

let load () =
  match Json.read_file file with
  | Error m -> failwith m
  | Ok j ->
    {
      workloads =
        List.map (fun w -> string_exn (member_exn "name" w)) (list "workloads" j);
      end_to_end = List.map metric (list "end_to_end" j);
      per_layer = List.map metric (list "per_layer" j);
    }

(* [select t ~trace measured] — the listed metrics of this kind of run,
   in listing order, as [(metric, value)]; raises naming every
   mismatch. *)
let select t ~trace measured =
  let wanted = if trace then t.per_layer else t.end_to_end in
  let missing =
    List.filter (fun m -> not (List.mem_assoc m.name measured)) wanted
  in
  let unlisted =
    List.filter
      (fun (n, _) -> not (List.exists (fun m -> m.name = n) wanted))
      measured
  in
  if missing <> [] || unlisted <> [] then
    failwith
      (Printf.sprintf "metrics disagree with %s: missing [%s], unlisted [%s]"
         file
         (String.concat " " (List.map (fun m -> m.name) missing))
         (String.concat " " (List.map fst unlisted)));
  List.map (fun m -> (m, List.assoc m.name measured)) wanted

(* Reference logical failure rates for the pooled-p_L check, pinned in
   calibration.json beside the calibration record. *)
let reference workload =
  let r = member_exn workload (member_exn "reference" (Lazy.force calibration)) in
  (number (member_exn "p_l" r), number (member_exn "stderr" r))
