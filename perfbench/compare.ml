(* [--compare BASE_DIR NEW_DIR]: decide, per workload and metric,
   whether a change improved or regressed the benchmark.  Each
   directory holds result files ([--out]) from runs made alternately
   with the other side; runs are paired in the order they started. *)

open Common

type verdict = Improved | Unchanged | Regressed | Unresolved

let verdict_name = function
  | Improved -> "improved"
  | Unchanged -> "unchanged"
  | Regressed -> "regressed"
  | Unresolved -> "unresolved"

(* Positive when [n] reads better than [b]. *)
let gain (better : Spec.better) b n =
  match better with Spec.Lower -> b -. n | Spec.Higher -> n -. b

let rec pairs b n = match (b, n) with x :: b, y :: n -> (x, y) :: pairs b n | _ -> []

let wins better ps = List.length (List.filter (fun (b, n) -> gain better b n > 0.0) ps)
let losses better ps = List.length (List.filter (fun (b, n) -> gain better b n < 0.0) ps)

(* Improved: the change wins at least 9 of every 10 pairs (ties count
   for neither side) and the medians differ by more than the base's
   interquartile range.  Otherwise, with a bound: unresolved when
   either side's spread exceeds the bound (unless every new run beats
   every base run), regressed when the median is worse by more than
   the bound, else unchanged.  Without a bound the mirror image of the
   improvement rule decides a regression. *)
let verdict ~better ~bound ~base ~new_ =
  let ps = pairs base new_ in
  let decisive k = ps <> [] && 10 * k >= 9 * List.length ps in
  let mb = Sample.median base in
  let q1, _, q3 = Sample.quartiles base in
  let g = gain better mb (Sample.median new_) in
  if decisive (wins better ps) && g > q3 -. q1 then Improved
  else
    match bound with
    | None ->
      if decisive (losses better ps) && -.g > q3 -. q1 then Regressed else Unchanged
    | Some bound ->
      let all_better =
        List.for_all (fun n -> List.for_all (fun b -> gain better b n > 0.0) base) new_
      in
      if Float.max (Sample.spread base) (Sample.spread new_) > bound && not all_better
      then Unresolved
      else if -.g /. Float.abs mb > bound then Regressed
      else Unchanged

type result = {
  workload : string;
  trace : bool;
  started : float;
  host : string;  (** the host record, rendered for equality tests *)
  metrics : (string * float) list;
}

let schema = "ftqc-perfbench/1"

let load_dir dir =
  Sys.readdir dir |> Array.to_list
  |> List.filter (fun f -> Filename.check_suffix f ".json")
  |> List.filter_map (fun f ->
         match Json.read_file (Filename.concat dir f) with
         | Ok j when Json.member "schema" j = Some (Json.String schema) ->
           let metrics =
             match member_exn "metrics" j with
             | Json.Obj kvs -> List.map (fun (k, v) -> (k, number (member_exn "value" v))) kvs
             | _ -> []
           in
           Some
             { workload = string_exn (member_exn "workload" j);
               trace = member_exn "trace" j = Json.Bool true;
               started = number (member_exn "started_unix" j);
               host = compact (member_exn "host" j);
               metrics }
         | _ -> None)
  |> List.sort (fun a b -> Float.compare a.started b.started)

let run base_dir new_dir =
  let spec = Spec.load () in
  let base = load_dir base_dir and nw = load_dir new_dir in
  if base = [] || nw = [] then begin
    Printf.eprintf "compare: no %s result files in %s\n" schema
      (if base = [] then base_dir else new_dir);
    exit 2
  end;
  (match List.sort_uniq compare (List.map (fun r -> r.host) (base @ nw)) with
  | [ _ ] -> ()
  | hosts ->
    Printf.eprintf "compare: refusing to compare results from different hosts:\n%s\n"
      (String.concat "\n" hosts);
    exit 2);
  let keys =
    List.sort_uniq compare (List.map (fun r -> (r.workload, r.trace)) base)
    |> List.filter (fun k -> List.exists (fun r -> (r.workload, r.trace) = k) nw)
  in
  Printf.printf "%-13s %-34s %32s %32s %7s  %s\n" "workload" "metric"
    "base median [q1, q3]" "new median [q1, q3]" "wins" "verdict";
  let regressed = ref false in
  List.iter
    (fun (w, trace) ->
      let side rs name =
        List.filter_map
          (fun r -> if r.workload = w && r.trace = trace then List.assoc_opt name r.metrics else None)
          rs
      in
      List.iter
        (fun (m : Spec.metric) ->
          let b = side base m.name and n = side nw m.name in
          if List.length b >= 2 && List.length n >= 2 then begin
            let v = verdict ~better:m.better ~bound:m.bound ~base:b ~new_:n in
            if v = Regressed then regressed := true;
            let show xs =
              let q1, _, q3 = Sample.quartiles xs in
              Printf.sprintf "%.4g [%.4g, %.4g]" (Sample.median xs) q1 q3
            in
            let ps = pairs b n in
            Printf.printf "%-13s %-34s %32s %32s %3d/%-3d  %s\n" w m.name (show b) (show n)
              (wins m.better ps) (List.length ps) (verdict_name v)
          end)
        (spec.end_to_end @ spec.per_layer))
    keys;
  if !regressed then exit 1
