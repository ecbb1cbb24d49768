module Bitvec = Gf2.Bitvec
module Mat = Gf2.Mat
module Code = Codes.Stabilizer_code

type t = {
  name : string;
  code : Code.t;
  hx : Mat.t;
  hz : Mat.t;
  n : int;
  k : int;
  distance : int;
  correctable : int;
  exact : bool;
  sides : (side_decoder * side_decoder) Mc.Once.t;
  flips : flip_tables option Mc.Once.t;
}

and side_decoder = Bitvec.t -> Bitvec.t option
and flip_tables = { x_flips : int array; z_flips : int array }

type error = Css of Codes.Css.error | Distance_not_found of { cap : int }

let error_to_string = function
  | Css e -> Codes.Css.error_to_string e
  | Distance_not_found { cap } ->
    Printf.sprintf "distance probe found no logical of weight <= %d" cap

exception Invalid of { name : string; error : error }

let () =
  Printexc.register_printer (function
    | Invalid { name; error } ->
      Some (Printf.sprintf "Csskit.build %S: %s" name (error_to_string error))
    | _ -> None)

(* Least weight <= cap of a vector in ker checks \ rowspace modulo
   (one side's logical operators), by increasing-weight support
   enumeration; the row-space membership test only runs on the
   codewords that survive the syndrome filter. *)
let side_logical_min_weight ~checks ~modulo ~n ~cap =
  let found = ref false in
  let rec enum support need start =
    if !found then ()
    else if need = 0 then begin
      if
        Bitvec.is_zero (Mat.mul_vec checks support)
        && not (Mat.in_row_space modulo support)
      then found := true
    end
    else
      for i = start to n - need do
        if not !found then begin
          let s = Bitvec.copy support in
          Bitvec.set s i true;
          enum s (need - 1) (i + 1)
        end
      done
  in
  let rec go w =
    if w > cap then None
    else begin
      enum (Bitvec.create n) w 0;
      if !found then Some w else go (w + 1)
    end
  in
  go 1

let probe_distance ?(cap = 7) ~hx ~hz ~n () =
  let x_side = side_logical_min_weight ~checks:hz ~modulo:hx ~n ~cap in
  let z_side = side_logical_min_weight ~checks:hx ~modulo:hz ~n ~cap in
  match (x_side, z_side) with
  | Some a, Some b -> Some (min a b)
  | (Some _ as d), None | None, (Some _ as d) -> d
  | None, None -> None

(* sum of C(n, i) for i = 0..w — the per-side exact-table size *)
let table_entries n w =
  let total = ref 0 and c = ref 1 in
  for i = 0 to w do
    if i > 0 then c := !c * (n - i + 1) / i;
    total := !total + !c
  done;
  !total

let greedy_decode_side ~checks ~n syndrome =
  let m = Mat.rows checks in
  if Bitvec.length syndrome <> m then
    invalid_arg "Csskit.greedy_decode_side: syndrome length";
  let col q =
    let v = Bitvec.create m in
    for i = 0 to m - 1 do
      if Mat.get checks i q then Bitvec.set v i true
    done;
    v
  in
  let cols = Array.init n col in
  let residual = Bitvec.copy syndrome in
  let support = Bitvec.create n in
  let stuck = ref false in
  while (not !stuck) && not (Bitvec.is_zero residual) do
    let best = ref (-1) and best_gain = ref 0 in
    let base = Bitvec.weight residual in
    for q = 0 to n - 1 do
      if not (Bitvec.get support q) then begin
        let gain = base - Bitvec.weight (Bitvec.xor residual cols.(q)) in
        if gain > !best_gain then begin
          best := q;
          best_gain := gain
        end
      end
    done;
    if !best < 0 then stuck := true
    else begin
      Bitvec.set support !best true;
      Bitvec.xor_into ~src:cols.(!best) residual
    end
  done;
  if Bitvec.is_zero residual then Some support else None

(* The CSS product decoder: the X part of the correction decodes the
   H_Z syndrome (Z-generator bits, first), the Z part the H_X
   syndrome; undecodable if either side is. *)
let compose ~n ~nz ~nx (x_side, z_side) =
  Code.decoder_of_fn ~n (fun s ->
      if Bitvec.length s <> nz + nx then None
      else
        match
          ( x_side (Bitvec.sub s ~pos:0 ~len:nz),
            z_side (Bitvec.sub s ~pos:nz ~len:nx) )
        with
        | Some e_x, Some e_z ->
          Some (Pauli.mul (Codes.Css.x_string e_x) (Codes.Css.z_string e_z))
        | _ -> None)

let undecodable = -1
let max_table_checks = 16

(* Entry s: bit j set iff side correction [side s] overlaps [logicals.(j)]
   an odd number of times. *)
let flip_table side ~checks ~logicals =
  let m = Mat.rows checks in
  Array.init (1 lsl m) (fun s ->
      match side (Bitvec.of_int ~width:m s) with
      | None -> undecodable
      | Some support ->
        let mask = ref 0 in
        Array.iteri
          (fun j l -> if Bitvec.dot support l then mask := !mask lor (1 lsl j))
          logicals;
        !mask)

let default_table_budget = 1 lsl 17

let build ?distance ?(distance_cap = 7) ?(table_budget = default_table_budget)
    ~name ~hx ~hz () =
  match Codes.Css.build ~name ~hx ~hz with
  | Error e -> Error (Css e)
  | Ok code -> (
    let n = code.Code.n and k = code.Code.k in
    let d =
      match distance with
      | Some d -> if d >= 1 then Ok d else Error (Distance_not_found { cap = 0 })
      | None -> (
        match probe_distance ~cap:distance_cap ~hx ~hz ~n () with
        | Some d -> Ok d
        | None -> Error (Distance_not_found { cap = distance_cap }))
    in
    match d with
    | Error e -> Error e
    | Ok distance ->
      let correctable = (distance - 1) / 2 in
      let exact = table_entries n correctable <= table_budget in
      let side checks =
        if exact then
          Codes.Css.classical_decoder ~checks ~n ~max_weight:correctable
        else greedy_decode_side ~checks ~n
      in
      let sides = Mc.Once.make (fun () -> (side hz, side hx)) in
      let flips =
        Mc.Once.make (fun () ->
            if
              k > 62
              || Mat.rows hz > max_table_checks
              || Mat.rows hx > max_table_checks
            then None
            else begin
              let x_side, z_side = Mc.Once.force sides in
              (* CSS logicals are pure: an X correction can only
                 anticommute with Z̄ⱼ through its Z support, and a Z
                 correction with X̄ⱼ through its X support *)
              Some
                {
                  x_flips =
                    flip_table x_side ~checks:hz
                      ~logicals:(Array.map Pauli.z_bits code.Code.logical_z);
                  z_flips =
                    flip_table z_side ~checks:hx
                      ~logicals:(Array.map Pauli.x_bits code.Code.logical_x);
                }
            end)
      in
      Ok
        { name; code; hx; hz; n; k; distance; correctable; exact; sides; flips })

let build_exn ?distance ?distance_cap ?table_budget ~name ~hx ~hz () =
  match build ?distance ?distance_cap ?table_budget ~name ~hx ~hz () with
  | Ok t -> t
  | Error error -> raise (Invalid { name; error })

let sides t = Mc.Once.force t.sides
let flip_tables t = Mc.Once.force t.flips

let decoder t =
  compose ~n:t.n ~nz:(Mat.rows t.hz) ~nx:(Mat.rows t.hx) (sides t)

let decode t s = Code.decode (decoder t) s
let syndrome t e = Code.syndrome t.code e

let side_tables t =
  if not t.exact then
    invalid_arg "Csskit.side_tables: greedy decoder has no lookup table";
  let entries checks =
    Codes.Css.side_table_entries ~checks ~n:t.n ~max_weight:t.correctable
  in
  (entries t.hz, entries t.hx)

let pp fmt t =
  Format.fprintf fmt "[[%d,%d,%d]] %s (%s)" t.n t.k t.distance t.name
    (if t.exact then "exact" else "greedy")
