module Bitvec = Gf2.Bitvec
module Mat = Gf2.Mat
module Poly = Gf2.Poly

let cyclic_generator ~n poly =
  if Poly.is_zero poly then invalid_arg "Zoo.cyclic_generator: zero polynomial";
  if not (Poly.divides poly (Poly.xn_plus_one n)) then
    invalid_arg "Zoo.cyclic_generator: polynomial must divide x^n + 1";
  let d = Poly.degree poly in
  let exps = Poly.to_exponents poly in
  let row shift =
    let v = Bitvec.create n in
    List.iter (fun e -> Bitvec.set v (e + shift) true) exps;
    v
  in
  Mat.of_rows (List.init (n - d) row)

let cyclic_parity_check ~n poly =
  Mat.of_rows (Mat.kernel (cyclic_generator ~n poly))

let cyclic ?distance ~name ~n ~poly () =
  let h = cyclic_parity_check ~n poly in
  Kit.build ?distance ~name ~hx:h ~hz:h ()

(* ------------------------------------------------------------------ *)
(* BCH machinery: GF(2^m) elements as bitmask ints, multiplication by
   carry-less product with reduction modulo a primitive polynomial.   *)

let primitive_polynomial = function
  | 3 -> 0b1011 (* x^3 + x + 1 *)
  | 4 -> 0b10011 (* x^4 + x + 1 *)
  | 5 -> 0b100101 (* x^5 + x^2 + 1 *)
  | 6 -> 0b1000011 (* x^6 + x + 1 *)
  | m -> invalid_arg (Printf.sprintf "Zoo: no primitive polynomial for m=%d" m)

let gf_mul ~m ~prim a b =
  let r = ref 0 and a = ref a and b = ref b in
  while !b <> 0 do
    if !b land 1 = 1 then r := !r lxor !a;
    b := !b lsr 1;
    a := !a lsl 1;
    if !a land (1 lsl m) <> 0 then a := !a lxor prim
  done;
  !r

let cyclotomic_coset ~n s =
  let rec go acc j = if List.mem j acc then acc else go (j :: acc) (j * 2 mod n) in
  List.sort compare (go [] (((s mod n) + n) mod n))

let minimal_polynomial ~m s =
  let n = (1 lsl m) - 1 in
  let prim = primitive_polynomial m in
  let alpha_pow e =
    let r = ref 1 in
    for _ = 1 to e do
      r := gf_mul ~m ~prim !r 2
    done;
    !r
  in
  (* Π (x + α^j) over the coset, in GF(2^m)[x]; coefficients of the
     product land in GF(2) — asserted below. *)
  let p = ref [| 1 |] in
  List.iter
    (fun j ->
      let root = alpha_pow j in
      let old = !p in
      let len = Array.length old in
      let next = Array.make (len + 1) 0 in
      Array.iteri
        (fun i c ->
          next.(i + 1) <- next.(i + 1) lxor c;
          next.(i) <- next.(i) lxor gf_mul ~m ~prim root c)
        old;
      p := next)
    (cyclotomic_coset ~n s);
  let exps = ref [] in
  Array.iteri
    (fun i c ->
      assert (c = 0 || c = 1);
      if c = 1 then exps := i :: !exps)
    !p;
  Poly.of_exponents !exps

let bch_generator ~m ~defining =
  let n = (1 lsl m) - 1 in
  let seen = Hashtbl.create 8 in
  List.fold_left
    (fun g s ->
      let rep = List.hd (cyclotomic_coset ~n s) in
      if Hashtbl.mem seen rep then g
      else begin
        Hashtbl.add seen rep ();
        Poly.mul g (minimal_polynomial ~m s)
      end)
    Poly.one defining

let bch ?distance ~name ~m ~defining () =
  let n = (1 lsl m) - 1 in
  cyclic ?distance ~name ~n ~poly:(bch_generator ~m ~defining) ()

(* ------------------------------------------------------------------ *)

(* The cyclic [7,4,3] code of x^3 + x + 1 is the standard Hamming code
   up to a coordinate relabeling.  Both parity checks are 3x7 of rank
   3 for distance-3 codes, so each carries all 7 distinct nonzero
   3-bit columns; matching columns therefore defines a permutation,
   and permuting the cyclic check by it yields *exactly*
   Codes.Hamming.parity_check (asserted) — the pipeline-built Steane
   code shares the hand-written stack's syndrome tables bit for
   bit. *)
let steane_parity_check () =
  let hc = cyclic_parity_check ~n:7 (Poly.of_exponents [ 0; 1; 3 ]) in
  let hh = Codes.Hamming.parity_check in
  let col m j = List.init (Mat.rows m) (fun i -> Mat.get m i j) in
  let perm =
    Array.init 7 (fun q ->
        let target = col hh q in
        let rec find i =
          if i = 7 then invalid_arg "Zoo.steane_parity_check: column mismatch"
          else if col hc i = target then i
          else find (i + 1)
        in
        find 0)
  in
  let permuted = Mat.create ~rows:3 ~cols:7 in
  for i = 0 to 2 do
    for q = 0 to 6 do
      Mat.set permuted i q (Mat.get hc i perm.(q))
    done
  done;
  assert (Mat.equal permuted hh);
  permuted

type entry = { name : string; summary : string; code : Kit.t Mc.Once.t }

let forced name = function
  | Ok t -> t
  | Error e ->
    (* registry members are fixed constructions: failure is a bug *)
    failwith (Printf.sprintf "Zoo.%s: %s" name (Kit.error_to_string e))

let entries =
  [
    {
      name = "steane7";
      summary = "[[7,1,3]] Steane from the cyclic Hamming code of x^3+x+1";
      code =
        Mc.Once.make (fun () ->
            let h = steane_parity_check () in
            forced "steane7" (Kit.build ~distance:3 ~name:"steane7" ~hx:h ~hz:h ()));
    };
    {
      name = "golay23";
      summary = "[[23,1,7]] from the binary Golay code of x^11+x^9+x^7+x^6+x^5+x+1";
      code =
        Mc.Once.make (fun () ->
            forced "golay23"
              (cyclic ~distance:7 ~name:"golay23" ~n:23
                 ~poly:(Poly.of_exponents [ 0; 1; 5; 6; 7; 9; 11 ])
                 ()));
    };
    {
      name = "bch15";
      summary = "[[15,7,3]] from the BCH [15,11,3] code (defining set {1})";
      code =
        Mc.Once.make (fun () ->
            forced "bch15" (bch ~distance:3 ~name:"bch15" ~m:4 ~defining:[ 1 ] ()));
    };
    {
      name = "bch31";
      summary = "[[31,21,3]] from the BCH [31,26,3] code (defining set {1})";
      code =
        Mc.Once.make (fun () ->
            forced "bch31" (bch ~distance:3 ~name:"bch31" ~m:5 ~defining:[ 1 ] ()));
    };
  ]

let names () = List.map (fun e -> e.name) entries
let mem name = List.exists (fun e -> e.name = name) entries

let find name =
  List.find_opt (fun e -> e.name = name) entries
  |> Option.map (fun e -> Mc.Once.force e.code)

let get name =
  match find name with
  | Some t -> t
  | None ->
    invalid_arg
      (Printf.sprintf "Zoo.get: unknown code %S (known: %s)" name
         (String.concat ", " (names ())))
