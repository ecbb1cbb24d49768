module Bitvec = Gf2.Bitvec
module Mat = Gf2.Mat

(* generator polynomial x¹¹ + x⁹ + x⁷ + x⁶ + x⁵ + x + 1: coefficient
   bits {0, 1, 5, 6, 7, 9, 11} *)
let generator =
  let poly = [ 0; 1; 5; 6; 7; 9; 11 ] in
  let row shift =
    let v = Bitvec.create 23 in
    List.iter (fun d -> Bitvec.set v (d + shift) true) poly;
    v
  in
  Mat.of_rows (List.init 12 row)

let parity_check = Mat.of_rows (Mat.kernel generator)

let is_codeword w =
  Bitvec.length w = 23 && Bitvec.is_zero (Mat.mul_vec parity_check w)

let codewords =
  Mc.Once.make (fun () ->
      List.init 4096 (fun data ->
          Mat.vec_mul (Bitvec.of_int ~width:12 data) generator))

let weight_distribution () =
  let dist = Array.make 24 0 in
  List.iter
    (fun w -> dist.(Bitvec.weight w) <- dist.(Bitvec.weight w) + 1)
    (Mc.Once.force codewords);
  dist

let classical_decoder =
  Mc.Once.make (fun () ->
      Css.classical_decoder ~checks:parity_check ~n:23 ~max_weight:3)

let decode w =
  if Bitvec.length w <> 23 then invalid_arg "Golay.decode";
  match (Mc.Once.force classical_decoder) (Mat.mul_vec parity_check w) with
  | Some support -> Bitvec.xor w support
  | None ->
    (* the Golay code is perfect: unreachable *)
    assert false

let dual_codewords =
  Mc.Once.make (fun () ->
      let rows = Mat.rows parity_check in
      List.init (1 lsl rows) (fun mask ->
          Mat.vec_mul (Bitvec.of_int ~width:rows mask) parity_check))

let quantum_distance () =
  (* least weight in C \ C⊥: compare weight enumerators *)
  let dist words =
    let d = Array.make 24 0 in
    List.iter (fun w -> d.(Bitvec.weight w) <- d.(Bitvec.weight w) + 1) words;
    d
  in
  let a = dist (Mc.Once.force codewords) in
  let b = dist (Mc.Once.force dual_codewords) in
  let rec find w =
    if w > 23 then invalid_arg "Golay.quantum_distance"
    else if a.(w) > b.(w) then w
    else find (w + 1)
  in
  find 1

let css_decoder () =
  Css.css_decoder ~max_weight_per_side:3 ~hx:parity_check ~hz:parity_check
    ~n:23 ()

(* The dual code C⊥ = [23,11,8] is self-orthogonal (C⊥ ⊆ C), so its
   generator matrix serves as both H_X and H_Z. *)
let code =
  let c = Css.make ~name:"golay23" ~hx:parity_check ~hz:parity_check in
  Stabilizer_code.register_default_decoder c (css_decoder ());
  c
