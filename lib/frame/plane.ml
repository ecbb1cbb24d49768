module Bitvec = Gf2.Bitvec
module W = Mc.Words

(* Bit-sliced Pauli frame: a tile of [lanes] X words and [lanes] Z
   words per qubit, bit k of lane j belonging to Monte-Carlo shot
   64·j + k of the tile.  Frame propagation through Clifford gates is
   the usual symplectic update, applied word-wise so all
   [width = 64·lanes] shots advance per operation.

   Storage is row-major: qubit q's lane j is word [q * lanes + j] of
   an unboxed word vector (Mc.Words, read and written at byte offset
   8 times the word index), so one qubit's tile is contiguous, the
   per-qubit gate loops run over adjacent words and no store
   allocates. *)

type t = { n : int; lanes : int; x : W.t; z : W.t }

let create ?(width = 64) n =
  if n < 1 then invalid_arg "Frame.Plane.create: n >= 1";
  if width < 64 || width mod 64 <> 0 then
    invalid_arg "Frame.Plane.create: width must be a positive multiple of 64";
  let lanes = width / 64 in
  { n; lanes; x = W.create (n * lanes); z = W.create (n * lanes) }

let num_qubits t = t.n
let lanes t = t.lanes
let width t = 64 * t.lanes
let x_words t = t.x
let z_words t = t.z

let clear t =
  W.fill t.x 0 (t.n * t.lanes) 0L;
  W.fill t.z 0 (t.n * t.lanes) 0L

(* CNOT a→b: X copies control→target, Z copies target→control. *)
let cnot t a b =
  let l = t.lanes in
  let a0 = 8 * a * l and b0 = 8 * b * l in
  for j = 0 to l - 1 do
    let oa = a0 + (8 * j) and ob = b0 + (8 * j) in
    W.set t.x ob (Int64.logxor (W.get t.x ob) (W.get t.x oa));
    W.set t.z oa (Int64.logxor (W.get t.z oa) (W.get t.z ob))
  done

(* H: swap the X and Z planes of the qubit. *)
let h t q =
  let q0 = 8 * q * t.lanes in
  for j = 0 to t.lanes - 1 do
    let o = q0 + (8 * j) in
    let xq = W.get t.x o in
    W.set t.x o (W.get t.z o);
    W.set t.z o xq
  done

(* S: X → Y, i.e. the Z plane picks up the X plane. *)
let s_gate t q =
  let q0 = 8 * q * t.lanes in
  for j = 0 to t.lanes - 1 do
    let o = q0 + (8 * j) in
    W.set t.z o (Int64.logxor (W.get t.z o) (W.get t.x o))
  done

let check_lane t lane =
  if lane < 0 || lane >= t.lanes then
    invalid_arg "Frame.Plane: lane out of range"

let xor_x ?(lane = 0) t q w =
  check_lane t lane;
  let o = 8 * ((q * t.lanes) + lane) in
  W.set t.x o (Int64.logxor (W.get t.x o) w)

let xor_z ?(lane = 0) t q w =
  check_lane t lane;
  let o = 8 * ((q * t.lanes) + lane) in
  W.set t.z o (Int64.logxor (W.get t.z o) w)

let get_x ?(lane = 0) t q =
  check_lane t lane;
  W.get t.x (8 * ((q * t.lanes) + lane))

let get_z ?(lane = 0) t q =
  check_lane t lane;
  W.get t.z (8 * ((q * t.lanes) + lane))

let parity_x ?(lane = 0) t qubits =
  check_lane t lane;
  let acc = ref 0L in
  for i = 0 to Array.length qubits - 1 do
    acc := Int64.logxor !acc (W.get t.x (8 * ((qubits.(i) * t.lanes) + lane)))
  done;
  !acc

(* One whole syndrome-bit tile: for every lane, the X-plane parity
   over [x_sel] XOR the Z-plane parity over [z_sel], written to words
   [off .. off + lanes - 1] of [dst].  Lane-outer with an unboxed
   accumulator: one store per lane instead of one read-modify-write
   per selected qubit per lane (XOR commutes, so the value is
   unchanged). *)
let parity_check_words t ~x_sel ~z_sel dst off =
  let l = t.lanes in
  let nx = Array.length x_sel and nz = Array.length z_sel in
  for j = 0 to l - 1 do
    let acc = ref 0L in
    for i = 0 to nx - 1 do
      acc := Int64.logxor !acc (W.get t.x (8 * ((x_sel.(i) * l) + j)))
    done;
    for i = 0 to nz - 1 do
      acc := Int64.logxor !acc (W.get t.z (8 * ((z_sel.(i) * l) + j)))
    done;
    W.set dst (8 * (off + j)) !acc
  done

(* Noise injection over compiled plans (see Sampler): one bulk
   sampling call per lane XORs fresh fault words into every selected
   qubit. *)
let flip_x_plan t sampler ~qubits pl =
  Sampler.bernoulli_plan_xor_sel sampler pl t.x ~sel:qubits ~stride:t.lanes

let flip_z_plan t sampler ~qubits pl =
  Sampler.bernoulli_plan_xor_sel sampler pl t.z ~sel:qubits ~stride:t.lanes

let depolarize_plan t sampler ~qubits pp =
  Sampler.pauli_plan_xor_sel sampler pp ~x:t.x ~z:t.z ~sel:qubits
    ~stride:t.lanes

let blit_x t dst off = W.blit t.x 0 dst off (t.n * t.lanes)

let[@inline] bit w k = Int64.logand (Int64.shift_right_logical w k) 1L = 1L

(* Bit i of the result is bit [k] of word [(pos + i) * lanes + lane]
   of [rows]. *)
let row_shot_words rows ~lanes ~lane ~pos ~len k =
  let v = Bitvec.create len in
  for i = 0 to len - 1 do
    if bit (W.get rows (8 * (((pos + i) * lanes) + lane))) k then
      Bitvec.set v i true
  done;
  v

let load_shot words k v =
  if Bitvec.length v <> Array.length words then
    invalid_arg "Frame.Plane.load_shot: length mismatch";
  let m = Int64.shift_left 1L k in
  Array.iteri
    (fun i w ->
      let w = Int64.logand w (Int64.lognot m) in
      words.(i) <- (if Bitvec.get v i then Int64.logor w m else w))
    words

(* In-place 64x64 bit-matrix transpose of words [off .. off + 63],
   LSB-first column convention: afterwards bit i of word off + k is
   what bit k of word off + i was.  Recursive block swap (Hacker's
   Delight 7-3 adapted to LSB-first): at each level j, swap the
   off-diagonal j x j sub-blocks of every aligned 2j x 2j block. *)
let transpose_block b off =
  if off < 0 || off > W.length b - 64 then
    invalid_arg "Frame.Plane.transpose_block: block out of range";
  let base = 8 * off in
  let j = ref 32 in
  let m = ref 0xFFFFFFFFL in
  while !j <> 0 do
    let jj = !j and mm = !m in
    let k = ref 0 in
    while !k < 64 do
      let kk = !k in
      let ox = base + (8 * kk) and oy = base + (8 * (kk + jj)) in
      let x = W.get b ox and y = W.get b oy in
      let t = Int64.logand (Int64.logxor (Int64.shift_right_logical x jj) y) mm in
      W.set b ox (Int64.logxor x (Int64.shift_left t jj));
      W.set b oy (Int64.logxor y t);
      k := (kk + jj + 1) land lnot jj
    done;
    let j' = jj lsr 1 in
    j := j';
    if j' > 0 then m := Int64.logxor mm (Int64.shift_left mm j')
  done

(* Tile-at-a-time shot extraction: gather rows [pos, pos + nrows) of
   lane [lane] from row-major [src] into [dst] and block-transpose
   them there, so that afterwards word [64 * d + k] of [dst] holds —
   for shot [k] of the lane — the bits of rows
   [pos + 64 * d .. pos + 64 * d + 63] (word [d] of shot [k]'s
   bitstring).  [dst] needs ceil(nrows / 64) * 64 words; rows beyond
   [nrows] read as 0, so bitvector padding invariants are preserved
   when the words are written with [Bitvec.set_word]. *)
let transpose_words ~src ~lanes ~lane ~pos ~nrows dst =
  let nblocks = (nrows + 63) / 64 in
  if W.length dst < nblocks * 64 then
    invalid_arg "Frame.Plane.transpose_words: dst too small";
  for d = 0 to nblocks - 1 do
    let base = d * 64 in
    for i = 0 to 63 do
      let r = base + i in
      W.set dst
        (8 * (base + i))
        (if r < nrows then W.get src (8 * (((pos + r) * lanes) + lane)) else 0L)
    done;
    transpose_block dst base
  done

let extract_shot t k =
  let lane = k lsr 6 and b = k land 63 in
  check_lane t lane;
  let x = row_shot_words t.x ~lanes:t.lanes ~lane ~pos:0 ~len:t.n b
  and z = row_shot_words t.z ~lanes:t.lanes ~lane ~pos:0 ~len:t.n b in
  Pauli.of_bits ~x ~z ()

let extract_shot_x t k =
  let lane = k lsr 6 in
  check_lane t lane;
  row_shot_words t.x ~lanes:t.lanes ~lane ~pos:0 ~len:t.n (k land 63)

(* The int64 array entry points: each copies the words it reads into
   a word vector, runs the implementation above and copies the result
   out. *)

(* Words [(pos + i) * lanes + lane] of [rows], i < len, as one
   lane-wide vector. *)
let gather rows ~lanes ~lane ~pos ~len =
  let w = W.create len in
  for i = 0 to len - 1 do
    W.set w (8 * i) rows.(((pos + i) * lanes) + lane)
  done;
  w

let parity_check_into t ~x_sel ~z_sel dst off =
  let w = W.create t.lanes in
  parity_check_words t ~x_sel ~z_sel w 0;
  W.blit_to_array w 0 dst off t.lanes

let row_shot_vec rows ~lanes ~lane ~pos ~len k =
  row_shot_words (gather rows ~lanes ~lane ~pos ~len) ~lanes:1 ~lane:0 ~pos:0
    ~len k

let shot_vec words k =
  row_shot_vec words ~lanes:1 ~lane:0 ~pos:0 ~len:(Array.length words) k

let transpose64 a off =
  let b = gather a ~lanes:1 ~lane:0 ~pos:off ~len:64 in
  transpose_block b 0;
  W.blit_to_array b 0 a off 64

let transposed_into_array dst ~nrows fill =
  let len = (nrows + 63) / 64 * 64 in
  if Array.length dst < len then
    invalid_arg "Frame.Plane.transpose_rows: dst too small";
  let w = W.create len in
  fill w;
  W.blit_to_array w 0 dst 0 len

let transpose_rows ~src ~lanes ~lane ~pos ~nrows dst =
  transposed_into_array dst ~nrows
    (transpose_words
       ~src:(gather src ~lanes ~lane ~pos ~len:nrows)
       ~lanes:1 ~lane:0 ~pos:0 ~nrows)

let transpose_x t ~lane dst =
  transposed_into_array dst ~nrows:t.n
    (transpose_words ~src:t.x ~lanes:t.lanes ~lane ~pos:0 ~nrows:t.n)

let shot_of_transposed dst ~len k =
  let v = Bitvec.create len in
  for d = 0 to ((len + 63) / 64) - 1 do
    Bitvec.set_word v d dst.((d * 64) + k)
  done;
  v
