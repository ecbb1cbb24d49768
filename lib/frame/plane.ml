module Bitvec = Gf2.Bitvec

(* Bit-sliced Pauli frame: a tile of [lanes] X words and [lanes] Z
   words per qubit, bit k of lane j belonging to Monte-Carlo shot
   64·j + k of the tile.  Frame propagation through Clifford gates is
   the usual symplectic update, applied word-wise so all
   [width = 64·lanes] shots advance per operation.

   Storage is row-major: qubit q's lane j lives at index
   [q * lanes + j], so one qubit's tile is contiguous and the
   per-qubit gate loops run over adjacent words. *)

type t = { n : int; lanes : int; x : int64 array; z : int64 array }

let create ?(width = 64) n =
  if n < 1 then invalid_arg "Frame.Plane.create: n >= 1";
  if width < 64 || width mod 64 <> 0 then
    invalid_arg "Frame.Plane.create: width must be a positive multiple of 64";
  let lanes = width / 64 in
  { n; lanes; x = Array.make (n * lanes) 0L; z = Array.make (n * lanes) 0L }

let num_qubits t = t.n
let lanes t = t.lanes
let width t = 64 * t.lanes

let clear t =
  Array.fill t.x 0 (Array.length t.x) 0L;
  Array.fill t.z 0 (Array.length t.z) 0L

(* CNOT a→b: X copies control→target, Z copies target→control. *)
let cnot t a b =
  let l = t.lanes in
  let a0 = a * l and b0 = b * l in
  for j = 0 to l - 1 do
    t.x.(b0 + j) <- Int64.logxor t.x.(b0 + j) t.x.(a0 + j);
    t.z.(a0 + j) <- Int64.logxor t.z.(a0 + j) t.z.(b0 + j)
  done

(* H: swap the X and Z planes of the qubit. *)
let h t q =
  let l = t.lanes in
  let q0 = q * l in
  for j = 0 to l - 1 do
    let xq = t.x.(q0 + j) in
    t.x.(q0 + j) <- t.z.(q0 + j);
    t.z.(q0 + j) <- xq
  done

(* S: X → Y, i.e. the Z plane picks up the X plane. *)
let s_gate t q =
  let l = t.lanes in
  let q0 = q * l in
  for j = 0 to l - 1 do
    t.z.(q0 + j) <- Int64.logxor t.z.(q0 + j) t.x.(q0 + j)
  done

let check_lane t lane =
  if lane < 0 || lane >= t.lanes then
    invalid_arg "Frame.Plane: lane out of range"

let xor_x ?(lane = 0) t q w =
  check_lane t lane;
  t.x.((q * t.lanes) + lane) <- Int64.logxor t.x.((q * t.lanes) + lane) w

let xor_z ?(lane = 0) t q w =
  check_lane t lane;
  t.z.((q * t.lanes) + lane) <- Int64.logxor t.z.((q * t.lanes) + lane) w

let get_x ?(lane = 0) t q =
  check_lane t lane;
  t.x.((q * t.lanes) + lane)

let get_z ?(lane = 0) t q =
  check_lane t lane;
  t.z.((q * t.lanes) + lane)

let parity_lane rows lanes lane qubits =
  let acc = ref 0L in
  for i = 0 to Array.length qubits - 1 do
    acc := Int64.logxor !acc rows.((qubits.(i) * lanes) + lane)
  done;
  !acc

let parity_x ?(lane = 0) t qubits =
  check_lane t lane;
  parity_lane t.x t.lanes lane qubits

let parity_z ?(lane = 0) t qubits =
  check_lane t lane;
  parity_lane t.z t.lanes lane qubits

(* One whole syndrome-bit tile: for every lane, the X-plane parity
   over [x_sel] XOR the Z-plane parity over [z_sel], written to
   [dst.(off ..  off + lanes - 1)].  Lane-outer with an unboxed
   accumulator: one store per lane instead of one read-modify-write
   per selected qubit per lane (XOR commutes, so the value is
   unchanged). *)
let parity_check_into t ~x_sel ~z_sel dst off =
  let l = t.lanes in
  let nx = Array.length x_sel and nz = Array.length z_sel in
  for j = 0 to l - 1 do
    let acc = ref 0L in
    for i = 0 to nx - 1 do
      acc := Int64.logxor !acc t.x.((x_sel.(i) * l) + j)
    done;
    for i = 0 to nz - 1 do
      acc := Int64.logxor !acc t.z.((z_sel.(i) * l) + j)
    done;
    dst.(off + j) <- !acc
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

let blit_x t dst off = Array.blit t.x 0 dst off (t.n * t.lanes)
let blit_z t dst off = Array.blit t.z 0 dst off (t.n * t.lanes)

let bit w k = Int64.logand (Int64.shift_right_logical w k) 1L = 1L

(* Transpose: one shot's view of a word array (word i holds bit
   position i across the 64 shots). *)
let shot_vec words k =
  let v = Bitvec.create (Array.length words) in
  Array.iteri (fun i w -> if bit w k then Bitvec.set v i true) words;
  v

(* As [shot_vec] for lane [lane] of a row-major array of [lanes]-wide
   rows: bit i of the result is bit [k] of [rows.((pos + i) * lanes
   + lane)]. *)
let row_shot_vec rows ~lanes ~lane ~pos ~len k =
  let v = Bitvec.create len in
  for i = 0 to len - 1 do
    if bit rows.(((pos + i) * lanes) + lane) k then Bitvec.set v i true
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

(* The 64x64 transpose runs on a 512-byte scratch: an [int64 array]
   holds boxed words, so each of the network's stores would allocate,
   while these primitives read and write raw 64-bit words.  The
   scratch is allocated per call, never shared: kernels run on several
   domains at once. *)
external get64 : Bytes.t -> int -> int64 = "%caml_bytes_get64u"
external set64 : Bytes.t -> int -> int64 -> unit = "%caml_bytes_set64u"

let scratch () = Bytes.create 512

(* In-place 64x64 bit-matrix transpose of the scratch's 64 words,
   LSB-first column convention: afterwards bit i of word k is what bit
   k of word i was.  Recursive block swap (Hacker's Delight 7-3
   adapted to LSB-first): at each level j, swap the off-diagonal j x j
   sub-blocks of every aligned 2j x 2j block. *)
let transpose_scratch b =
  let j = ref 32 in
  let m = ref 0xFFFFFFFFL in
  while !j <> 0 do
    let jj = !j and mm = !m in
    let k = ref 0 in
    while !k < 64 do
      let kk = !k in
      let x = get64 b (8 * kk) and y = get64 b (8 * (kk + jj)) in
      let t = Int64.logand (Int64.logxor (Int64.shift_right_logical x jj) y) mm in
      set64 b (8 * kk) (Int64.logxor x (Int64.shift_left t jj));
      set64 b (8 * (kk + jj)) (Int64.logxor y t);
      k := (kk + jj + 1) land lnot jj
    done;
    let j' = jj lsr 1 in
    j := j';
    if j' > 0 then m := Int64.logxor mm (Int64.shift_left mm j')
  done

let transpose64 a off =
  let b = scratch () in
  for i = 0 to 63 do
    set64 b (8 * i) a.(off + i)
  done;
  transpose_scratch b;
  for i = 0 to 63 do
    a.(off + i) <- get64 b (8 * i)
  done

(* Tile-at-a-time shot extraction: gather rows [pos, pos + nrows) of
   lane [lane] from row-major [src] and block-transpose them, so that
   afterwards [dst.(64 * d + k)] holds — for shot [k] of the lane —
   the bits of rows [pos + 64 * d .. pos + 64 * d + 63] (word [d] of
   shot [k]'s bitstring).  [dst] needs ceil(nrows / 64) * 64 slots;
   rows beyond [nrows] read as 0, so bitvector padding invariants are
   preserved when the words are written with [Bitvec.set_word]. *)
let transpose_rows ~src ~lanes ~lane ~pos ~nrows dst =
  let nblocks = (nrows + 63) / 64 in
  if Array.length dst < nblocks * 64 then
    invalid_arg "Frame.Plane.transpose_rows: dst too small";
  let b = scratch () in
  for d = 0 to nblocks - 1 do
    let base = d * 64 in
    for i = 0 to 63 do
      let r = base + i in
      set64 b (8 * i) (if r < nrows then src.(((pos + r) * lanes) + lane) else 0L)
    done;
    transpose_scratch b;
    for i = 0 to 63 do
      dst.(base + i) <- get64 b (8 * i)
    done
  done

(* [shot_of_transposed dst ~len k] — shot [k]'s bitstring from a
   buffer prepared by {!transpose_rows} with [nrows = len]. *)
let shot_of_transposed dst ~len k =
  let v = Bitvec.create len in
  for d = 0 to ((len + 63) / 64) - 1 do
    Bitvec.set_word v d dst.((d * 64) + k)
  done;
  v

let transpose_x t ~lane dst =
  transpose_rows ~src:t.x ~lanes:t.lanes ~lane ~pos:0 ~nrows:t.n dst

let extract_shot t k =
  let lane = k lsr 6 and b = k land 63 in
  check_lane t lane;
  let x = Bitvec.create t.n and z = Bitvec.create t.n in
  for q = 0 to t.n - 1 do
    if bit t.x.((q * t.lanes) + lane) b then Bitvec.set x q true;
    if bit t.z.((q * t.lanes) + lane) b then Bitvec.set z q true
  done;
  Pauli.of_bits ~x ~z ()

let extract_shot_x t k =
  let lane = k lsr 6 and b = k land 63 in
  check_lane t lane;
  let x = Bitvec.create t.n in
  for q = 0 to t.n - 1 do
    if bit t.x.((q * t.lanes) + lane) b then Bitvec.set x q true
  done;
  x
