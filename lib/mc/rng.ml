(* Splittable deterministic PRNG keys (SplitMix64-style mixing).

   A [key] names a stream, not a position in one: child streams are
   derived by hashing (parent, index), never by drawing from the
   parent, so any shard of a Monte-Carlo run can rebuild its stream
   from the root seed alone — the foundation of domain-count-invariant
   parallel runs. *)

type key = int64

let gamma = 0x9E3779B97F4A7C15L

(* SplitMix64 finalizer: a bijective avalanche mix of the full 64-bit
   state.  [@inline] so the folds below stay straight-line unboxed
   int64 code. *)
let[@inline] mix z =
  let open Int64 in
  let z = mul (logxor z (shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = mul (logxor z (shift_right_logical z 27)) 0x94D049BB133111EBL in
  logxor z (shift_right_logical z 31)

let root seed = mix (Int64.add (Int64.of_int seed) gamma)

(* gamma is odd, so gamma·(2i+1) is injective in i: distinct child
   indices always hash distinct inputs. *)
let split k i =
  if i < 0 then invalid_arg "Mc.Rng.split: negative index";
  mix (Int64.logxor k (Int64.mul gamma (Int64.of_int ((2 * i) + 1))))

let draw k n = mix (Int64.add k (Int64.mul gamma (Int64.of_int (n + 1))))

(* The Bernoulli digit fold of Frame.Sampler, hosted here so the mixing
   constants stay private while the whole fold compiles to unboxed
   int64 code: one cross-module call per (op, lane) instead of one
   boxed [draw] per digit.

   Per bit, the fold decides [V < P], where P is the digit string of
   [scaled] (digit j = bit j, j = stop - 1 most significant) and V's
   digit j is the complement of u_j = draw k (pos + j - start).  It
   compares from the top digit down: a bit is decided at the first
   digit where V and P differ.  A 1-digit of P decides the bits where
   u_j = 1 (they read 1), a 0-digit the bits where u_j = 0 (they read
   0).  The loop stops once every bit of [care] is decided; a bit
   still undecided after digit [start] has V = P on every drawn digit
   and reads 0.  The result is the least-significant-first fold
     acc <- if bit j of scaled then u_j lor acc else u_j land acc
   (j = start .. stop - 1, from 0) AND [care]: that fold's top digit
   fixes every bit where u_j equals the digit and passes the others
   down, which is this comparison.  Half the undecided bits settle per
   digit, so a whole word costs ~7.3 draws whatever p's digits are.
   Draws are a pure function of (key, position), so the draws skipped
   never shift another call: every caller advances by the full
   [stop - start]. *)
let[@inline] fold k ~pos ~scaled ~start ~stop ~care =
  (* the state of draw [pos + stop - 1 - start], digit [stop - 1]'s *)
  let z = ref (Int64.add k (Int64.mul gamma (Int64.of_int (pos + stop - start)))) in
  let acc = ref 0L and und = ref care and j = ref (stop - 1) in
  while !und <> 0L && !j >= start do
    let u = mix !z in
    let m = Int64.neg (Int64.logand (Int64.shift_right_logical scaled !j) 1L) in
    let d = Int64.logand !und (Int64.lognot (Int64.logxor u m)) in
    acc := Int64.logor !acc (Int64.logand d m);
    und := Int64.logxor !und d;
    z := Int64.sub !z gamma;
    decr j
  done;
  !acc

let fold_digits k ~pos ~scaled ~start ~stop =
  fold k ~pos ~scaled ~start ~stop ~care:(-1L)

let fold_digits_care k ~pos ~scaled ~start ~stop ~care =
  fold k ~pos ~scaled ~start ~stop ~care

type plan = { scaled : int64; start : int; ones : int64 }

(* Bulk Bernoulli: row [i] of [sel] folds positions
   [pos + i * (stop - start) ..] and XORs [ones lor fold] into word
   [sel.(i) * stride + off] of [rows] — a whole Flip op of one lane in
   a single call, with no boxed word. *)
let fold_digits_xor_sel k ~pos ~stop { scaled; start; ones } ~rows ~sel ~stride
    ~off =
  let draws = stop - start in
  for i = 0 to Array.length sel - 1 do
    let w =
      Int64.logor ones
        (fold k ~pos:(pos + (i * draws)) ~scaled ~start ~stop ~care:(-1L))
    in
    let b = 8 * ((sel.(i) * stride) + off) in
    Words.set rows b (Int64.logxor (Words.get rows b) w)
  done

(* Bulk Pauli: per row, e (an error fired), then hx (it has an X part)
   only on the bits of e, then y (it is a Y) only on the bits of
   e land hx — the only bits where x = e land hx and
   z = e land ((hx land y) lor lnot hx) read them.  Row [i] reads
   e, hx and y at [pos + i * draws], [+ de] and [+ de + dh], as three
   consecutive plan calls would. *)
let pauli_xor_sel k ~pos ~stop ~e ~hx ~y ~x ~z ~sel ~stride ~off =
  let de = stop - e.start and dh = stop - hx.start in
  let draws = de + dh + (stop - y.start) in
  for i = 0 to Array.length sel - 1 do
    let p = pos + (i * draws) in
    let ew =
      Int64.logor e.ones
        (fold k ~pos:p ~scaled:e.scaled ~start:e.start ~stop ~care:(-1L))
    in
    if ew <> 0L then begin
      let hw =
        Int64.logor hx.ones
          (fold k ~pos:(p + de) ~scaled:hx.scaled ~start:hx.start ~stop ~care:ew)
      in
      let xw = Int64.logand ew hw in
      let yw =
        Int64.logor y.ones
          (fold k ~pos:(p + de + dh) ~scaled:y.scaled ~start:y.start ~stop
             ~care:xw)
      in
      let zw = Int64.logand ew (Int64.logor (Int64.logand hw yw) (Int64.lognot hw)) in
      let b = 8 * ((sel.(i) * stride) + off) in
      Words.set x b (Int64.logxor (Words.get x b) xw);
      Words.set z b (Int64.logxor (Words.get z b) zw)
    end
  done

let to_state k =
  let d n = Int64.to_int (draw k n) land max_int in
  Random.State.make [| d 0; d 1; d 2; d 3 |]

let derive seed path =
  Int64.to_int (List.fold_left split (root seed) path) land max_int

(* Stateful streams: the single randomness interface of the library.
   A [Stream] walks the raw outputs of a key; a [Legacy] delegates
   every draw to a wrapped [Random.State.t], so code rewritten against
   [t] behaves bit-identically when fed an old-style state. *)

type t =
  | Stream of { key : key; mutable pos : int }
  | Legacy of Random.State.t

let of_key key = Stream { key; pos = 0 }
let of_random_state s = Legacy s
let of_seed seed = of_key (root seed)

let bits64 = function
  | Stream st ->
    let v = draw st.key st.pos in
    st.pos <- st.pos + 1;
    v
  | Legacy s -> Random.State.bits64 s

let bool = function
  | Stream _ as t -> Int64.logand (bits64 t) 1L = 1L
  | Legacy s -> Random.State.bool s

(* 53 uniform bits, exactly the resolution of [Random.State.float]. *)
let float t bound =
  match t with
  | Stream _ ->
    Int64.to_float (Int64.shift_right_logical (bits64 t) 11)
    *. 0x1p-53 *. bound
  | Legacy s -> Random.State.float s bound

let int t n =
  if n <= 0 then invalid_arg "Mc.Rng.int: bound must be positive";
  match t with
  | Stream _ ->
    (* negligible modulo bias: n is tiny against 2^64 everywhere this
       is used (Pauli letter choices) *)
    Int64.to_int (Int64.unsigned_rem (bits64 t) (Int64.of_int n))
  | Legacy s -> Random.State.int s n
