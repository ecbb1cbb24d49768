(* Word-level noise sampling for the bit-sliced engine.

   A sampler walks the raw outputs of one or more [Mc.Rng] keys — one
   key per 64-shot *lane* — by a shared position counter, so a word of
   randomness is a pure function of (key, position): the batch engine
   and its per-shot scalar cross-check replay the same call sequence
   and therefore see the very same noise, bit for bit.  Because every
   call consumes a number of positions that depends only on its
   probability argument (never on the lane count), lane [j] of a
   wide sampler draws exactly the words a single-lane sampler for the
   same key would draw — the basis of the cross-width bit-identity
   guarantee.

   Bernoulli(p) words come from the binary expansion of p: with
   p = 0.b1 b2 … (b1 most significant) and u1, u2, … independent
   uniform words, a bit reads 1 when the word V with digits ¬u1 ¬u2 …
   is below p.  The comparison runs from the most significant digit
   down and stops once every bit is decided (~7.3 draws per word
   whatever p is; see [Mc.Rng.fold_digits]); the positions a call
   accounts for are always p's full digit count.  p is truncated to
   [digits] = 40 binary digits (absolute bias < 2^-40, orders of
   magnitude below any Monte-Carlo resolution here). *)

type t = { keys : Mc.Rng.key array; mutable pos : int }

let create key = { keys = [| key |]; pos = 0 }

let create_tile keys =
  if Array.length keys < 1 then
    invalid_arg "Frame.Sampler.create_tile: need >= 1 lane key";
  { keys = Array.copy keys; pos = 0 }

let lanes t = Array.length t.keys

let uniform t =
  let v = Mc.Rng.draw t.keys.(0) t.pos in
  t.pos <- t.pos + 1;
  v

let digits = 40

(* A compiled Bernoulli(p) digit plan: the clamped fixed-point digits
   of p from the lowest set one up (digits below it cannot decide a
   bit).  p <= 0 and p >= 1 are plans of zero draws, reading 0 and
   all ones.  The draw count [digits - start] is a function of p
   alone, so replaying the same call sequence consumes the same
   positions whatever the lane count. *)
type plan = Mc.Rng.plan

let constant ones = { Mc.Rng.scaled = 0L; start = digits; ones }

let plan p =
  if Float.is_nan p then invalid_arg "Frame.Sampler.plan: NaN probability";
  if p <= 0.0 then constant 0L
  else if p >= 1.0 then constant (-1L)
  else begin
    let scaled = Int64.of_float ((p *. 0x1p40) +. 0.5) in
    let scaled =
      if scaled <= 0L then 1L
      else if scaled >= 0x10000000000L then 0xFFFFFFFFFFL
      else scaled
    in
    let start =
      let rec lowest j =
        if Int64.logand (Int64.shift_right_logical scaled j) 1L = 1L then j
        else lowest (j + 1)
      in
      lowest 0
    in
    { scaled; start; ones = 0L }
  end

let plan_draws (pl : plan) = digits - pl.start

(* One lane's plan word at [pos]. *)
let word key pos (pl : plan) =
  Int64.logor pl.ones
    (Mc.Rng.fold_digits key ~pos ~scaled:pl.scaled ~start:pl.start ~stop:digits)

let bernoulli_plan_into t pl dst off =
  for j = 0 to Array.length t.keys - 1 do
    Mc.Words.set dst (8 * (off + j)) (word t.keys.(j) t.pos pl)
  done;
  t.pos <- t.pos + plan_draws pl

(* Whole-op noise injection: one fresh word per row of [sel] (in order)
   XORed into word [sel.(i) * stride + j] of [dst], each lane's words
   in one bulk Rng call — the hot path of compiled [Flip_x]/[Flip_z]
   ops. *)
let bernoulli_plan_xor_sel t pl dst ~sel ~stride =
  let pos = t.pos in
  for j = 0 to Array.length t.keys - 1 do
    Mc.Rng.fold_digits_xor_sel t.keys.(j) ~pos ~stop:digits pl ~rows:dst ~sel
      ~stride ~off:j
  done;
  t.pos <- pos + (plan_draws pl * Array.length sel)

let bernoulli t p =
  let pl = plan p in
  let v = word t.keys.(0) t.pos pl in
  t.pos <- t.pos + plan_draws pl;
  v

(* Per-bit three-way Pauli choice as X/Z bit-planes: an error occurs
   with probability px+py+pz; conditioned on an error it has an X
   component with probability (px+py)/(px+py+pz), and given an X
   component it is a Y with probability py/(px+py).  All three draws
   are bitwise independent, so the construction is exact per shot.
   The conditional words are folded only on the bits that read them
   ([Mc.Rng.pauli_xor_sel]).  A channel with px+py+pz <= 0 has three
   zero-draw zero plans, and one with px+py <= 0 a zero-draw zero
   Y plan. *)
type pauli_plan = { e : plan; hx : plan; y : plan }

let pauli_plan ~px ~py ~pz =
  let pt = px +. py +. pz in
  if pt <= 0.0 then { e = constant 0L; hx = constant 0L; y = constant 0L }
  else
    {
      e = plan pt;
      hx = plan ((px +. py) /. pt);
      y = (if px +. py <= 0.0 then constant 0L else plan (py /. (px +. py)));
    }

let pauli_plan_xor_sel t { e; hx; y } ~x ~z ~sel ~stride =
  let pos = t.pos in
  for j = 0 to Array.length t.keys - 1 do
    Mc.Rng.pauli_xor_sel t.keys.(j) ~pos ~stop:digits ~e ~hx ~y ~x ~z ~sel
      ~stride ~off:j
  done;
  t.pos <-
    pos + ((plan_draws e + plan_draws hx + plan_draws y) * Array.length sel)
