(* Order statistics for every report the benchmark makes.

   A tail percentile is reported only when at least [min_beyond]
   samples lie beyond it (a p90 needs 100 samples, a p99 1000): a
   percentile resting on a handful of samples moves with every run. *)

let min_beyond = 10

let sorted xs =
  let a = Array.of_list xs in
  Array.sort Float.compare a;
  a

(* Linear interpolation between the closest ranks. *)
let quantile_sorted a q =
  let n = Array.length a in
  if n = 0 then invalid_arg "Sample.quantile: empty sample";
  let h = q *. float_of_int (n - 1) in
  let lo = int_of_float h in
  let hi = min (n - 1) (lo + 1) in
  a.(lo) +. ((h -. float_of_int lo) *. (a.(hi) -. a.(lo)))

let median xs = quantile_sorted (sorted xs) 0.5

(* The tolerance absorbs rounding in [1 - q] (100 * (1 - 0.9) < 10). *)
let supported ~n q = float_of_int n *. (1.0 -. q) >= float_of_int min_beyond -. 1e-9

(* [percentile xs q] — [None] when fewer than [min_beyond] samples lie
   beyond the [q]-quantile. *)
let percentile xs q =
  if supported ~n:(List.length xs) q then Some (quantile_sorted (sorted xs) q)
  else None

(* The quartiles exactly as Python's [statistics.quantiles(xs, n=4)]
   computes them (its default "exclusive" method), so spreads printed
   here match the ones an outside checker computes from the same
   values. *)
let quartiles xs =
  let a = sorted xs in
  let ld = Array.length a in
  if ld < 2 then invalid_arg "Sample.quartiles: need at least 2 values";
  let m = ld + 1 in
  let q i =
    let j = max 1 (min (ld - 1) (i * m / 4)) in
    let delta = (i * m) - (j * 4) in
    ((a.(j - 1) *. float_of_int (4 - delta)) +. (a.(j) *. float_of_int delta))
    /. 4.0
  in
  (q 1, q 2, q 3)

(* Interquartile range as a share of the median. *)
let spread xs =
  let q1, _, q3 = quartiles xs in
  (q3 -. q1) /. Float.abs (median xs)
