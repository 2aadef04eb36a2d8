let check name a = if Array.length a = 0 then invalid_arg ("Stats." ^ name ^ ": empty")

(* Mean and variance share one rule: a left-to-right sum of deviations from
   a shift.  The mean shifts by the first element, the variance by the mean,
   so n identical values have exactly that value as mean and exactly 0 as
   variance, and the rounding left scales with the spread of the values,
   not with their size.  The mean falls back to a shift of 0 when the first
   element is not finite or a deviation from it overflows (values of
   opposite sign near max_float), where the plain sum still holds. *)
let sum_deviations a c f = Array.fold_left (fun acc x -> acc +. f (x -. c)) 0.0 a

let mean a =
  check "mean" a;
  let n = float_of_int (Array.length a) in
  let shifted c = c +. (sum_deviations a c Fun.id /. n) in
  let c = a.(0) in
  let m = if Float.is_finite c then shifted c else nan in
  if Float.is_finite m then m else shifted 0.0

let variance a =
  check "variance" a;
  let m = mean a in
  sum_deviations a m (fun d -> d *. d) /. float_of_int (Array.length a)

let std a = sqrt (variance a)

let min a =
  check "min" a;
  Array.fold_left Stdlib.min a.(0) a

let max a =
  check "max" a;
  Array.fold_left Stdlib.max a.(0) a

let quantile a q =
  check "quantile" a;
  if q < 0.0 || q > 1.0 then invalid_arg "Stats.quantile: q outside [0,1]";
  if Array.exists Float.is_nan a then invalid_arg "Stats.quantile: nan input";
  let sorted = Array.copy a in
  Array.sort Float.compare sorted;
  let n = Array.length sorted in
  let pos = q *. float_of_int (n - 1) in
  let lo = Stdlib.min (Stdlib.max (int_of_float pos) 0) (n - 1) in
  let hi = Stdlib.min (lo + 1) (n - 1) in
  let frac = pos -. float_of_int lo in
  (sorted.(lo) *. (1.0 -. frac)) +. (sorted.(hi) *. frac)

let median a = quantile a 0.5
