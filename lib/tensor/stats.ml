let check name a = if Array.length a = 0 then invalid_arg ("Stats." ^ name ^ ": empty")

let mean a =
  check "mean" a;
  Array.fold_left ( +. ) 0.0 a /. float_of_int (Array.length a)

let variance a =
  check "variance" a;
  let m = mean a in
  Array.fold_left (fun acc x -> acc +. ((x -. m) *. (x -. m))) 0.0 a
  /. float_of_int (Array.length a)

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
