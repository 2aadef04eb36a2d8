(* Autodiff nodes the library does not export, rebuilt on [Autodiff.fused]
   for the tests.  [sum] and [mul] reduce a graph to the scalar root that
   gradient checks and seeded backward passes need; the others are the
   primitives of the node-by-node graphs the printed layer's fused nodes
   replaced (test_fused.ml).  Each runs the kernels of the library node it
   copies, in that node's order, so values and gradients carry the same
   bits, NaN payloads included.  A parent that needs no gradient ignores
   [Autodiff.accumulate]. *)

module T = Tensor
module A = Autodiff

let shape_of a = (T.rows (A.value a), T.cols (A.value a))

(* Scalar [1 × 1] sum of all entries. *)
let sum a =
  A.fused
    (T.scalar (T.sum (A.value a)))
    [ a ]
    ~recompute:(fun dst -> T.set dst 0 0 (T.sum (A.value a)))
    ~backward:(fun g ->
      let rows, cols = shape_of a in
      let s = T.zeros rows cols in
      T.fill s (T.get g 0 0);
      A.accumulate a s)

(* Hadamard product. *)
let mul a b =
  A.fused (T.mul (A.value a) (A.value b)) [ a; b ]
    ~recompute:(fun dst -> T.mul_into (A.value a) (A.value b) ~dst)
    ~backward:(fun g ->
      A.accumulate a (T.mul g (A.value b));
      A.accumulate b (T.mul g (A.value a)))

(* Elementwise [x / y]. *)
let quotient x y = T.init (T.rows x) (T.cols x) (fun r c -> T.get x r c /. T.get y r c)

let div a b =
  A.fused (quotient (A.value a) (A.value b)) [ a; b ]
    ~recompute:(fun dst -> T.blit ~src:(quotient (A.value a) (A.value b)) ~dst)
    ~backward:(fun g ->
      A.accumulate a (quotient g (A.value b));
      (* d/db (a/b) = -a / b^2 *)
      A.accumulate b (T.neg (quotient (T.mul g (A.value a)) (T.mul (A.value b) (A.value b)))))

(* [div_rowvec m v] divides each row of [m] elementwise by the [1 × cols]
   vector [v], through the reciprocal [1 / v]. *)
let div_rowvec m v =
  let recip () = T.map (fun x -> 1.0 /. x) (A.value v) in
  let inv = recip () in
  A.fused
    (T.mul_rowvec (A.value m) inv)
    [ m; v ]
    ~recompute:(fun dst ->
      T.blit ~src:(recip ()) ~dst:inv;
      T.mul_rowvec_into (A.value m) inv ~dst)
    ~backward:(fun g ->
      A.accumulate m (T.mul_rowvec g inv);
      (* d/dv (m / v) = -m / v^2, summed over rows *)
      let s = T.mul_rowvec (T.neg (A.value m)) (T.mul inv inv) in
      T.mul_into g s ~dst:s;
      let sv = T.zeros 1 (T.cols s) in
      T.sum_rows_into s ~dst:sv;
      A.accumulate v sv)

(* Column-wise sums: [1 × cols]; the gradient is broadcast back over the
   rows. *)
let sum_rows a =
  let sums () =
    let d = T.zeros 1 (T.cols (A.value a)) in
    T.sum_rows_into (A.value a) ~dst:d;
    d
  in
  A.fused (sums ()) [ a ]
    ~recompute:(fun dst -> T.sum_rows_into (A.value a) ~dst)
    ~backward:(fun g ->
      let rows, cols = shape_of a in
      A.accumulate a (T.init rows cols (fun _ c -> T.get g 0 c)))

(* Copies: exact in any order, so element loops stand in for the blits. *)
let cols_of t start len = T.init (T.rows t) len (fun r c -> T.get t r (start + c))

let concat_cols a b =
  let ca = T.cols (A.value a) in
  let join () =
    let x = A.value a and y = A.value b in
    T.init (T.rows x) (ca + T.cols y) (fun r c ->
        if c < ca then T.get x r c else T.get y r (c - ca))
  in
  A.fused (join ()) [ a; b ]
    ~recompute:(fun dst -> T.blit ~src:(join ()) ~dst)
    ~backward:(fun g ->
      A.accumulate a (cols_of g 0 ca);
      A.accumulate b (cols_of g ca (T.cols g - ca)))

(* [slice_cols v start len]; the gradient scatters back into the slice
   over +0.0 elsewhere. *)
let slice_cols a start len =
  A.fused
    (cols_of (A.value a) start len)
    [ a ]
    ~recompute:(fun dst -> T.blit ~src:(cols_of (A.value a) start len) ~dst)
    ~backward:(fun g ->
      let rows, cols = shape_of a in
      A.accumulate a
        (T.init rows cols (fun r c ->
             if c >= start && c < start + len then T.get g r (c - start) else 0.0)))
