(* The bit-identity oracle for the tensor kernels, on [float array].

   Every kernel here performs the floating-point operations of the
   original [float array] loops of the pre-kernel tensor/autodiff/optimizer
   code, in the same order; the C kernels (lib/tensor/kernels_c.ml) must
   return these bits wherever an output is not NaN, and a NaN exactly where
   it is NaN.  Which NaN (payload, sign) is left open: when two NaNs meet,
   the one an instruction keeps depends on operand order, which the
   compilers are free to pick.  test_backend.ml runs each Tensor operation
   next to the oracle kernel on the same inputs and compares them so, and
   holds both to the same special-value digests, which hash every NaN as
   [Float.nan].

   One body per kernel: the naive loop with bounds-checked indexing, so an
   out-of-range access raises [Invalid_argument].  tanh is [Fmath.tanh],
   the scalar body of the function the C kernels run over their buffers. *)

type buf = float array

let create n = Array.make n 0.0

(* {1 Storage} *)

(* Copies [src] over [dst] element by element where the bits differ and
   reports whether any did: the OCaml loop the C stub replaced. *)
let blit_changed (src : buf) (dst : buf) n =
  let changed = ref false in
  for i = 0 to n - 1 do
    let v = src.(i) in
    if Int64.bits_of_float v <> Int64.bits_of_float dst.(i) then begin
      dst.(i) <- v;
      changed := true
    end
  done;
  !changed

(* {1 Elementwise} *)

let add a b dst n =
  for i = 0 to n - 1 do
    dst.(i) <- a.(i) +. b.(i)
  done

let sub a b dst n =
  for i = 0 to n - 1 do
    dst.(i) <- a.(i) -. b.(i)
  done

let mul a b dst n =
  for i = 0 to n - 1 do
    dst.(i) <- a.(i) *. b.(i)
  done

let neg a dst n =
  for i = 0 to n - 1 do
    dst.(i) <- -.a.(i)
  done

let scale k a dst n =
  for i = 0 to n - 1 do
    dst.(i) <- k *. a.(i)
  done

let map f a dst n =
  for i = 0 to n - 1 do
    dst.(i) <- f a.(i)
  done

(* {1 Broadcasts} *)

let add_rowvec md vd dst rows cols =
  for r = 0 to rows - 1 do
    let base = r * cols in
    for c = 0 to cols - 1 do
      dst.(base + c) <- md.(base + c) +. vd.(c)
    done
  done

let mul_rowvec md vd dst rows cols =
  for r = 0 to rows - 1 do
    let base = r * cols in
    for c = 0 to cols - 1 do
      dst.(base + c) <- md.(base + c) *. vd.(c)
    done
  done

(* {1 Linear algebra} *)

(* ikj loop order: streams through b rows, cache friendly for row-major.
   [cd] is zeroed first, then accumulated into: each output element c(i,j)
   starts from +0.0 and adds aip * b(p,j) for p = 0 .. k-1 in order, every
   term included (an exact-zero A entry against an infinite or NaN B entry
   makes a NaN). *)
let matmul ad bd cd m k n =
  Array.fill cd 0 (m * n) 0.0;
  for i = 0 to m - 1 do
    let a_base = i * k and c_base = i * n in
    for p = 0 to k - 1 do
      let aip = ad.(a_base + p) in
      let b_base = p * n in
      for j = 0 to n - 1 do
        cd.(c_base + j) <- cd.(c_base + j) +. (aip *. bd.(b_base + j))
      done
    done
  done

(* A · Bᵀ without materializing the transpose: rows of both operands are
   contiguous, so the p-loop streams both.  The accumulation order mirrors
   [matmul a (transpose b)], keeping results bit-identical to that
   formulation. *)
let matmul_nt ad bd cd m k n =
  for i = 0 to m - 1 do
    let a_base = i * k and c_base = i * n in
    for j = 0 to n - 1 do
      let b_base = j * k in
      let acc = ref 0.0 in
      for p = 0 to k - 1 do
        acc := !acc +. (ad.(a_base + p) *. bd.(b_base + p))
      done;
      cd.(c_base + j) <- !acc
    done
  done

(* Blocked copy instead of a closure-per-element [init]: both the read and
   the write stay within a 32x32 tile, so one of the two strided streams is
   always cache-resident.  The [buf] annotations matter: a copy loop is
   otherwise inferred polymorphic, and generic array access boxes every
   float it moves. *)
let transpose (src : buf) (dst : buf) rows cols =
  let bs = 32 in
  let r0 = ref 0 in
  while !r0 < rows do
    let rmax = Stdlib.min rows (!r0 + bs) in
    let c0 = ref 0 in
    while !c0 < cols do
      let cmax = Stdlib.min cols (!c0 + bs) in
      for r = !r0 to rmax - 1 do
        let base = r * cols in
        for c = !c0 to cmax - 1 do
          dst.((c * rows) + r) <- src.(base + c)
        done
      done;
      c0 := !c0 + bs
    done;
    r0 := !r0 + bs
  done

(* {1 Reductions} *)

let dot a b n =
  let acc = ref 0.0 in
  for i = 0 to n - 1 do
    acc := !acc +. (a.(i) *. b.(i))
  done;
  !acc

let sum a n =
  (* left-to-right accumulation, same order as [Array.fold_left ( +. ) 0.0] *)
  let acc = ref 0.0 in
  for i = 0 to n - 1 do
    acc := !acc +. a.(i)
  done;
  !acc

(* [dst] must be pre-zeroed by the caller (column accumulators). *)
let sum_rows src dst rows cols =
  for r = 0 to rows - 1 do
    let base = r * cols in
    for c = 0 to cols - 1 do
      dst.(c) <- dst.(c) +. src.(base + c)
    done
  done

(* Strict [>]: the first maximum wins, and a NaN entry never displaces the
   incumbent (unordered compares are false); a NaN in column 0 is never
   displaced for the same reason. *)
let argmax_rows a rows cols =
  Array.init rows (fun r ->
      let base = r * cols in
      let best = ref 0 in
      for c = 1 to cols - 1 do
        if a.(base + c) > a.(base + !best) then best := c
      done;
      !best)

(* {1 Nonlinearities}

   Specialized direct loops, as the autodiff layer had them; the caller
   guarantees all buffers share [n]. *)

let unary (op : Tensor.unop) src dst n =
  match op with
  | Tanh ->
      for i = 0 to n - 1 do
        dst.(i) <- Fmath.tanh src.(i)
      done
  | Sigmoid ->
      for i = 0 to n - 1 do
        dst.(i) <- 1.0 /. (1.0 +. Stdlib.exp (-.src.(i)))
      done
  | Relu ->
      for i = 0 to n - 1 do
        let x = src.(i) in
        dst.(i) <- (if x > 0.0 then x else 0.0)
      done

(* Backward fuses [g *. df x y] in one expression. *)
let unary_bwd (op : Tensor.unop) ~x ~y ~g ~s n =
  match op with
  | Tanh ->
      for i = 0 to n - 1 do
        let yi = y.(i) in
        s.(i) <- (1.0 -. (yi *. yi)) *. g.(i)
      done
  | Sigmoid ->
      for i = 0 to n - 1 do
        let yi = y.(i) in
        s.(i) <- (yi *. (1.0 -. yi)) *. g.(i)
      done
  | Relu ->
      for i = 0 to n - 1 do
        s.(i) <- g.(i) *. (if x.(i) > 0.0 then 1.0 else 0.0)
      done

(* {1 ptanh (paper Eq. 2)}

   ptanh(v) = η1 + η2·tanh((v − η3)·η4) over a batch, as one kernel in
   place of the node-by-node graph it replaced.  The forward replays that
   graph's operations per element — s = (−η3) + v, z = η4·s, h = tanh z,
   out = η1 + η2·h.  The backward replays the graph's per-node gradients:
   every node's first accumulation was [0.0 +. x] on a zeroed buffer (kept
   below: it turns −0.0 into +0.0), and each η share is a left-to-right
   sum, as [sum] has it. *)

let ptanh ~eta ~v ~h ~out n =
  let e0 = eta.(0) and e1 = eta.(1) and ne2 = -.eta.(2) and e3 = eta.(3) in
  for i = 0 to n - 1 do
    let hi = Fmath.tanh (e3 *. (ne2 +. v.(i))) in
    h.(i) <- hi;
    out.(i) <- e0 +. (e1 *. hi)
  done

(* Per element, with gP/gH/gZ/gS the gradients of the replaced graph's
   η2·h, tanh, η4·s and s nodes: gP = 0 + g, gH = 0 + η2·gP,
   gZ = 0 + (1 − h²)·gH, gS = 0 + η4·gZ = dv.  The η shares are
   0 + Σg, 0 + Σ gP·h, 0 + −(0 + Σ gS) and 0 + Σ gZ·s. *)
let ptanh_bwd ~eta ~v ~h ~g ~dv ~deta n =
  let e1 = eta.(1) and ne2 = -.eta.(2) and e3 = eta.(3) in
  let s0 = ref 0.0 and s1 = ref 0.0 and s2 = ref 0.0 and s3 = ref 0.0 in
  for i = 0 to n - 1 do
    let gi = g.(i) and hi = h.(i) in
    let gp = 0.0 +. gi in
    let gz = 0.0 +. ((1.0 -. (hi *. hi)) *. (0.0 +. (e1 *. gp))) in
    let gs = 0.0 +. (e3 *. gz) in
    s0 := !s0 +. gi;
    s1 := !s1 +. (gp *. hi);
    s2 := !s2 +. gs;
    s3 := !s3 +. (gz *. (ne2 +. v.(i)));
    dv.(i) <- gs
  done;
  deta.(0) <- 0.0 +. !s0;
  deta.(1) <- 0.0 +. !s1;
  deta.(2) <- 0.0 +. -.(0.0 +. !s2);
  deta.(3) <- 0.0 +. !s3

(* {1 The crossbar (paper Eq. 1)}

   The node-by-node graph the crossbar replaced, as one kernel pair that
   calls the kernels above in that graph's order: the input with its bias
   column [x 1], inv(x) = −ptanh(η, [x 1]), the slices θ⁺/θ⁻/denominator of
   the packed conductances, 1/den, the two matmuls, their sum and the row
   division; backward, that graph's per-node gradients in its backward
   order (see Layer.crossbar).  The temporaries are allocated per call. *)

let with_bias x m k =
  let k1 = k + 1 in
  let xa = create (m * k1) in
  for i = 0 to m - 1 do
    Array.blit x (i * k) xa (i * k1) k;
    xa.((i * k1) + k) <- 1.0
  done;
  xa

(* θ⁺, θ⁻ and 1/den from the packed conductances *)
let unpack cond k1 n =
  let inv = Array.init n (fun j -> 1.0 /. cond.((2 * k1 * n) + j)) in
  (Array.sub cond 0 (k1 * n), Array.sub cond (k1 * n) (k1 * n), inv)

let crossbar ~x ~eta ~cond ~h ~inv_x ~num ~out m k n =
  let k1 = k + 1 in
  let x_aug = with_bias x m k in
  ptanh ~eta ~v:x_aug ~h ~out:inv_x (m * k1);
  neg inv_x inv_x (m * k1);
  let pos, neg_c, inv = unpack cond k1 n in
  let num_pos = create (m * n) in
  matmul x_aug pos num_pos m k1 n;
  matmul inv_x neg_c num m k1 n;
  add num_pos num num (m * n);
  mul_rowvec num inv out m n

let crossbar_bwd ~x ~eta ~cond ~h ~inv_x ~num ~g ~gnum ~want_dx ~dx ~deta ~dcond m k n =
  let k1 = k + 1 in
  let x_aug = with_bias x m k in
  let pos, neg_c, inv = unpack cond k1 n in
  (* the row division: the numerator's gradient (its node's buffer, zeroed
     and accumulated once), then the denominator's, −num/den² summed over
     rows *)
  let s_mn = create (m * n) in
  mul_rowvec g inv s_mn m n;
  Array.fill gnum 0 (m * n) 0.0;
  add gnum s_mn gnum (m * n);
  let s_n = create n in
  mul inv inv s_n n;
  neg num s_mn (m * n);
  mul_rowvec s_mn s_n s_mn m n;
  mul g s_mn s_mn (m * n);
  let d_den = create n in
  sum_rows s_mn d_den m n;
  (* inv(x)·θ⁻: the gradients of inv(x) and of θ⁻ *)
  let g_inv = create (m * k1) and s_km = create (k1 * m) and d_neg = create (k1 * n) in
  matmul_nt gnum neg_c g_inv m n k1;
  transpose inv_x s_km m k1;
  matmul s_km gnum d_neg k1 m n;
  (* through inv = −ptanh into η and x's first share *)
  let s_mk = create (m * k1) and g_s = create (m * k1) in
  neg g_inv s_mk (m * k1);
  ptanh_bwd ~eta ~v:x_aug ~h ~g:s_mk ~dv:g_s ~deta (m * k1);
  (* [x 1]·θ⁺: x's second share (the bias column's is dropped), then θ⁺'s
     gradient *)
  if want_dx then begin
    matmul_nt gnum pos s_mk m n k1;
    add g_s s_mk s_mk (m * k1);
    for i = 0 to m - 1 do
      Array.blit s_mk (i * k1) dx (i * k) k
    done
  end;
  let d_pos = create (k1 * n) in
  transpose x_aug s_km m k1;
  matmul s_km gnum d_pos k1 m n;
  Array.blit d_pos 0 dcond 0 (k1 * n);
  Array.blit d_neg 0 dcond (k1 * n) (k1 * n);
  Array.blit d_den 0 dcond (2 * k1 * n) n

(* {1 Training-path fused kernels} *)

(* Stable row-wise softmax; raw loops for the same unboxed-float reason as
   the nonlinearities above. *)
let softmax_rows src out rows cols =
  for r = 0 to rows - 1 do
    let base = r * cols in
    let mx = ref neg_infinity in
    for c = 0 to cols - 1 do
      let x = src.(base + c) in
      if x > !mx then mx := x
    done;
    let z = ref 0.0 in
    for c = 0 to cols - 1 do
      let e = Stdlib.exp (src.(base + c) -. !mx) in
      out.(base + c) <- e;
      z := !z +. e
    done;
    for c = 0 to cols - 1 do
      out.(base + c) <- out.(base + c) /. !z
    done
  done

(* A probability below 1e-30 reads as 1e-30.  A NaN compares false and
   stays NaN, as in the C stub, so the loss of a NaN draw is NaN. *)
let[@inline] clamp_prob p = if p < 1e-30 then 1e-30 else p

(* Summed (not averaged) cross-entropy: the caller divides by the batch. *)
let ce_loss_sum p y n =
  let loss = ref 0.0 in
  for i = 0 to n - 1 do
    let yi = y.(i) in
    if yi > 0.0 then loss := !loss -. (yi *. Stdlib.log (clamp_prob p.(i)))
  done;
  !loss

(* The optimizer's Adam step, as lib/nn/optimizer.ml had it: leaf by leaf,
   each item [(value, grad, m, v)]. *)
let adam_step_many ~lr ~beta1 ~beta2 ~eps ~bc1 ~bc2 items =
  List.iter
    (fun (value, grad, m, v) ->
      for i = 0 to Array.length value - 1 do
        let g = grad.(i) in
        m.(i) <- (beta1 *. m.(i)) +. ((1.0 -. beta1) *. g);
        v.(i) <- (beta2 *. v.(i)) +. ((1.0 -. beta2) *. g *. g);
        let mhat = m.(i) /. bc1 in
        let vhat = v.(i) /. bc2 in
        value.(i) <- value.(i) -. (lr *. mhat /. (Stdlib.sqrt vhat +. eps))
      done)
    items
