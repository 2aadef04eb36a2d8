(* Reference backend: the bit-identity oracle.

   Every core here is the original [float array] kernel, moved verbatim from
   the pre-backend tensor/autodiff/optimizer modules — same floating-point
   operations in the same order, so every golden trajectory, checkpoint and
   determinism test pinned against the old code stays bit-identical.  Do not
   "optimize" these loops: the C backend (Kernels_c) is the fast path; this
   one is the semantics.

   Checked (sanitizer) mode: each hot kernel carries two loop bodies
   performing identical floating-point operations in identical order; the
   checked body uses bounds-checked indexing.  The flag is tested once per
   kernel call, not per element (a per-element dereference measured ~2.3x
   slower on the elementwise hot path). *)

module TB = Tensor_backend

type buf = float array

let checked () = Atomic.get TB.checked
let create n = Array.make n 0.0
let length = Array.length
let get = Array.get
let set = Array.set
let fill b ~pos ~len v = Array.fill b pos len v
let blit src src_pos dst dst_pos len = Array.blit src src_pos dst dst_pos len
let of_float_array = Array.copy
let to_float_array = Array.copy
let load b a = Array.blit a 0 b 0 (Array.length a)

(* {1 Elementwise} *)

let add a b dst n =
  if checked () then
    for i = 0 to n - 1 do
      dst.(i) <- a.(i) +. b.(i)
    done
  else
    (* SAFETY: i < n and the dispatch layer checks shapes, so n <= each
       array length *)
    for i = 0 to n - 1 do
      Array.unsafe_set dst i (Array.unsafe_get a i +. Array.unsafe_get b i)
    done

let sub a b dst n =
  if checked () then
    for i = 0 to n - 1 do
      dst.(i) <- a.(i) -. b.(i)
    done
  else
    (* SAFETY: i < n and the dispatch layer checks shapes, so n <= each
       array length *)
    for i = 0 to n - 1 do
      Array.unsafe_set dst i (Array.unsafe_get a i -. Array.unsafe_get b i)
    done

let mul a b dst n =
  if checked () then
    for i = 0 to n - 1 do
      dst.(i) <- a.(i) *. b.(i)
    done
  else
    (* SAFETY: i < n and the dispatch layer checks shapes, so n <= each
       array length *)
    for i = 0 to n - 1 do
      Array.unsafe_set dst i (Array.unsafe_get a i *. Array.unsafe_get b i)
    done

let div a b dst n =
  if checked () then
    for i = 0 to n - 1 do
      dst.(i) <- a.(i) /. b.(i)
    done
  else
    (* SAFETY: i < n and the dispatch layer checks shapes, so n <= each
       array length *)
    for i = 0 to n - 1 do
      Array.unsafe_set dst i (Array.unsafe_get a i /. Array.unsafe_get b i)
    done

let neg a dst n =
  if checked () then
    for i = 0 to n - 1 do
      dst.(i) <- -.a.(i)
    done
  else
    (* SAFETY: i < n and the dispatch layer checks shapes, so n <= each
       array length *)
    for i = 0 to n - 1 do
      Array.unsafe_set dst i (-.Array.unsafe_get a i)
    done

let scale k a dst n =
  if checked () then
    for i = 0 to n - 1 do
      dst.(i) <- k *. a.(i)
    done
  else
    (* SAFETY: i < n and the dispatch layer checks shapes, so n <= each
       array length *)
    for i = 0 to n - 1 do
      Array.unsafe_set dst i (k *. Array.unsafe_get a i)
    done

let add_scalar k a dst n =
  if checked () then
    for i = 0 to n - 1 do
      dst.(i) <- k +. a.(i)
    done
  else
    (* SAFETY: i < n and the dispatch layer checks shapes, so n <= each
       array length *)
    for i = 0 to n - 1 do
      Array.unsafe_set dst i (k +. Array.unsafe_get a i)
    done

let map f a dst n =
  if checked () then
    for i = 0 to n - 1 do
      dst.(i) <- f a.(i)
    done
  else
    (* SAFETY: i < n and the dispatch layer checks shapes, so n <= each
       array length *)
    for i = 0 to n - 1 do
      Array.unsafe_set dst i (f (Array.unsafe_get a i))
    done

(* {1 Broadcasts} *)

let add_rowvec md vd dst rows cols =
  if checked () then
    for r = 0 to rows - 1 do
      let base = r * cols in
      for c = 0 to cols - 1 do
        dst.(base + c) <- md.(base + c) +. vd.(c)
      done
    done
  else
    for r = 0 to rows - 1 do
      let base = r * cols in
      (* SAFETY: base + c < rows * cols = length of md and dst;
         c < cols = length vd — the dispatch layer checks all three shapes *)
      for c = 0 to cols - 1 do
        Array.unsafe_set dst (base + c)
          (Array.unsafe_get md (base + c) +. Array.unsafe_get vd c)
      done
    done

let mul_rowvec md vd dst rows cols =
  if checked () then
    for r = 0 to rows - 1 do
      let base = r * cols in
      for c = 0 to cols - 1 do
        dst.(base + c) <- md.(base + c) *. vd.(c)
      done
    done
  else
    for r = 0 to rows - 1 do
      let base = r * cols in
      (* SAFETY: base + c < rows * cols = length of md and dst;
         c < cols = length vd — the dispatch layer checks all three shapes *)
      for c = 0 to cols - 1 do
        Array.unsafe_set dst (base + c)
          (Array.unsafe_get md (base + c) *. Array.unsafe_get vd c)
      done
    done

(* {1 Linear algebra} *)

(* ikj loop order: streams through b rows, cache friendly for row-major.
   [cd] must be pre-zeroed by the caller. *)
let matmul ad bd cd m k n =
  if checked () then
    for i = 0 to m - 1 do
      let a_base = i * k and c_base = i * n in
      for p = 0 to k - 1 do
        let aip = ad.(a_base + p) in
        (* pnnlint:allow R5 exact-zero skip is IEEE on purpose: -0.0 skips,
           NaN never skips; Float.equal would treat both differently *)
        if aip <> 0.0 then begin
          let b_base = p * n in
          for j = 0 to n - 1 do
            cd.(c_base + j) <- cd.(c_base + j) +. (aip *. bd.(b_base + j))
          done
        end
      done
    done
  else
    for i = 0 to m - 1 do
      let a_base = i * k and c_base = i * n in
      for p = 0 to k - 1 do
        (* SAFETY: a_base + p < m * k = length ad *)
        let aip = Array.unsafe_get ad (a_base + p) in
        (* pnnlint:allow R5 exact-zero skip is IEEE on purpose: -0.0 skips,
           NaN never skips; Float.equal would treat both differently *)
        if aip <> 0.0 then begin
          let b_base = p * n in
          (* SAFETY: c_base + j < m * n = length cd and
             b_base + j < k * n = length bd, by the loop bounds *)
          for j = 0 to n - 1 do
            Array.unsafe_set cd (c_base + j)
              (Array.unsafe_get cd (c_base + j) +. (aip *. Array.unsafe_get bd (b_base + j)))
          done
        end
      done
    done

(* A · Bᵀ without materializing the transpose: rows of both operands are
   contiguous, so the p-loop streams both.  The accumulation order (and the
   skip of exact-zero A entries) mirrors [matmul a (transpose b)], keeping
   results bit-identical to that formulation. *)
let matmul_nt ad bd cd m k n =
  if checked () then
    for i = 0 to m - 1 do
      let a_base = i * k and c_base = i * n in
      for j = 0 to n - 1 do
        let b_base = j * k in
        let acc = ref 0.0 in
        for p = 0 to k - 1 do
          let aip = ad.(a_base + p) in
          (* pnnlint:allow R5 exact-zero skip is IEEE on purpose: -0.0 skips,
             NaN never skips; Float.equal would treat both differently *)
          if aip <> 0.0 then acc := !acc +. (aip *. bd.(b_base + p))
        done;
        cd.(c_base + j) <- !acc
      done
    done
  else
    for i = 0 to m - 1 do
      let a_base = i * k and c_base = i * n in
      for j = 0 to n - 1 do
        let b_base = j * k in
        let acc = ref 0.0 in
        for p = 0 to k - 1 do
          (* SAFETY: a_base + p < m * k = length ad *)
          let aip = Array.unsafe_get ad (a_base + p) in
          (* pnnlint:allow R5 exact-zero skip is IEEE on purpose: -0.0 skips,
             NaN never skips; Float.equal would treat both differently *)
          if aip <> 0.0 then
            (* SAFETY: b_base + p < n * k = length bd *)
            acc := !acc +. (aip *. Array.unsafe_get bd (b_base + p))
        done;
        (* SAFETY: c_base + j < m * n = length cd *)
        Array.unsafe_set cd (c_base + j) !acc
      done
    done

(* Blocked copy instead of a closure-per-element [init]: both the read and
   the write stay within a 32x32 tile, so one of the two strided streams is
   always cache-resident. *)
let transpose src dst rows cols =
  let bs = 32 in
  if checked () then begin
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
  end
  else begin
    let r0 = ref 0 in
    while !r0 < rows do
      let rmax = Stdlib.min rows (!r0 + bs) in
      let c0 = ref 0 in
      while !c0 < cols do
        let cmax = Stdlib.min cols (!c0 + bs) in
        for r = !r0 to rmax - 1 do
          let base = r * cols in
          (* SAFETY: r < rows and c < cols keep base + c < rows * cols =
             length src and c * rows + r < cols * rows = length dst *)
          for c = !c0 to cmax - 1 do
            Array.unsafe_set dst ((c * rows) + r) (Array.unsafe_get src (base + c))
          done
        done;
        c0 := !c0 + bs
      done;
      r0 := !r0 + bs
    done
  end

(* {1 Reductions} *)

let dot a b n =
  let acc = ref 0.0 in
  if checked () then
    for i = 0 to n - 1 do
      acc := !acc +. (a.(i) *. b.(i))
    done
  else
    (* SAFETY: i < n = length of both (shapes checked by the dispatch
       layer) *)
    for i = 0 to n - 1 do
      acc := !acc +. (Array.unsafe_get a i *. Array.unsafe_get b i)
    done;
  !acc

let sum a n =
  (* left-to-right accumulation, same order as [Array.fold_left ( +. ) 0.0] *)
  let acc = ref 0.0 in
  if checked () then
    for i = 0 to n - 1 do
      acc := !acc +. a.(i)
    done
  else
    (* SAFETY: i < n = length a *)
    for i = 0 to n - 1 do
      acc := !acc +. Array.unsafe_get a i
    done;
  !acc

(* Polymorphic [Stdlib.min]/[max] specialize to IEEE [<=]/[>=] selects on
   floats: an unordered (NaN) compare keeps the right operand, and -0.0/0.0
   compare equal so the left one wins.  Kernels_c spells out the same
   selects monomorphically — the fold here is the defining order. *)
let min_value a _n = Array.fold_left Stdlib.min a.(0) a
let max_value a _n = Array.fold_left Stdlib.max a.(0) a

(* [dst] must be pre-zeroed by the caller (column accumulators). *)
let sum_rows src dst rows cols =
  if checked () then
    for r = 0 to rows - 1 do
      let base = r * cols in
      for c = 0 to cols - 1 do
        dst.(c) <- dst.(c) +. src.(base + c)
      done
    done
  else
    for r = 0 to rows - 1 do
      let base = r * cols in
      (* SAFETY: base + c < rows * cols = length src and
         c < cols = length dst *)
      for c = 0 to cols - 1 do
        Array.unsafe_set dst c
          (Array.unsafe_get dst c +. Array.unsafe_get src (base + c))
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

   Specialized direct loops rather than a generic [map f]: applying a
   [float -> float] closure per element boxes its argument and result on the
   minor heap, which dominated the training hot path's allocation profile.
   Backward fuses [g *. df x y] in one expression.  Moved verbatim from the
   autodiff layer; the dispatch layer guarantees all buffers share [n]. *)

let unary op src dst n =
  match (op : TB.unop) with
  | TB.Tanh ->
      if checked () then
        for i = 0 to n - 1 do
          dst.(i) <- Stdlib.tanh src.(i)
        done
      else
        (* SAFETY: i < n <= length of src and dst (dispatch layer) *)
        for i = 0 to n - 1 do
          Array.unsafe_set dst i (Stdlib.tanh (Array.unsafe_get src i))
        done
  | TB.Sigmoid ->
      if checked () then
        for i = 0 to n - 1 do
          dst.(i) <- 1.0 /. (1.0 +. Stdlib.exp (-.src.(i)))
        done
      else
        (* SAFETY: i < n <= length of src and dst (dispatch layer) *)
        for i = 0 to n - 1 do
          Array.unsafe_set dst i
            (1.0 /. (1.0 +. Stdlib.exp (-.Array.unsafe_get src i)))
        done
  | TB.Exp ->
      if checked () then
        for i = 0 to n - 1 do
          dst.(i) <- Stdlib.exp src.(i)
        done
      else
        (* SAFETY: i < n <= length of src and dst (dispatch layer) *)
        for i = 0 to n - 1 do
          Array.unsafe_set dst i (Stdlib.exp (Array.unsafe_get src i))
        done
  | TB.Log ->
      if checked () then
        for i = 0 to n - 1 do
          dst.(i) <- Stdlib.log src.(i)
        done
      else
        (* SAFETY: i < n <= length of src and dst (dispatch layer) *)
        for i = 0 to n - 1 do
          Array.unsafe_set dst i (Stdlib.log (Array.unsafe_get src i))
        done
  | TB.Sqrt ->
      if checked () then
        for i = 0 to n - 1 do
          dst.(i) <- Stdlib.sqrt src.(i)
        done
      else
        (* SAFETY: i < n <= length of src and dst (dispatch layer) *)
        for i = 0 to n - 1 do
          Array.unsafe_set dst i (Stdlib.sqrt (Array.unsafe_get src i))
        done
  | TB.Relu ->
      if checked () then
        for i = 0 to n - 1 do
          let x = src.(i) in
          dst.(i) <- (if x > 0.0 then x else 0.0)
        done
      else
        (* SAFETY: i < n <= length of src and dst (dispatch layer) *)
        for i = 0 to n - 1 do
          let x = Array.unsafe_get src i in
          Array.unsafe_set dst i (if x > 0.0 then x else 0.0)
        done
  | TB.Abs ->
      if checked () then
        for i = 0 to n - 1 do
          dst.(i) <- Stdlib.abs_float src.(i)
        done
      else
        (* SAFETY: i < n <= length of src and dst (dispatch layer) *)
        for i = 0 to n - 1 do
          Array.unsafe_set dst i (Stdlib.abs_float (Array.unsafe_get src i))
        done

let unary_bwd op ~x ~y ~g ~s n =
  match (op : TB.unop) with
  | TB.Tanh ->
      if checked () then
        for i = 0 to n - 1 do
          let yi = y.(i) in
          s.(i) <- g.(i) *. (1.0 -. (yi *. yi))
        done
      else
        (* SAFETY: i < n <= length of y, g and s (dispatch layer) *)
        for i = 0 to n - 1 do
          let yi = Array.unsafe_get y i in
          Array.unsafe_set s i (Array.unsafe_get g i *. (1.0 -. (yi *. yi)))
        done
  | TB.Sigmoid ->
      if checked () then
        for i = 0 to n - 1 do
          let yi = y.(i) in
          s.(i) <- g.(i) *. (yi *. (1.0 -. yi))
        done
      else
        (* SAFETY: i < n <= length of y, g and s (dispatch layer) *)
        for i = 0 to n - 1 do
          let yi = Array.unsafe_get y i in
          Array.unsafe_set s i (Array.unsafe_get g i *. (yi *. (1.0 -. yi)))
        done
  | TB.Exp ->
      if checked () then
        for i = 0 to n - 1 do
          s.(i) <- g.(i) *. y.(i)
        done
      else
        (* SAFETY: i < n <= length of y, g and s (dispatch layer) *)
        for i = 0 to n - 1 do
          Array.unsafe_set s i (Array.unsafe_get g i *. Array.unsafe_get y i)
        done
  | TB.Log ->
      if checked () then
        for i = 0 to n - 1 do
          s.(i) <- g.(i) *. (1.0 /. x.(i))
        done
      else
        (* SAFETY: i < n <= length of x, g and s (dispatch layer) *)
        for i = 0 to n - 1 do
          Array.unsafe_set s i (Array.unsafe_get g i *. (1.0 /. Array.unsafe_get x i))
        done
  | TB.Sqrt ->
      if checked () then
        for i = 0 to n - 1 do
          s.(i) <- g.(i) *. (0.5 /. y.(i))
        done
      else
        (* SAFETY: i < n <= length of y, g and s (dispatch layer) *)
        for i = 0 to n - 1 do
          Array.unsafe_set s i (Array.unsafe_get g i *. (0.5 /. Array.unsafe_get y i))
        done
  | TB.Relu ->
      if checked () then
        for i = 0 to n - 1 do
          s.(i) <- g.(i) *. (if x.(i) > 0.0 then 1.0 else 0.0)
        done
      else
        for i = 0 to n - 1 do
          (* SAFETY: i < n <= length of x, g and s (dispatch layer) *)
          Array.unsafe_set s i
            (Array.unsafe_get g i
            *. (if Array.unsafe_get x i > 0.0 then 1.0 else 0.0))
        done
  | TB.Abs ->
      if checked () then
        for i = 0 to n - 1 do
          let xi = x.(i) in
          s.(i) <- g.(i) *. (if xi > 0.0 then 1.0 else if xi < 0.0 then -1.0 else 0.0)
        done
      else
        for i = 0 to n - 1 do
          (* SAFETY: i < n <= length of x, g and s (dispatch layer) *)
          let xi = Array.unsafe_get x i in
          Array.unsafe_set s i
            (Array.unsafe_get g i
            *. (if xi > 0.0 then 1.0 else if xi < 0.0 then -1.0 else 0.0))
        done

(* {1 Training-path fused kernels} *)

(* Stable row-wise softmax; raw loops for the same unboxed-float reason as
   the nonlinearities above. *)
let softmax_rows src out rows cols =
  if checked () then
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
  else
    for r = 0 to rows - 1 do
      let base = r * cols in
      let mx = ref neg_infinity in
      (* SAFETY: base + c < rows * cols, the length of src and of out (the
         dispatch layer checks both shapes) — holds for all three loops *)
      for c = 0 to cols - 1 do
        let x = Array.unsafe_get src (base + c) in
        if x > !mx then mx := x
      done;
      let z = ref 0.0 in
      (* SAFETY: base + c < rows * cols = length of src and out *)
      for c = 0 to cols - 1 do
        let e = Stdlib.exp (Array.unsafe_get src (base + c) -. !mx) in
        Array.unsafe_set out (base + c) e;
        z := !z +. e
      done;
      (* SAFETY: base + c < rows * cols = length of out *)
      for c = 0 to cols - 1 do
        Array.unsafe_set out (base + c) (Array.unsafe_get out (base + c) /. !z)
      done
    done

(* Summed (not averaged) cross-entropy: the caller divides by the batch so
   every backend shares one division point. *)
let ce_loss_sum p y n =
  let loss = ref 0.0 in
  if checked () then
    for i = 0 to n - 1 do
      let yi = y.(i) in
      if yi > 0.0 then
        loss := !loss -. (yi *. Stdlib.log (Stdlib.max p.(i) 1e-30))
    done
  else
    for i = 0 to n - 1 do
      (* SAFETY: the dispatch layer checks p and y share a shape, so i is
         below the length of both *)
      let yi = Array.unsafe_get y i in
      if yi > 0.0 then
        loss := !loss -. (yi *. Stdlib.log (Stdlib.max (Array.unsafe_get p i) 1e-30))
    done;
  !loss

(* Optimizer steps, moved verbatim from lib/nn/optimizer.ml (safe indexing,
   exactly as before the backend split). *)

let sgd_step ~lr ~grad ~value n =
  for i = 0 to n - 1 do
    value.(i) <- value.(i) -. (lr *. grad.(i))
  done

let adam_step ~lr ~beta1 ~beta2 ~eps ~bc1 ~bc2 ~m ~v ~grad ~value n =
  for i = 0 to n - 1 do
    let g = grad.(i) in
    m.(i) <- (beta1 *. m.(i)) +. ((1.0 -. beta1) *. g);
    v.(i) <- (beta2 *. v.(i)) +. ((1.0 -. beta2) *. g *. g);
    let mhat = m.(i) /. bc1 in
    let vhat = v.(i) /. bc2 in
    value.(i) <- value.(i) -. (lr *. mhat /. (Stdlib.sqrt vhat +. eps))
  done
