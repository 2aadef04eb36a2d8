(* Dense 2-D tensors on the C kernels.

   Representation: row-major, index (r, c) at [r * cols + c], stored in one
   flat Float64 buffer owned by Kernels_c.  This module validates shapes and
   then calls the kernel; it owns every storage constructor, so the buffer
   type never escapes (pnnlint R6 enforces that outside lib/tensor). *)

module Kc = Kernels_c

type t = { rows : int; cols : int; store : Kc.buf }

(* {1 Shape plumbing} *)

let shape_string rows cols = Printf.sprintf "%dx%d" rows cols

let shape_fail name a b =
  invalid_arg
    (Printf.sprintf "Tensor.%s: shape mismatch %s vs %s" name
       (shape_string a.rows a.cols)
       (shape_string b.rows b.cols))

let binop_check name a b =
  if a.rows <> b.rows || a.cols <> b.cols then shape_fail name a b

let rows t = t.rows
let cols t = t.cols
let numel t = t.rows * t.cols
let shape t = (t.rows, t.cols)

(* {1 Construction} *)

let create rows cols data =
  if rows < 0 || cols < 0 then invalid_arg "Tensor.create: negative dimension";
  if Array.length data <> rows * cols then
    invalid_arg
      (Printf.sprintf "Tensor.create: data length %d <> %d*%d"
         (Array.length data) rows cols);
  { rows; cols; store = Kc.of_float_array data }

let zeros rows cols =
  if rows < 0 || cols < 0 then invalid_arg "Tensor.create: negative dimension";
  { rows; cols; store = Kc.create (rows * cols) }

let ones rows cols =
  let t = zeros rows cols in
  Kc.fill t.store ~pos:0 ~len:(rows * cols) 1.0;
  t

let init rows cols f =
  (* [f] writes straight into fresh storage, called in row-major order
     (RNG-backed constructors depend on the draw order) *)
  let t = zeros rows cols in
  for r = 0 to rows - 1 do
    for c = 0 to cols - 1 do
      Bigarray.Array1.set t.store ((r * cols) + c) (f r c)
    done
  done;
  t

let scalar v = create 1 1 [| v |]
let of_array a = create 1 (Array.length a) a

let of_arrays rows_arr =
  let rows = Array.length rows_arr in
  if rows = 0 then create 0 0 [||]
  else begin
    let cols = Array.length rows_arr.(0) in
    Array.iteri
      (fun i row ->
        if Array.length row <> cols then
          invalid_arg
            (Printf.sprintf "Tensor.of_arrays: row %d has length %d, expected %d"
               i (Array.length row) cols))
      rows_arr;
    init rows cols (fun r c -> rows_arr.(r).(c))
  end

let copy t =
  let d = zeros t.rows t.cols in
  Kc.blit t.store 0 d.store 0 (numel t);
  d

let uniform rng rows cols ~lo ~hi =
  init rows cols (fun _ _ -> Rng.uniform rng ~lo ~hi)

(* {1 Access} *)

let get t r c =
  if r < 0 || r >= t.rows || c < 0 || c >= t.cols then
    invalid_arg
      (Printf.sprintf "Tensor.get: (%d,%d) out of %s" r c
         (shape_string t.rows t.cols));
  Kc.get t.store ((r * t.cols) + c)

let set t r c v =
  if r < 0 || r >= t.rows || c < 0 || c >= t.cols then
    invalid_arg
      (Printf.sprintf "Tensor.set: (%d,%d) out of %s" r c
         (shape_string t.rows t.cols));
  Kc.set t.store ((r * t.cols) + c) v

let to_array t = Kc.to_float_array t.store

let to_arrays t =
  let a = to_array t in
  Array.init t.rows (fun r -> Array.sub a (r * t.cols) t.cols)

(* {1 Elementwise} *)

let map f t =
  let dst = zeros t.rows t.cols in
  Kc.map f t.store dst.store (numel t);
  dst

let ew2 name k a b =
  binop_check name a b;
  let dst = zeros a.rows a.cols in
  k a.store b.store dst.store (numel a);
  dst

let add a b = ew2 "add" Kc.add a b
let sub a b = ew2 "sub" Kc.sub a b
let mul a b = ew2 "mul" Kc.mul a b

let neg t =
  let dst = zeros t.rows t.cols in
  Kc.neg t.store dst.store (numel t);
  dst

let scale k t =
  let dst = zeros t.rows t.cols in
  Kc.scale k t.store dst.store (numel t);
  dst

(* {1 Broadcast helpers} *)

let rowvec_check name m v =
  if v.rows <> 1 || v.cols <> m.cols then shape_fail name m v

let add_rowvec m v =
  rowvec_check "add_rowvec" m v;
  let dst = zeros m.rows m.cols in
  Kc.add_rowvec m.store v.store dst.store m.rows m.cols;
  dst

let mul_rowvec m v =
  rowvec_check "mul_rowvec" m v;
  let dst = zeros m.rows m.cols in
  Kc.mul_rowvec m.store v.store dst.store m.rows m.cols;
  dst

(* {1 Linear algebra} *)

let matmul a b =
  if a.cols <> b.rows then shape_fail "matmul" a b;
  let dst = zeros a.rows b.cols in
  Kc.matmul a.store b.store dst.store a.rows a.cols b.cols;
  dst

let dot a b =
  if a.rows <> b.rows || a.cols <> b.cols then shape_fail "dot" a b;
  Kc.dot a.store b.store (numel a)

(* {1 Reductions} *)

let sum t = Kc.sum t.store (numel t)

let mean t =
  if numel t = 0 then invalid_arg "Tensor.mean: empty tensor";
  sum t /. float_of_int (numel t)

let argmax_rows t =
  if t.cols = 0 then invalid_arg "Tensor.argmax_rows: zero columns";
  Kc.argmax_rows t.store t.rows t.cols

(* {1 Assembly} *)

let concat_rows a b =
  if a.cols <> b.cols then shape_fail "concat_rows" a b;
  let dst = zeros (a.rows + b.rows) a.cols in
  Kc.blit a.store 0 dst.store 0 (numel a);
  Kc.blit b.store 0 dst.store (numel a) (numel b);
  dst

let slice_rows t start len =
  if start < 0 || len < 0 || start + len > t.rows then
    invalid_arg
      (Printf.sprintf "Tensor.slice_rows: [%d,%d) out of %d rows" start
         (start + len) t.rows);
  let dst = zeros len t.cols in
  Kc.blit t.store (start * t.cols) dst.store 0 (len * t.cols);
  dst

let take_rows t idx =
  let dst = zeros (Array.length idx) t.cols in
  Array.iteri
    (fun r src ->
      if src < 0 || src >= t.rows then
        invalid_arg "Tensor.take_rows: index out of range";
      Kc.blit t.store (src * t.cols) dst.store (r * t.cols) t.cols)
    idx;
  dst

(* {1 In-place (destination-passing) kernels} *)

let shape_check_dst name dst rows cols =
  if dst.rows <> rows || dst.cols <> cols then
    invalid_arg
      (Printf.sprintf "Tensor.%s: dst shape %s, expected %s" name
         (shape_string dst.rows dst.cols)
         (shape_string rows cols))

let fill t v = Kc.fill t.store ~pos:0 ~len:(numel t) v

let blit ~src ~dst =
  if src.rows <> dst.rows || src.cols <> dst.cols then shape_fail "blit" src dst;
  Kc.blit src.store 0 dst.store 0 (numel src)

let blit_changed ~src ~dst =
  if src.rows <> dst.rows || src.cols <> dst.cols then shape_fail "blit_changed" src dst;
  Kc.blit_changed src.store dst.store (numel src)

let blit_rows ~src i ~dst j n =
  if src.cols <> dst.cols || n < 0 || i < 0 || j < 0 || i + n > src.rows || j + n > dst.rows
  then
    invalid_arg
      (Printf.sprintf "Tensor.blit_rows: rows [%d,%d) of %s over [%d,%d) of %s" i (i + n)
         (shape_string src.rows src.cols) j (j + n) (shape_string dst.rows dst.cols));
  Kc.blit src.store (i * src.cols) dst.store (j * dst.cols) (n * src.cols)

let read_into t a =
  if Array.length a <> numel t then invalid_arg "Tensor.read_into: length mismatch";
  let b = t.store in
  for i = 0 to numel t - 1 do
    a.(i) <- b.{i}
  done

let write_from a t =
  if Array.length a <> numel t then invalid_arg "Tensor.write_from: length mismatch";
  Kc.load t.store a

let ew2_into name k a b ~dst =
  binop_check name a b;
  shape_check_dst name dst a.rows a.cols;
  k a.store b.store dst.store (numel a)

let add_into a b ~dst = ew2_into "add_into" Kc.add a b ~dst
let sub_into a b ~dst = ew2_into "sub_into" Kc.sub a b ~dst
let mul_into a b ~dst = ew2_into "mul_into" Kc.mul a b ~dst

let neg_into a ~dst =
  shape_check_dst "neg_into" dst a.rows a.cols;
  Kc.neg a.store dst.store (numel a)

let scale_into k a ~dst =
  shape_check_dst "scale_into" dst a.rows a.cols;
  Kc.scale k a.store dst.store (numel a)

let add_rowvec_into m v ~dst =
  rowvec_check "add_rowvec_into" m v;
  shape_check_dst "add_rowvec_into" dst m.rows m.cols;
  Kc.add_rowvec m.store v.store dst.store m.rows m.cols

let mul_rowvec_into m v ~dst =
  rowvec_check "mul_rowvec_into" m v;
  shape_check_dst "mul_rowvec_into" dst m.rows m.cols;
  Kc.mul_rowvec m.store v.store dst.store m.rows m.cols

let matmul_into a b ~dst =
  if a.cols <> b.rows then shape_fail "matmul_into" a b;
  shape_check_dst "matmul_into" dst a.rows b.cols;
  Kc.matmul a.store b.store dst.store a.rows a.cols b.cols

let matmul_nt_into a b ~dst =
  if a.cols <> b.cols then shape_fail "matmul_nt_into" a b;
  shape_check_dst "matmul_nt_into" dst a.rows b.rows;
  Kc.matmul_nt a.store b.store dst.store a.rows a.cols b.rows

let transpose_into t ~dst =
  shape_check_dst "transpose_into" dst t.cols t.rows;
  Kc.transpose t.store dst.store t.rows t.cols

let sum_rows_into t ~dst =
  shape_check_dst "sum_rows_into" dst 1 t.cols;
  Kc.fill dst.store ~pos:0 ~len:t.cols 0.0;
  Kc.sum_rows t.store dst.store t.rows t.cols

let slice_rows_into t start len ~dst =
  if start < 0 || len < 0 || start + len > t.rows then
    invalid_arg
      (Printf.sprintf "Tensor.slice_rows_into: [%d,%d) out of %d rows" start
         (start + len) t.rows);
  shape_check_dst "slice_rows_into" dst len t.cols;
  Kc.blit t.store (start * t.cols) dst.store 0 (len * t.cols)

let embed_rows_into src start ~dst =
  (* dst := 0 everywhere except rows [start, start + rows src), which
     receive src — the scatter used by the slice_rows gradient. *)
  if src.cols <> dst.cols || start < 0 || start + src.rows > dst.rows then
    shape_fail "embed_rows_into" src dst;
  fill dst 0.0;
  Kc.blit src.store 0 dst.store (start * dst.cols) (src.rows * dst.cols)

let concat_rows_into a b ~dst =
  if a.cols <> b.cols then shape_fail "concat_rows_into" a b;
  shape_check_dst "concat_rows_into" dst (a.rows + b.rows) a.cols;
  Kc.blit a.store 0 dst.store 0 (numel a);
  Kc.blit b.store 0 dst.store (numel a) (numel b)

(* {1 Nonlinearity and training-path kernels}

   Routed through here, like every kernel, so raw buffers never leak out
   of lib/tensor. *)

type unop = Kc.unop = Tanh | Sigmoid | Relu

let unop_into op a ~dst =
  shape_check_dst "unop_into" dst a.rows a.cols;
  Kc.unary op a.store dst.store (numel a)

let unop_bwd_into op ~x ~y ~g ~dst =
  binop_check "unop_bwd_into" x y;
  binop_check "unop_bwd_into" x g;
  shape_check_dst "unop_bwd_into" dst x.rows x.cols;
  Kc.unary_bwd op ~x:x.store ~y:y.store ~g:g.store ~s:dst.store (numel x)

let ptanh_check name eta =
  if numel eta <> 4 then
    invalid_arg (Printf.sprintf "Tensor.%s: eta has %d elements, expected 4" name (numel eta))

(* The Eq. 1 / Eq. 2 kernels read inputs after they have written outputs
   (crossbar's x·θ⁺ product reads x after h and inv_x are written,
   ptanh_bwd's η shares read g after dv), and ptanh's h and out are both
   kept for the backward pass, so no output may share storage with an
   input or with another output.  [shares o a b c d e f g] says whether [o] shares storage with
   one of the others; a call with fewer operands repeats one.  Spelled out
   so that the check allocates nothing. *)
let shares o a b c d e f g =
  let s = o.store in
  s == a.store || s == b.store || s == c.store || s == d.store || s == e.store || s == f.store
  || s == g.store

let distinct_check name clash =
  if clash then
    invalid_arg (Printf.sprintf "Tensor.%s: an output shares storage with another operand" name)

let ptanh_into ~eta v ~h ~dst =
  ptanh_check "ptanh_into" eta;
  shape_check_dst "ptanh_into" h v.rows v.cols;
  shape_check_dst "ptanh_into" dst v.rows v.cols;
  distinct_check "ptanh_into" (shares h dst eta v v v v v || shares dst eta v v v v v v);
  Kc.ptanh ~eta:eta.store ~v:v.store ~h:h.store ~out:dst.store (numel v)

let ptanh_bwd_into ~eta v ~h ~g ~dv ~deta =
  ptanh_check "ptanh_bwd_into" eta;
  binop_check "ptanh_bwd_into" v h;
  binop_check "ptanh_bwd_into" v g;
  shape_check_dst "ptanh_bwd_into" dv v.rows v.cols;
  shape_check_dst "ptanh_bwd_into" deta eta.rows eta.cols;
  distinct_check "ptanh_bwd_into" (shares dv deta eta v h g g g || shares deta eta v h g g g g);
  Kc.ptanh_bwd ~eta:eta.store ~v:v.store ~h:h.store ~g:g.store ~dv:dv.store ~deta:deta.store
    (numel v)

(* The crossbar pair's operands: x is m × k, the packed conductances
   (2(k + 1) + 1) × n, h and inv_x m × (k + 1), num m × n. *)
let crossbar_check name ~x ~eta ~cond ~h ~inv_x ~num =
  let m = x.rows and k = x.cols and n = cond.cols in
  ptanh_check name eta;
  if cond.rows <> (2 * (k + 1)) + 1 then shape_fail name x cond;
  shape_check_dst name h m (k + 1);
  shape_check_dst name inv_x m (k + 1);
  shape_check_dst name num m n

let crossbar_into ~x ~eta ~cond ~h ~inv_x ~num ~dst =
  crossbar_check "crossbar_into" ~x ~eta ~cond ~h ~inv_x ~num;
  shape_check_dst "crossbar_into" dst x.rows cond.cols;
  distinct_check "crossbar_into"
    (shares h inv_x num dst x eta cond cond
    || shares inv_x num dst x eta cond cond cond
    || shares num dst x eta cond cond cond cond
    || shares dst x eta cond cond cond cond cond);
  Kc.crossbar ~x:x.store ~eta:eta.store ~cond:cond.store ~h:h.store ~inv_x:inv_x.store
    ~num:num.store ~out:dst.store x.rows x.cols cond.cols

let crossbar_bwd_into ~x ~eta ~cond ~h ~inv_x ~num ~g ~gnum ~dx ~deta ~dcond =
  crossbar_check "crossbar_bwd_into" ~x ~eta ~cond ~h ~inv_x ~num;
  binop_check "crossbar_bwd_into" num g;
  binop_check "crossbar_bwd_into" num gnum;
  shape_check_dst "crossbar_bwd_into" deta eta.rows eta.cols;
  shape_check_dst "crossbar_bwd_into" dcond cond.rows cond.cols;
  let want_dx = Option.is_some dx in
  (* without x's share the stub never touches [dx]: any buffer will do *)
  let dx = match dx with Some d -> d | None -> gnum in
  if want_dx then shape_check_dst "crossbar_bwd_into" dx x.rows x.cols;
  distinct_check "crossbar_bwd_into"
    ((want_dx && (shares dx gnum deta dcond x eta cond h || shares dx inv_x num g g g g g))
    || shares gnum deta dcond x eta cond h inv_x
    || shares gnum num g g g g g g
    || shares deta dcond x eta cond h inv_x num
    || shares deta g g g g g g g
    || shares dcond x eta cond h inv_x num g);
  Kc.crossbar_bwd ~x:x.store ~eta:eta.store ~cond:cond.store ~h:h.store ~inv_x:inv_x.store
    ~num:num.store ~g:g.store ~gnum:gnum.store ~want_dx ~dx:dx.store ~deta:deta.store
    ~dcond:dcond.store x.rows x.cols cond.cols

let softmax_rows_into m ~dst =
  shape_check_dst "softmax_rows_into" dst m.rows m.cols;
  Kc.softmax_rows m.store dst.store m.rows m.cols

let ce_loss_sum probs labels =
  binop_check "ce_loss_sum" probs labels;
  Kc.ce_loss_sum probs.store labels.store (numel probs)

let moments_check name value m v =
  if Array.length m <> numel value || Array.length v <> numel value then
    invalid_arg (Printf.sprintf "Tensor.%s: moment length mismatch" name)

(* {1 Fused hot-path entry points} *)

let matmul_bias_unop_into ?op x w b ~pre ~out =
  if x.cols <> w.rows then shape_fail "matmul_bias_unop_into" x w;
  let m = x.rows and k = x.cols and n = w.cols in
  if b.rows <> 1 || b.cols <> n then shape_fail "matmul_bias_unop_into" w b;
  shape_check_dst "matmul_bias_unop_into" pre m n;
  shape_check_dst "matmul_bias_unop_into" out m n;
  Kc.matmul_bias_unop op ~x:x.store ~w:w.store ~b:b.store ~pre:pre.store ~out:out.store m k n

let adam_step_many ~lr ~beta1 ~beta2 ~eps ~bc1 ~bc2 items =
  Kc.adam_step_many ~lr ~beta1 ~beta2 ~eps ~bc1 ~bc2
    (Array.of_list
       (List.map
          (fun (value, grad, m, v) ->
            binop_check "adam_step_many" value grad;
            moments_check "adam_step_many" value m v;
            (value.store, grad.store, m, v, numel value))
          items))

(* {1 Comparison} *)

let equal ?(eps = 0.0) a b =
  a.rows = b.rows && a.cols = b.cols
  && begin
       (* [not (|x - y| <= eps)] instead of [|x - y| > eps]: a NaN difference
          fails both comparisons, so any NaN entry makes the tensors unequal
          (IEEE semantics) instead of silently comparing as equal. *)
       let ok = ref true in
       for i = 0 to numel a - 1 do
         if not (Float.abs (Kc.get a.store i -. Kc.get b.store i) <= eps) then
           ok := false
       done;
       !ok
     end
