(* Dense 2-D tensors over pluggable kernel backends.

   Representation: row-major, index (r, c) at [r * cols + c], stored in one
   flat buffer owned by a backend (Tensor_backend.KERNELS implementation).
   This module is the dispatch layer: it validates shapes, decides which
   backend's kernels to run, and owns every storage constructor — backend
   buffer types never escape (pnnlint R6 enforces that outside lib/tensor).

   Dispatch is storage-driven: an operation whose operands all live on one
   backend runs that backend's kernels directly (a single pattern match, no
   closure indirection — this matters without flambda).  Mixed-storage
   operands (possible when tensors created before a [set_backend] call meet
   tensors created after) fall back to snapshotting the inputs into plain
   float arrays, running the REFERENCE kernels, and loading the result into
   the destination — always correct, bit-equal to the reference backend, and
   only as slow as the copies.  The active-backend flag only decides where
   fresh allocations land. *)

module TB = Tensor_backend
module Kr = Kernels_ref
module Kc = Kernels_c

type storage = F of Kr.buf | C of Kc.buf
type t = { rows : int; cols : int; store : storage }

(* {1 Backends} *)

type backend = TB.id = Reference | C64

let backend () = (Atomic.get TB.current)
let set_backend b = Atomic.set TB.current b
let backend_of_string = TB.of_string
let backend_name = TB.name
let backends = TB.all
let backend_choices = TB.names_string
let backend_tag () = TB.tag (Atomic.get TB.current)

let storage_backend = function F _ -> Reference | C _ -> C64

let backend_of t = storage_backend t.store

let set_checked b = Atomic.set TB.checked b
let checked () = (Atomic.get TB.checked)

(* {1 Storage helpers} *)

let alloc_for b n =
  match b with
  | Reference -> F (Kr.create n)
  | C64 -> C (Kc.create n)

let alloc_active n = alloc_for (Atomic.get TB.current) n
let alloc_like t n = alloc_for (storage_backend t.store) n

let sget s i = match s with F a -> Kr.get a i | C b -> Kc.get b i
let sset s i v = match s with F a -> Kr.set a i v | C b -> Kc.set b i v

let sfill s pos len v =
  match s with
  | F a -> Kr.fill a ~pos ~len v
  | C b -> Kc.fill b ~pos ~len v

(* exact element copy between any two storages *)
let sblit src src_pos dst dst_pos len =
  match (src, dst) with
  | F s, F d -> Kr.blit s src_pos d dst_pos len
  | C s, C d -> Kc.blit s src_pos d dst_pos len
  | F s, C d ->
      for i = 0 to len - 1 do
        Kc.set d (dst_pos + i) (Kr.get s (src_pos + i))
      done
  | C s, F d ->
      for i = 0 to len - 1 do
        Kr.set d (dst_pos + i) (Kc.get s (src_pos + i))
      done

(* Read-only view for the mixed-storage fallback: the F case returns the
   LIVE array (no copy) — callers must not write through it. *)
let snapshot = function F a -> a | C b -> Kc.to_float_array b
let load_into s arr = match s with F d -> Kr.load d arr | C b -> Kc.load b arr

let dup_store = function
  | F a -> F (Kr.of_float_array a)
  | C b ->
      let n = Kc.length b in
      let d = Kc.create n in
      Kc.blit b 0 d 0 n;
      C d

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

(* {1 Construction}

   Constructors allocate on the ACTIVE backend; operations allocate on
   their first operand's backend (so computations stay on one backend no
   matter when the flag changes). *)

let create rows cols data =
  if rows < 0 || cols < 0 then invalid_arg "Tensor.create: negative dimension";
  if Array.length data <> rows * cols then
    invalid_arg
      (Printf.sprintf "Tensor.create: data length %d <> %d*%d"
         (Array.length data) rows cols);
  let store =
    match (Atomic.get TB.current) with
    | Reference -> F data (* wraps without copy, as before the backend split *)
    | C64 -> C (Kc.of_float_array data)
  in
  { rows; cols; store }

let zeros rows cols =
  if rows < 0 || cols < 0 then invalid_arg "Tensor.create: negative dimension";
  { rows; cols; store = alloc_active (rows * cols) }

let full rows cols v =
  let t = zeros rows cols in
  sfill t.store 0 (rows * cols) v;
  t

let ones rows cols = full rows cols 1.0

let init rows cols f =
  (* fill a plain array first so [f] is called in row-major order exactly as
     before (RNG-backed constructors depend on the draw order) *)
  let data = Array.make (rows * cols) 0.0 in
  for r = 0 to rows - 1 do
    for c = 0 to cols - 1 do
      data.((r * cols) + c) <- f r c
    done
  done;
  create rows cols data

let scalar v = create 1 1 [| v |]
let of_array a = create 1 (Array.length a) (Array.copy a)

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

let row_of_list l = of_array (Array.of_list l)
let copy t = { t with store = dup_store t.store }

let uniform rng rows cols ~lo ~hi =
  init rows cols (fun _ _ -> Rng.uniform rng ~lo ~hi)

let gaussian rng rows cols ~mu ~sigma =
  init rows cols (fun _ _ -> Rng.gaussian rng ~mu ~sigma)

let zeros_as exemplar rows cols =
  if rows < 0 || cols < 0 then invalid_arg "Tensor.create: negative dimension";
  { rows; cols; store = alloc_like exemplar (rows * cols) }

(* {1 Access} *)

let get t r c =
  if r < 0 || r >= t.rows || c < 0 || c >= t.cols then
    invalid_arg
      (Printf.sprintf "Tensor.get: (%d,%d) out of %s" r c
         (shape_string t.rows t.cols));
  sget t.store ((r * t.cols) + c)

let set t r c v =
  if r < 0 || r >= t.rows || c < 0 || c >= t.cols then
    invalid_arg
      (Printf.sprintf "Tensor.set: (%d,%d) out of %s" r c
         (shape_string t.rows t.cols));
  sset t.store ((r * t.cols) + c) v

let row t r =
  if r < 0 || r >= t.rows then invalid_arg "Tensor.row: index out of range";
  let dst = { rows = 1; cols = t.cols; store = alloc_like t t.cols } in
  sblit t.store (r * t.cols) dst.store 0 t.cols;
  dst

let to_array t =
  match t.store with
  | F a -> Array.copy a
  | C b -> Kc.to_float_array b

let to_arrays t =
  let a = to_array t in
  Array.init t.rows (fun r -> Array.sub a (r * t.cols) t.cols)

(* {1 Dispatch cores}

   Each helper matches the operand storages once per call.  Homogeneous
   operands run their backend's kernel; mixed operands take the reference
   fallback described in the header. *)

let ew1 kr kc a dst n =
  match (a.store, dst.store) with
  | F x, F d -> kr x d n
  | C x, C d -> kc x d n
  | ax, ds ->
      let d = Array.make n 0.0 in
      kr (snapshot ax) d n;
      load_into ds d

let ew2 kr kc a b dst n =
  match (a.store, b.store, dst.store) with
  | F x, F y, F d -> kr x y d n
  | C x, C y, C d -> kc x y d n
  | ax, by, ds ->
      let d = Array.make n 0.0 in
      kr (snapshot ax) (snapshot by) d n;
      load_into ds d

let bc2 kr kc m v dst rows cols =
  match (m.store, v.store, dst.store) with
  | F x, F y, F d -> kr x y d rows cols
  | C x, C y, C d -> kc x y d rows cols
  | mx, vy, ds ->
      let d = Array.make (rows * cols) 0.0 in
      kr (snapshot mx) (snapshot vy) d rows cols;
      load_into ds d

(* matmul-shaped: three ints after the buffers *)
let mm3 kr kc a b dst m k n =
  match (a.store, b.store, dst.store) with
  | F x, F y, F d -> kr x y d m k n
  | C x, C y, C d -> kc x y d m k n
  | ax, by, ds ->
      let d = Array.make (m * n) 0.0 in
      kr (snapshot ax) (snapshot by) d m k n;
      load_into ds d

let t2 kr kc src dst rows cols =
  match (src.store, dst.store) with
  | F x, F d -> kr x d rows cols
  | C x, C d -> kc x d rows cols
  | sx, ds ->
      let d = Array.make (rows * cols) 0.0 in
      kr (snapshot sx) d rows cols;
      load_into ds d

(* {1 Elementwise} *)

let map_disp f a dst n = ew1 (Kr.map f) (Kc.map f) a dst n

let map f t =
  let dst = zeros_as t t.rows t.cols in
  map_disp f t dst (numel t);
  dst

let add a b =
  binop_check "add" a b;
  let dst = zeros_as a a.rows a.cols in
  ew2 Kr.add Kc.add a b dst (numel a);
  dst

let sub a b =
  binop_check "sub" a b;
  let dst = zeros_as a a.rows a.cols in
  ew2 Kr.sub Kc.sub a b dst (numel a);
  dst

let mul a b =
  binop_check "mul" a b;
  let dst = zeros_as a a.rows a.cols in
  ew2 Kr.mul Kc.mul a b dst (numel a);
  dst

let div a b =
  binop_check "div" a b;
  let dst = zeros_as a a.rows a.cols in
  ew2 Kr.div Kc.div a b dst (numel a);
  dst

let neg t =
  let dst = zeros_as t t.rows t.cols in
  ew1 Kr.neg Kc.neg t dst (numel t);
  dst

let scale k t =
  let dst = zeros_as t t.rows t.cols in
  ew1 (Kr.scale k) (Kc.scale k) t dst (numel t);
  dst

let add_scalar k t =
  let dst = zeros_as t t.rows t.cols in
  ew1 (Kr.add_scalar k) (Kc.add_scalar k) t dst (numel t);
  dst

(* {1 Broadcast helpers} *)

let rowvec_check name m v =
  if v.rows <> 1 || v.cols <> m.cols then shape_fail name m v

let add_rowvec m v =
  rowvec_check "add_rowvec" m v;
  let dst = zeros_as m m.rows m.cols in
  bc2 Kr.add_rowvec Kc.add_rowvec m v dst m.rows m.cols;
  dst

let mul_rowvec m v =
  rowvec_check "mul_rowvec" m v;
  let dst = zeros_as m m.rows m.cols in
  bc2 Kr.mul_rowvec Kc.mul_rowvec m v dst m.rows m.cols;
  dst

(* {1 Linear algebra} *)

let matmul a b =
  if a.cols <> b.rows then shape_fail "matmul" a b;
  let m = a.rows and k = a.cols and n = b.cols in
  let dst = zeros_as a m n in
  (* freshly allocated dst is already zeroed, as the kernels require *)
  mm3 Kr.matmul Kc.matmul a b dst m k n;
  dst

let matmul_nt a b =
  if a.cols <> b.cols then shape_fail "matmul_nt" a b;
  let m = a.rows and k = a.cols and n = b.rows in
  let dst = zeros_as a m n in
  mm3 Kr.matmul_nt Kc.matmul_nt a b dst m k n;
  dst

let transpose t =
  let dst = zeros_as t t.cols t.rows in
  t2 Kr.transpose Kc.transpose t dst t.rows t.cols;
  dst

let dot a b =
  if a.rows <> b.rows || a.cols <> b.cols then shape_fail "dot" a b;
  match (a.store, b.store) with
  | F x, F y -> Kr.dot x y (numel a)
  | C x, C y -> Kc.dot x y (numel a)
  | ax, by -> Kr.dot (snapshot ax) (snapshot by) (numel a)

(* {1 Reductions} *)

let sum t =
  match t.store with
  | F a -> Kr.sum a (numel t)
  | C b -> Kc.sum b (numel t)

let mean t =
  if numel t = 0 then invalid_arg "Tensor.mean: empty tensor";
  sum t /. float_of_int (numel t)

let min_value t =
  if numel t = 0 then invalid_arg "Tensor.min_value: empty tensor";
  match t.store with
  | F a -> Kr.min_value a (numel t)
  | C b -> Kc.min_value b (numel t)

let max_value t =
  if numel t = 0 then invalid_arg "Tensor.max_value: empty tensor";
  match t.store with
  | F a -> Kr.max_value a (numel t)
  | C b -> Kc.max_value b (numel t)

let sum_rows t =
  let dst = zeros_as t 1 t.cols in
  t2 Kr.sum_rows Kc.sum_rows t dst t.rows t.cols;
  dst

let argmax_rows t =
  if t.cols = 0 then invalid_arg "Tensor.argmax_rows: zero columns";
  match t.store with
  | F a -> Kr.argmax_rows a t.rows t.cols
  | C b -> Kc.argmax_rows b t.rows t.cols

(* {1 Assembly} *)

let concat_cols a b =
  if a.rows <> b.rows then shape_fail "concat_cols" a b;
  let dst = zeros_as a a.rows (a.cols + b.cols) in
  for r = 0 to a.rows - 1 do
    sblit a.store (r * a.cols) dst.store (r * dst.cols) a.cols;
    sblit b.store (r * b.cols) dst.store ((r * dst.cols) + a.cols) b.cols
  done;
  dst

let concat_rows a b =
  if a.cols <> b.cols then shape_fail "concat_rows" a b;
  let dst = zeros_as a (a.rows + b.rows) a.cols in
  sblit a.store 0 dst.store 0 (numel a);
  sblit b.store 0 dst.store (numel a) (numel b);
  dst

let slice_rows t start len =
  if start < 0 || len < 0 || start + len > t.rows then
    invalid_arg
      (Printf.sprintf "Tensor.slice_rows: [%d,%d) out of %d rows" start
         (start + len) t.rows);
  let dst = zeros_as t len t.cols in
  sblit t.store (start * t.cols) dst.store 0 (len * t.cols);
  dst

let slice_cols t start len =
  if start < 0 || len < 0 || start + len > t.cols then
    invalid_arg
      (Printf.sprintf "Tensor.slice_cols: [%d,%d) out of %d cols" start
         (start + len) t.cols);
  let dst = zeros_as t t.rows len in
  for r = 0 to t.rows - 1 do
    sblit t.store ((r * t.cols) + start) dst.store (r * len) len
  done;
  dst

let take_rows t idx =
  let dst = zeros_as t (Array.length idx) t.cols in
  Array.iteri
    (fun r src ->
      if src < 0 || src >= t.rows then
        invalid_arg "Tensor.take_rows: index out of range";
      sblit t.store (src * t.cols) dst.store (r * t.cols) t.cols)
    idx;
  dst

(* {1 In-place (destination-passing) kernels} *)

let shape_check_dst name dst rows cols =
  if dst.rows <> rows || dst.cols <> cols then
    invalid_arg
      (Printf.sprintf "Tensor.%s: dst shape %s, expected %s" name
         (shape_string dst.rows dst.cols)
         (shape_string rows cols))

let fill t v = sfill t.store 0 (numel t) v

let blit ~src ~dst =
  if src.rows <> dst.rows || src.cols <> dst.cols then shape_fail "blit" src dst;
  sblit src.store 0 dst.store 0 (numel src)

let map_into f a ~dst =
  shape_check_dst "map_into" dst a.rows a.cols;
  map_disp f a dst (numel a)

let add_into a b ~dst =
  binop_check "add_into" a b;
  shape_check_dst "add_into" dst a.rows a.cols;
  ew2 Kr.add Kc.add a b dst (numel a)

let sub_into a b ~dst =
  binop_check "sub_into" a b;
  shape_check_dst "sub_into" dst a.rows a.cols;
  ew2 Kr.sub Kc.sub a b dst (numel a)

let mul_into a b ~dst =
  binop_check "mul_into" a b;
  shape_check_dst "mul_into" dst a.rows a.cols;
  ew2 Kr.mul Kc.mul a b dst (numel a)

let div_into a b ~dst =
  binop_check "div_into" a b;
  shape_check_dst "div_into" dst a.rows a.cols;
  ew2 Kr.div Kc.div a b dst (numel a)

let neg_into a ~dst =
  shape_check_dst "neg_into" dst a.rows a.cols;
  ew1 Kr.neg Kc.neg a dst (numel a)

let scale_into k a ~dst =
  shape_check_dst "scale_into" dst a.rows a.cols;
  ew1 (Kr.scale k) (Kc.scale k) a dst (numel a)

let add_scalar_into k a ~dst =
  shape_check_dst "add_scalar_into" dst a.rows a.cols;
  ew1 (Kr.add_scalar k) (Kc.add_scalar k) a dst (numel a)

let add_rowvec_into m v ~dst =
  rowvec_check "add_rowvec_into" m v;
  shape_check_dst "add_rowvec_into" dst m.rows m.cols;
  bc2 Kr.add_rowvec Kc.add_rowvec m v dst m.rows m.cols

let mul_rowvec_into m v ~dst =
  rowvec_check "mul_rowvec_into" m v;
  shape_check_dst "mul_rowvec_into" dst m.rows m.cols;
  bc2 Kr.mul_rowvec Kc.mul_rowvec m v dst m.rows m.cols

let broadcast_rowvec_into v ~dst =
  (* each dst row := v; bit-identical to [mul_rowvec (ones …) v]
     (1.0 *. x = x for every float, including signed zeros) *)
  if v.rows <> 1 || v.cols <> dst.cols then shape_fail "broadcast_rowvec_into" dst v;
  for r = 0 to dst.rows - 1 do
    sblit v.store 0 dst.store (r * dst.cols) dst.cols
  done

let matmul_into a b ~dst =
  if a.cols <> b.rows then shape_fail "matmul_into" a b;
  let m = a.rows and k = a.cols and n = b.cols in
  shape_check_dst "matmul_into" dst m n;
  sfill dst.store 0 (m * n) 0.0;
  mm3 Kr.matmul Kc.matmul a b dst m k n

let matmul_nt_into a b ~dst =
  if a.cols <> b.cols then shape_fail "matmul_nt_into" a b;
  let m = a.rows and k = a.cols and n = b.rows in
  shape_check_dst "matmul_nt_into" dst m n;
  mm3 Kr.matmul_nt Kc.matmul_nt a b dst m k n

let transpose_into t ~dst =
  shape_check_dst "transpose_into" dst t.cols t.rows;
  t2 Kr.transpose Kc.transpose t dst t.rows t.cols

let sum_rows_into t ~dst =
  shape_check_dst "sum_rows_into" dst 1 t.cols;
  sfill dst.store 0 t.cols 0.0;
  t2 Kr.sum_rows Kc.sum_rows t dst t.rows t.cols

let slice_cols_into t start len ~dst =
  if start < 0 || len < 0 || start + len > t.cols then
    invalid_arg
      (Printf.sprintf "Tensor.slice_cols_into: [%d,%d) out of %d cols" start
         (start + len) t.cols);
  shape_check_dst "slice_cols_into" dst t.rows len;
  for r = 0 to t.rows - 1 do
    sblit t.store ((r * t.cols) + start) dst.store (r * len) len
  done

let slice_rows_into t start len ~dst =
  if start < 0 || len < 0 || start + len > t.rows then
    invalid_arg
      (Printf.sprintf "Tensor.slice_rows_into: [%d,%d) out of %d rows" start
         (start + len) t.rows);
  shape_check_dst "slice_rows_into" dst len t.cols;
  sblit t.store (start * t.cols) dst.store 0 (len * t.cols)

let embed_cols_into src start ~dst =
  (* dst := 0 everywhere except columns [start, start + cols src), which
     receive src — the scatter used by the slice_cols gradient. *)
  if src.rows <> dst.rows || start < 0 || start + src.cols > dst.cols then
    shape_fail "embed_cols_into" src dst;
  fill dst 0.0;
  for r = 0 to src.rows - 1 do
    sblit src.store (r * src.cols) dst.store ((r * dst.cols) + start) src.cols
  done

let embed_rows_into src start ~dst =
  if src.cols <> dst.cols || start < 0 || start + src.rows > dst.rows then
    shape_fail "embed_rows_into" src dst;
  fill dst 0.0;
  sblit src.store 0 dst.store (start * dst.cols) (src.rows * dst.cols)

let concat_cols_into a b ~dst =
  if a.rows <> b.rows then shape_fail "concat_cols_into" a b;
  shape_check_dst "concat_cols_into" dst a.rows (a.cols + b.cols);
  for r = 0 to a.rows - 1 do
    sblit a.store (r * a.cols) dst.store (r * dst.cols) a.cols;
    sblit b.store (r * b.cols) dst.store ((r * dst.cols) + a.cols) b.cols
  done

let concat_rows_into a b ~dst =
  if a.cols <> b.cols then shape_fail "concat_rows_into" a b;
  shape_check_dst "concat_rows_into" dst (a.rows + b.rows) a.cols;
  sblit a.store 0 dst.store 0 (numel a);
  sblit b.store 0 dst.store (numel a) (numel b)

(* {1 Nonlinearity and training-path kernels}

   These belong to the backend because the autodiff tape and the optimizer
   run them on backend-owned storage; routing them through here keeps raw
   buffers from leaking out of lib/tensor. *)

type unop = TB.unop = Tanh | Sigmoid | Exp | Log | Sqrt | Relu | Abs

let unop_into op a ~dst =
  shape_check_dst "unop_into" dst a.rows a.cols;
  ew1 (Kr.unary op) (Kc.unary op) a dst (numel a)

let unop_bwd_into op ~x ~y ~g ~dst =
  binop_check "unop_bwd_into" x y;
  binop_check "unop_bwd_into" x g;
  shape_check_dst "unop_bwd_into" dst x.rows x.cols;
  let n = numel x in
  match (x.store, y.store, g.store, dst.store) with
  | F xb, F yb, F gb, F db -> Kr.unary_bwd op ~x:xb ~y:yb ~g:gb ~s:db n
  | C xb, C yb, C gb, C db -> Kc.unary_bwd op ~x:xb ~y:yb ~g:gb ~s:db n
  | xs, ys, gs, ds ->
      let d = Array.make n 0.0 in
      Kr.unary_bwd op ~x:(snapshot xs) ~y:(snapshot ys) ~g:(snapshot gs) ~s:d n;
      load_into ds d

let softmax_rows_into m ~dst =
  shape_check_dst "softmax_rows_into" dst m.rows m.cols;
  t2 Kr.softmax_rows Kc.softmax_rows m dst m.rows m.cols

let ce_loss_sum probs labels =
  binop_check "ce_loss_sum" probs labels;
  match (probs.store, labels.store) with
  | F p, F y -> Kr.ce_loss_sum p y (numel probs)
  | C p, C y -> Kc.ce_loss_sum p y (numel probs)
  | ps, ys -> Kr.ce_loss_sum (snapshot ps) (snapshot ys) (numel probs)

let sgd_step ~lr ~grad value =
  binop_check "sgd_step" value grad;
  let n = numel value in
  match (value.store, grad.store) with
  | F v, F g -> Kr.sgd_step ~lr ~grad:g ~value:v n
  | C v, C g -> Kc.sgd_step ~lr ~grad:g ~value:v n
  | vs, gs ->
      (* snapshot of an F store is the live array, so Kr updates it in
         place; a C store needs the result loaded back *)
      let v = snapshot vs in
      Kr.sgd_step ~lr ~grad:(snapshot gs) ~value:v n;
      (match vs with F _ -> () | C b -> Kc.load b v)

let adam_step ~lr ~beta1 ~beta2 ~eps ~bc1 ~bc2 ~m ~v ~grad value =
  binop_check "adam_step" value grad;
  let n = numel value in
  if Array.length m <> n || Array.length v <> n then
    invalid_arg "Tensor.adam_step: moment length mismatch";
  match (value.store, grad.store) with
  | F vb, F gb ->
      Kr.adam_step ~lr ~beta1 ~beta2 ~eps ~bc1 ~bc2 ~m ~v ~grad:gb ~value:vb n
  | C vb, C gb ->
      Kc.adam_step ~lr ~beta1 ~beta2 ~eps ~bc1 ~bc2 ~m ~v ~grad:gb ~value:vb n
  | vs, gs ->
      let vb = snapshot vs in
      Kr.adam_step ~lr ~beta1 ~beta2 ~eps ~bc1 ~bc2 ~m ~v ~grad:(snapshot gs)
        ~value:vb n;
      (match vs with F _ -> () | C b -> Kc.load b vb)

(* {1 Fused hot-path entry points}

   Each runs the C backend's fused kernel when every operand lives on C;
   otherwise it runs the exact kernel sequence the fused stub replicates,
   so both routes are bit-identical on a given backend. *)

let matmul_bias_unop_into ?op x w b ~pre ~out =
  if x.cols <> w.rows then shape_fail "matmul_bias_unop_into" x w;
  let m = x.rows and k = x.cols and n = w.cols in
  if b.rows <> 1 || b.cols <> n then shape_fail "matmul_bias_unop_into" w b;
  shape_check_dst "matmul_bias_unop_into" pre m n;
  shape_check_dst "matmul_bias_unop_into" out m n;
  match (x.store, w.store, b.store, pre.store, out.store) with
  | C xb, C wb, C bb, C pb, C ob ->
      Kc.matmul_bias_unop op ~x:xb ~w:wb ~b:bb ~pre:pb ~out:ob m k n
  | _ -> (
      matmul_into x w ~dst:pre;
      (* elementwise broadcast: dst aliasing the matrix operand is legal *)
      add_rowvec_into pre b ~dst:pre;
      match op with
      | Some u -> unop_into u pre ~dst:out
      | None -> if not (out == pre) then blit ~src:pre ~dst:out)

let adam_step_many ~lr ~beta1 ~beta2 ~eps ~bc1 ~bc2 items =
  List.iter
    (fun (value, grad, m, v) ->
      binop_check "adam_step_many" value grad;
      if Array.length m <> numel value || Array.length v <> numel value then
        invalid_arg "Tensor.adam_step_many: moment length mismatch")
    items;
  let all_c =
    List.for_all
      (fun (value, grad, _, _) ->
        match (value.store, grad.store) with
        | C _, C _ -> true
        | _ -> false)
      items
  in
  if all_c then
    Kc.adam_step_many ~lr ~beta1 ~beta2 ~eps ~bc1 ~bc2
      (Array.of_list
         (List.map
            (fun (value, grad, m, v) ->
              match (value.store, grad.store) with
              | C vb, C gb -> (vb, gb, m, v, numel value)
              | _ -> assert false)
            items))
  else
    List.iter
      (fun (value, grad, m, v) ->
        adam_step ~lr ~beta1 ~beta2 ~eps ~bc1 ~bc2 ~m ~v ~grad value)
      items

(* {1 Comparison and printing} *)

let equal ?(eps = 0.0) a b =
  a.rows = b.rows && a.cols = b.cols
  && begin
       (* [not (|x - y| <= eps)] instead of [|x - y| > eps]: a NaN difference
          fails both comparisons, so any NaN entry makes the tensors unequal
          (IEEE semantics) instead of silently comparing as equal. *)
       let ok = ref true in
       let n = numel a in
       for i = 0 to n - 1 do
         if not (Float.abs (sget a.store i -. sget b.store i) <= eps) then
           ok := false
       done;
       !ok
     end

let pp fmt t =
  Format.fprintf fmt "@[<v>tensor %dx%d" t.rows t.cols;
  for r = 0 to Stdlib.min (t.rows - 1) 7 do
    Format.fprintf fmt "@,[";
    for c = 0 to Stdlib.min (t.cols - 1) 9 do
      Format.fprintf fmt "%s%.5g" (if c > 0 then "; " else "") (get t r c)
    done;
    if t.cols > 10 then Format.fprintf fmt "; ...";
    Format.fprintf fmt "]"
  done;
  if t.rows > 8 then Format.fprintf fmt "@,...";
  Format.fprintf fmt "@]"

let to_string t = Format.asprintf "%a" pp t
