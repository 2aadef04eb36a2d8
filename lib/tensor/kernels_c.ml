(* The tensor kernels: flat Bigarray.Float64 storage with the kernels
   implemented as vectorized C foreign stubs in pnn_kernels_stubs.c.

   Numeric contract (see kernels_c.mli): every kernel returns the bits of
   the float array oracle in test/oracle.ml.  The per-element kernels
   perform the oracle's floating-point operations in the oracle's order —
   the stubs are compiled with -O2 -fno-fast-math -ffp-contract=off so the
   C compiler may not re-associate or contract into FMA, the stubs pin NaN
   quieting and operand order themselves, tanh is Fmath's (the oracle
   calls the same function), and exp/log resolve to the same libm the
   OCaml runtime links.  [matmul]/[matmul_nt] (and the fused
   dense forward built on the matmul core) vectorize across output columns,
   each lane accumulated in pure k order; they drop the oracle's exact-zero
   skip and its add operand order, which can only change a NaN output, and
   recompute every NaN output with the oracle's rules (the argument is in
   the stub file and docs/INTERNALS.md).

   Bounds: the stubs cannot bounds-check, so each wrapper first asserts
   that every buffer holds the elements the stub will touch ([need]),
   raising [Invalid_argument] before the stub runs.

   Closures cannot cross the FFI, so [map] is an OCaml loop; so are the cold
   edge kernels with delicate NaN/-0.0 select semantics ([min_value]/
   [max_value]/[argmax_rows]), which are not worth a C twin that would have
   to reproduce IEEE select quirks.  These loops use bounds-checked
   access. *)

open Bigarray

type buf = (float, float64_elt, c_layout) Array1.t
type unop = Tanh | Sigmoid | Relu

(* Monomorphic accessors: the polymorphic [Bigarray.Array1.get] family only
   compiles to the inline load/store when the element kind and layout are
   statically known AT THE USE SITE.  The loops below are inferred
   polymorphic before the signature constraint lands, which would silently
   send every access through the generic C path (~12x slower).  Shadowing
   with [buf]-typed externals pins the types where it matters. *)
module Array1 = struct
  include Bigarray.Array1

  external get : buf -> int -> float = "%caml_ba_ref_1"
  external set : buf -> int -> float -> unit = "%caml_ba_set_1"
end

(* {2 Storage} *)

(* SAFETY: takes unit and touches no buffer; it sets up the block
   operations [c_create] uses, and runs once, below, before any buffer
   exists or any domain is spawned. *)
external c_init_buffers : unit -> unit = "pnn_c_init_buffers_byte" "pnn_c_init_buffers"
[@@noalloc]

let () = c_init_buffers ()

(* SAFETY: allocates a fresh n-element buffer (the wrapper checks n >= 0)
   and writes only inside it; not [@@noalloc]: it allocates the Bigarray
   block. *)
external c_create : (int[@untagged]) -> buf = "pnn_c_create_byte" "pnn_c_create"

(* Zeroed storage whose data starts on a 64-byte boundary (see
   pnn_c_create); take no Bigarray sub-array of it. *)
let create n =
  if n < 0 then invalid_arg "Kernels_c.create: negative length";
  c_create n

let get = Array1.get
let set = Array1.set

let load b a =
  for i = 0 to Array.length a - 1 do
    Array1.set b i a.(i)
  done

let of_float_array a =
  let b = create (Array.length a) in
  load b a;
  b

let to_float_array b =
  let n = Array1.dim b in
  let a = Array.make n 0.0 in
  for i = 0 to n - 1 do
    a.(i) <- Array1.get b i
  done;
  a

(* {2 Foreign stubs}

   ABI: flat Float64 bigarray data pointers + explicit [@untagged]
   dimensions, [@unboxed] float scalars, no callbacks, no OCaml-heap
   allocation ([@@noalloc]); each stub has a _byte twin for the bytecode
   calling convention.  Bounds are never checked C-side: the Tensor
   layer validates shapes before each call, and every wrapper below
   asserts each buffer's length before the stub is reached. *)

(* SAFETY: the [fill]/[blit] wrappers below check that
   [pos, pos + len) lies inside each buffer; blit's memmove handles
   overlapping ranges of one buffer. *)
external c_fill : buf -> (int[@untagged]) -> (int[@untagged]) -> (float[@unboxed]) -> unit
  = "pnn_c_fill_byte" "pnn_c_fill"
[@@noalloc]

(* SAFETY: as c_fill, for the source and the destination range. *)
external c_blit :
  buf -> (int[@untagged]) -> buf -> (int[@untagged]) -> (int[@untagged]) -> unit
  = "pnn_c_blit_byte" "pnn_c_blit"
[@@noalloc]

(* SAFETY: the [blit_changed] wrapper checks that src and dst hold >= n
   elements; the stub reads both and writes dst at indices 0..n-1 only. *)
external c_blit_changed : buf -> buf -> (int[@untagged]) -> bool
  = "pnn_c_blit_changed_byte" "pnn_c_blit_changed"
[@@noalloc]

(* SAFETY: takes and returns a bool, touches no buffer; it swaps the
   function pointers the matmul and tanh stubs call, so no kernel may be
   running in another domain. *)
external c_set_wide_tiles : bool -> bool
  = "pnn_c_set_wide_tiles_byte" "pnn_c_set_wide_tiles"
[@@noalloc]

(* SAFETY: Tensor guarantees a, b and dst all have >= n elements; the stub
   touches indices 0..n-1 only, and dst may alias an input (same-index
   read/write). *)
external c_add : buf -> buf -> buf -> (int[@untagged]) -> unit
  = "pnn_c_add_byte" "pnn_c_add"
[@@noalloc]

(* SAFETY: same contract as c_add — n bounds all three buffers. *)
external c_sub : buf -> buf -> buf -> (int[@untagged]) -> unit
  = "pnn_c_sub_byte" "pnn_c_sub"
[@@noalloc]

(* SAFETY: same contract as c_add — n bounds all three buffers. *)
external c_mul : buf -> buf -> buf -> (int[@untagged]) -> unit
  = "pnn_c_mul_byte" "pnn_c_mul"
[@@noalloc]

(* SAFETY: same contract as c_add — n bounds all three buffers. *)
external c_div : buf -> buf -> buf -> (int[@untagged]) -> unit
  = "pnn_c_div_byte" "pnn_c_div"
[@@noalloc]

(* SAFETY: a and dst have >= n elements; indices 0..n-1 only; aliasing ok. *)
external c_neg : buf -> buf -> (int[@untagged]) -> unit
  = "pnn_c_neg_byte" "pnn_c_neg"
[@@noalloc]

(* SAFETY: a and dst have >= n elements; indices 0..n-1 only; aliasing ok. *)
external c_scale : (float[@unboxed]) -> buf -> buf -> (int[@untagged]) -> unit
  = "pnn_c_scale_byte" "pnn_c_scale"
[@@noalloc]

(* SAFETY: a and dst have >= n elements; indices 0..n-1 only; aliasing ok. *)
external c_add_scalar :
  (float[@unboxed]) -> buf -> buf -> (int[@untagged]) -> unit
  = "pnn_c_add_scalar_byte" "pnn_c_add_scalar"
[@@noalloc]

(* SAFETY: m and dst have >= rows*cols elements, v has >= cols; row strides
   derive from the stated dims; dst may alias m (same-index writes). *)
external c_add_rowvec :
  buf -> buf -> buf -> (int[@untagged]) -> (int[@untagged]) -> unit
  = "pnn_c_add_rowvec_byte" "pnn_c_add_rowvec"
[@@noalloc]

(* SAFETY: same contract as c_add_rowvec. *)
external c_mul_rowvec :
  buf -> buf -> buf -> (int[@untagged]) -> (int[@untagged]) -> unit
  = "pnn_c_mul_rowvec_byte" "pnn_c_mul_rowvec"
[@@noalloc]

(* SAFETY: a is m*k, b is k*n, c is m*n (validated by Tensor); c is
   overwritten and must not alias a or b. *)
external c_matmul :
  buf ->
  buf ->
  buf ->
  (int[@untagged]) ->
  (int[@untagged]) ->
  (int[@untagged]) ->
  unit = "pnn_c_matmul_byte" "pnn_c_matmul"
[@@noalloc]

(* SAFETY: a is m*k, b is n*k, c is m*n; c overwritten, no aliasing. *)
external c_matmul_nt :
  buf ->
  buf ->
  buf ->
  (int[@untagged]) ->
  (int[@untagged]) ->
  (int[@untagged]) ->
  unit = "pnn_c_matmul_nt_byte" "pnn_c_matmul_nt"
[@@noalloc]

(* SAFETY: src is rows*cols, dst is cols*rows; dst must not alias src. *)
external c_transpose : buf -> buf -> (int[@untagged]) -> (int[@untagged]) -> unit
  = "pnn_c_transpose_byte" "pnn_c_transpose"
[@@noalloc]

(* SAFETY: a and b have >= n elements; read-only. *)
external c_dot : buf -> buf -> (int[@untagged]) -> (float[@unboxed])
  = "pnn_c_dot_byte" "pnn_c_dot"
[@@noalloc]

(* SAFETY: a has >= n elements; read-only. *)
external c_sum : buf -> (int[@untagged]) -> (float[@unboxed])
  = "pnn_c_sum_byte" "pnn_c_sum"
[@@noalloc]

(* SAFETY: src is rows*cols, dst has >= cols (pre-zeroed accumulator);
   dst must not alias src. *)
external c_sum_rows :
  buf -> buf -> (int[@untagged]) -> (int[@untagged]) -> unit
  = "pnn_c_sum_rows_byte" "pnn_c_sum_rows"
[@@noalloc]

(* SAFETY: src and dst have >= n elements; op is a valid unop code (0..2,
   produced only by unop_code below); aliasing ok. *)
external c_unary : (int[@untagged]) -> buf -> buf -> (int[@untagged]) -> unit
  = "pnn_c_unary_byte" "pnn_c_unary"
[@@noalloc]

(* SAFETY: x, y, g and s all have >= n elements; op is a valid unop code;
   s may alias g (same-index read/write). *)
external c_unary_bwd :
  (int[@untagged]) -> buf -> buf -> buf -> buf -> (int[@untagged]) -> unit
  = "pnn_c_unary_bwd_byte" "pnn_c_unary_bwd"
[@@noalloc]

(* SAFETY: eta has >= 4 elements; v, h and out have >= n; h and out are
   written at index i from v's index i only (out may alias v, not h). *)
external c_ptanh : buf -> buf -> buf -> buf -> (int[@untagged]) -> unit
  = "pnn_c_ptanh_byte" "pnn_c_ptanh"
[@@noalloc]

(* SAFETY: eta and deta have >= 4 elements, v, h, g and dv >= n; dv is
   written at index i after g/h/v's index i are read (dv may alias g);
   deta is written once at the end and must not alias eta. *)
external c_ptanh_bwd :
  buf -> buf -> buf -> buf -> buf -> buf -> (int[@untagged]) -> unit
  = "pnn_c_ptanh_bwd_byte" "pnn_c_ptanh_bwd"
[@@noalloc]

(* SAFETY: for [m k n] with k1 = k + 1: x is m*k, eta has >= 4 elements,
   cond (2*k1 + 1)*n, h and inv_x m*k1, num and out m*n (Tensor checks
   the shapes); the outputs must not alias each other or an input. *)
external c_crossbar :
  buf ->
  buf ->
  buf ->
  buf ->
  buf ->
  buf ->
  buf ->
  (int[@untagged]) ->
  (int[@untagged]) ->
  (int[@untagged]) ->
  unit = "pnn_c_crossbar_byte" "pnn_c_crossbar"
[@@noalloc]

(* SAFETY: the forward's shapes, plus g and gnum m*n, dx m*k (written only
   when want_dx is nonzero), deta >= 4 and dcond (2*k1 + 1)*n; gnum, dx,
   deta and dcond must not alias each other or an input. *)
external c_crossbar_bwd :
  buf ->
  buf ->
  buf ->
  buf ->
  buf ->
  buf ->
  buf ->
  buf ->
  buf ->
  buf ->
  buf ->
  (int[@untagged]) ->
  (int[@untagged]) ->
  (int[@untagged]) ->
  (int[@untagged]) ->
  unit = "pnn_c_crossbar_bwd_byte" "pnn_c_crossbar_bwd"
[@@noalloc]

(* SAFETY: src and out are rows*cols; out may alias src (each row is fully
   read into the max scan before out's row is written... rows are processed
   independently and the exp pass reads src[c] before writing out[c], so
   same-buffer aliasing is same-index only). *)
external c_softmax_rows :
  buf -> buf -> (int[@untagged]) -> (int[@untagged]) -> unit
  = "pnn_c_softmax_rows_byte" "pnn_c_softmax_rows"
[@@noalloc]

(* SAFETY: p and y have >= n elements; read-only. *)
external c_ce_loss_sum : buf -> buf -> (int[@untagged]) -> (float[@unboxed])
  = "pnn_c_ce_loss_sum_byte" "pnn_c_ce_loss_sum"
[@@noalloc]

(* SAFETY: grad and value have >= n elements; value updated in place at
   index i from index i only. *)
external c_sgd_step : (float[@unboxed]) -> buf -> buf -> (int[@untagged]) -> unit
  = "pnn_c_sgd_step_byte" "pnn_c_sgd_step"
[@@noalloc]

(* SAFETY: m and v are float arrays of length >= n (flat unboxed doubles;
   the optimizer allocates moments at the parameter's size), grad and value
   are bigarrays of >= n elements; all updates are same-index. *)
external c_adam_step :
  (float[@unboxed]) ->
  (float[@unboxed]) ->
  (float[@unboxed]) ->
  (float[@unboxed]) ->
  (float[@unboxed]) ->
  (float[@unboxed]) ->
  float array ->
  float array ->
  buf ->
  buf ->
  (int[@untagged]) ->
  unit = "pnn_c_adam_step_byte" "pnn_c_adam_step"
[@@noalloc]

(* SAFETY: x is m*k, w is k*n, b has >= n, pre and out are m*n; pre/out
   must not alias x/w/b; out may equal pre.  op is -1 (none) or a valid
   unop code. *)
external c_matmul_bias_unop :
  (int[@untagged]) ->
  buf ->
  buf ->
  buf ->
  buf ->
  buf ->
  (int[@untagged]) ->
  (int[@untagged]) ->
  (int[@untagged]) ->
  unit = "pnn_c_matmul_bias_unop_byte" "pnn_c_matmul_bias_unop"
[@@noalloc]

(* SAFETY: each item (value, grad, m, v, numel) carries its own length:
   value/grad are bigarrays and m/v float arrays all of >= numel elements
   (Tensor builds items from same-shaped tensors and
   optimizer-allocated moments); the stub reads tuple fields of the
   immutable items array and performs same-index updates only. *)
external c_adam_step_many :
  (float[@unboxed]) ->
  (float[@unboxed]) ->
  (float[@unboxed]) ->
  (float[@unboxed]) ->
  (float[@unboxed]) ->
  (float[@unboxed]) ->
  (buf * buf * float array * float array * int) array ->
  unit = "pnn_c_adam_step_many_byte" "pnn_c_adam_step_many"
[@@noalloc]

(* {2 Length assertions} *)

(* [need n b]: [b] must hold at least [n] elements — one O(1) assertion
   per buffer, made before the stub touches anything. *)
let need n b =
  if Array1.dim b < n then
    invalid_arg
      (Printf.sprintf "Kernels_c: buffer of %d elements, kernel needs %d"
         (Array1.dim b) n)

(* {2 Kernel catalogue} *)

(* [fill]/[blit] check their ranges, as the bounds-checked OCaml loops they
   replaced did; that check stands in for [need]. *)
let range name b pos len =
  if pos < 0 || len < 0 || pos > Array1.dim b - len then
    invalid_arg
      (Printf.sprintf "Kernels_c.%s: [%d, %d) out of a buffer of %d elements" name pos
         (pos + len) (Array1.dim b))

let fill b ~pos ~len v =
  range "fill" b pos len;
  c_fill b pos len v

let blit src src_pos dst dst_pos len =
  range "blit" src src_pos len;
  range "blit" dst dst_pos len;
  c_blit src src_pos dst dst_pos len

let blit_changed src dst n =
  need n src;
  need n dst;
  c_blit_changed src dst n

let set_wide_tiles = c_set_wide_tiles

let add a b dst n =
  need n a;
  need n b;
  need n dst;
  c_add a b dst n

let sub a b dst n =
  need n a;
  need n b;
  need n dst;
  c_sub a b dst n

let mul a b dst n =
  need n a;
  need n b;
  need n dst;
  c_mul a b dst n

let div a b dst n =
  need n a;
  need n b;
  need n dst;
  c_div a b dst n

let neg a dst n =
  need n a;
  need n dst;
  c_neg a dst n

let scale k a dst n =
  need n a;
  need n dst;
  c_scale k a dst n

let add_scalar k a dst n =
  need n a;
  need n dst;
  c_add_scalar k a dst n

let map f a dst n =
  for i = 0 to n - 1 do
    Array1.set dst i (f (Array1.get a i))
  done

let add_rowvec m v dst rows cols =
  need (rows * cols) m;
  need cols v;
  need (rows * cols) dst;
  c_add_rowvec m v dst rows cols

let mul_rowvec m v dst rows cols =
  need (rows * cols) m;
  need cols v;
  need (rows * cols) dst;
  c_mul_rowvec m v dst rows cols

let matmul a b c m k n =
  need (m * k) a;
  need (k * n) b;
  need (m * n) c;
  c_matmul a b c m k n

let matmul_nt a b c m k n =
  need (m * k) a;
  need (n * k) b;
  need (m * n) c;
  c_matmul_nt a b c m k n

let transpose src dst rows cols =
  need (rows * cols) src;
  need (rows * cols) dst;
  c_transpose src dst rows cols

let dot a b n =
  need n a;
  need n b;
  c_dot a b n

let sum a n =
  need n a;
  c_sum a n

(* Monomorphic spellings of the oracle's
   [Array.fold_left Stdlib.min/max data.(0) data]: polymorphic min/max on
   floats are the IEEE selects [if acc <= x then acc else x] (resp. [>=]),
   where an unordered compare keeps [x] — so a NaN accumulator is displaced
   by the next element and a NaN element never displaces the accumulator.
   The i = 0 start replays the fold's seed element, matching the fold
   bit-for-bit (including all-NaN and -0.0/0.0 inputs). *)
let min_value b n =
  let acc = ref (Array1.get b 0) in
  for i = 0 to n - 1 do
    let x = Array1.get b i in
    acc := if !acc <= x then !acc else x
  done;
  !acc

let max_value b n =
  let acc = ref (Array1.get b 0) in
  for i = 0 to n - 1 do
    let x = Array1.get b i in
    acc := if !acc >= x then !acc else x
  done;
  !acc

let sum_rows src dst rows cols =
  need (rows * cols) src;
  need cols dst;
  c_sum_rows src dst rows cols

(* Strict [>] as in the oracle: first maximum wins; NaN never displaces
   the incumbent (and a NaN in column 0 is never displaced). *)
let argmax_rows b rows cols =
  Array.init rows (fun r ->
      let base = r * cols in
      let best = ref 0 in
      for c = 1 to cols - 1 do
        if Array1.get b (base + c) > Array1.get b (base + !best) then best := c
      done;
      !best)

(* Codes match enum pnn_unop in pnn_kernels_stubs.c (declaration order). *)
let unop_code = function Tanh -> 0 | Sigmoid -> 1 | Relu -> 2

let unary op src dst n =
  need n src;
  need n dst;
  c_unary (unop_code op) src dst n

let unary_bwd op ~x ~y ~g ~s n =
  need n x;
  need n y;
  need n g;
  need n s;
  c_unary_bwd (unop_code op) x y g s n

let ptanh ~eta ~v ~h ~out n =
  need 4 eta;
  need n v;
  need n h;
  need n out;
  c_ptanh eta v h out n

let ptanh_bwd ~eta ~v ~h ~g ~dv ~deta n =
  need 4 eta;
  need n v;
  need n h;
  need n g;
  need n dv;
  need 4 deta;
  c_ptanh_bwd eta v h g dv deta n

let crossbar ~x ~eta ~cond ~h ~inv_x ~num ~out m k n =
  let k1 = k + 1 in
  need (m * k) x;
  need 4 eta;
  need (((2 * k1) + 1) * n) cond;
  need (m * k1) h;
  need (m * k1) inv_x;
  need (m * n) num;
  need (m * n) out;
  c_crossbar x eta cond h inv_x num out m k n

let crossbar_bwd ~x ~eta ~cond ~h ~inv_x ~num ~g ~gnum ~want_dx ~dx ~deta ~dcond m k n =
  let k1 = k + 1 in
  need (m * k) x;
  need 4 eta;
  need (((2 * k1) + 1) * n) cond;
  need (m * k1) h;
  need (m * k1) inv_x;
  need (m * n) num;
  need (m * n) g;
  need (m * n) gnum;
  if want_dx then need (m * k) dx;
  need 4 deta;
  need (((2 * k1) + 1) * n) dcond;
  c_crossbar_bwd x eta cond h inv_x num g gnum dx deta dcond
    (if want_dx then 1 else 0)
    m k n

let softmax_rows src out rows cols =
  need (rows * cols) src;
  need (rows * cols) out;
  c_softmax_rows src out rows cols

let ce_loss_sum p y n =
  need n p;
  need n y;
  c_ce_loss_sum p y n

let sgd_step ~lr ~grad ~value n =
  need n grad;
  need n value;
  c_sgd_step lr grad value n

(* The moments are plain float arrays whose lengths Tensor
   checks. *)
let adam_step ~lr ~beta1 ~beta2 ~eps ~bc1 ~bc2 ~m ~v ~grad ~value n =
  need n grad;
  need n value;
  c_adam_step lr beta1 beta2 eps bc1 bc2 m v grad value n

(* {2 Fused kernels}

   Bit-identical to the decomposed kernel sequences they replace
   ([matmul] into [pre], [add_rowvec], [unary]; per-leaf [adam_step]). *)

let matmul_bias_unop op ~x ~w ~b ~pre ~out m k n =
  need (m * k) x;
  need (k * n) w;
  need n b;
  need (m * n) pre;
  need (m * n) out;
  let code = match op with None -> -1 | Some u -> unop_code u in
  c_matmul_bias_unop code x w b pre out m k n

let adam_step_many ~lr ~beta1 ~beta2 ~eps ~bc1 ~bc2 items =
  Array.iter
    (fun (value, grad, _, _, numel) ->
      need numel value;
      need numel grad)
    items;
  c_adam_step_many lr beta1 beta2 eps bc1 bc2 items
