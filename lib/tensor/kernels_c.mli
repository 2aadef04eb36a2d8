(** The tensor kernels — vectorized C foreign stubs on flat Float64 storage.

    Flat c_layout [Bigarray.Array1] storage; the kernels run in C
    (pnn_kernels_stubs.c, compiled -O2 -fno-fast-math -ffp-contract=off).
    Only {!Tensor} may call these directly (pnnlint R6 enforces the boundary
    outside [lib/tensor]).  Contracts:

    - Shape validation happens in {!Tensor}; a kernel may assume every
      index it derives from the stated dimensions is in range.  Each wrapper
      still asserts, in O(1) per buffer, that every buffer holds the
      elements the stub will touch, so an out-of-range access always raises
      [Invalid_argument] before the stub runs.
    - Elementwise kernels ([add] … [map], [unary]) read and write index [i]
      only, so the destination may alias an input.
    - [matmul] overwrites its destination; [sum_rows] accumulates into a
      destination the caller has pre-zeroed.
    - Every kernel returns the bits of a plain [float array] loop nest — the
      oracle in test/oracle.ml, which replays the operations of the
      pre-kernel tensor/autodiff/optimizer code in their order — NaN
      payloads and signed zeros included.  The kernels may reorder loops
      and vectorize, but each output must come out as the oracle computes
      it.  The NaN/−0.0 contracts ([min_value]/[max_value] fold IEEE
      comparisons left-to-right so an unordered pair keeps the second
      operand; [argmax_rows] keeps the first strict maximum and never
      displaces the incumbent on an unordered compare) are part of that.
      The test suite pins both the oracle and these kernels to digests of
      the same special-value table. *)

type buf = (float, Bigarray.float64_elt, Bigarray.c_layout) Bigarray.Array1.t

(** Unary nonlinearities, applied by {!unary}/{!unary_bwd} and the fused
    dense forward. *)
type unop = Tanh | Sigmoid | Relu

(** {1 Storage} *)

val create : int -> buf
(** Zero-filled buffer whose data starts on a 64-byte boundary.  Raises
    [Invalid_argument] on a negative length.  Its data lives only as long
    as the buffer itself, so no Bigarray sub-array may be taken of it. *)

val get : buf -> int -> float
val set : buf -> int -> float -> unit
val fill : buf -> pos:int -> len:int -> float -> unit
val blit : buf -> int -> buf -> int -> int -> unit

val blit_changed : buf -> buf -> int -> bool
(** [blit_changed src dst n] copies the first [n] elements of [src] over
    [dst] when some element differs in its 64-bit pattern, and returns
    whether one did: -0.0 differs from +0.0, NaN payloads count, and
    signalling NaNs are copied as they are. *)

val of_float_array : float array -> buf
(** Copies. *)

val to_float_array : buf -> float array
(** Copies. *)

val load : buf -> float array -> unit
(** [load buf a] copies [a] (same length) into [buf]. *)

(** {1 Elementwise} *)

val add : buf -> buf -> buf -> int -> unit
val sub : buf -> buf -> buf -> int -> unit
val mul : buf -> buf -> buf -> int -> unit
val div : buf -> buf -> buf -> int -> unit
val neg : buf -> buf -> int -> unit
val scale : float -> buf -> buf -> int -> unit
val add_scalar : float -> buf -> buf -> int -> unit
val map : (float -> float) -> buf -> buf -> int -> unit

(** {1 Broadcasts} ([rows cols] trailing arguments) *)

val add_rowvec : buf -> buf -> buf -> int -> int -> unit
val mul_rowvec : buf -> buf -> buf -> int -> int -> unit

(** {1 Linear algebra} ([m k n] = rows a, cols a, cols out) *)

val matmul : buf -> buf -> buf -> int -> int -> int -> unit
val matmul_nt : buf -> buf -> buf -> int -> int -> int -> unit

val set_wide_tiles : bool -> bool
(** The matmul kernels ([matmul], the fused dense forward, the crossbar's
    two products) run their n ≥ 8 tiles, and the tanh kernels ([unary]
    Tanh, [ptanh], the crossbar's inv(x)) and [Fmath.tanh_array] run
    Fmath's array tanh, on 256-bit vectors where the CPU has AVX2, chosen
    once when the process starts, and on 128-bit vectors elsewhere; both
    give the same bits.  [set_wide_tiles wide] selects the 256-bit bodies
    when [wide] holds and the CPU has AVX2, the 128-bit ones otherwise, and
    returns whether the 256-bit bodies are now in use.  For tests that run
    every matmul and tanh check through both bodies; it must not be called
    while another domain may be running a kernel. *)

val transpose : buf -> buf -> int -> int -> unit

(** {1 Reductions} *)

val dot : buf -> buf -> int -> float
val sum : buf -> int -> float
val min_value : buf -> int -> float
val max_value : buf -> int -> float
val sum_rows : buf -> buf -> int -> int -> unit
val argmax_rows : buf -> int -> int -> int array

(** {1 Nonlinearities and training-path kernels} *)

val unary : unop -> buf -> buf -> int -> unit
val unary_bwd : unop -> x:buf -> y:buf -> g:buf -> s:buf -> int -> unit

val ptanh : eta:buf -> v:buf -> h:buf -> out:buf -> int -> unit
(** ptanh (paper Eq. 2) for one 4-element η: [out := η1 + η2·tanh((v − η3)·η4)],
    keeping the tanh in [h]. *)

val ptanh_bwd :
  eta:buf -> v:buf -> h:buf -> g:buf -> dv:buf -> deta:buf -> int -> unit
(** Writes v's gradient share to [dv] and η's four shares to [deta].  Both
    ptanh kernels replay the operation sequence and operand order of the
    node-by-node graph they replaced (see test/oracle.ml). *)

val crossbar :
  x:buf -> eta:buf -> cond:buf -> h:buf -> inv_x:buf -> num:buf -> out:buf -> int -> int ->
  int -> unit
(** The crossbar (paper Eq. 1) over [m k n]: [x] is the m × k input
    without its bias column, [cond] the packed conductances (θ⁺'s and θ⁻'s
    k + 1 rows each, then the denominator row: (2(k + 1) + 1) × n).  Writes
    inv(x) = −ptanh(η, [x 1]) to [inv_x] with its tanh in [h] (both
    m × (k + 1), bias column included), the numerator
    [x 1]·θ⁺ + inv(x)·θ⁻ to [num] and the normalised output to [out]. *)

val crossbar_bwd :
  x:buf ->
  eta:buf ->
  cond:buf ->
  h:buf ->
  inv_x:buf ->
  num:buf ->
  g:buf ->
  gnum:buf ->
  want_dx:bool ->
  dx:buf ->
  deta:buf ->
  dcond:buf ->
  int ->
  int ->
  int ->
  unit
(** Takes the output's gradient [g] and writes the numerator's gradient to
    the m × n workspace [gnum], η's four shares to [deta], the
    conductances' to [dcond] and, when [want_dx], x's to [dx].  Both
    crossbar kernels compose the oracle's kernels in the order of the
    node-by-node graph they replaced (see test/oracle.ml). *)

val softmax_rows : buf -> buf -> int -> int -> unit
val ce_loss_sum : buf -> buf -> int -> float
val sgd_step : lr:float -> grad:buf -> value:buf -> int -> unit

val adam_step :
  lr:float ->
  beta1:float ->
  beta2:float ->
  eps:float ->
  bc1:float ->
  bc2:float ->
  m:float array ->
  v:float array ->
  grad:buf ->
  value:buf ->
  int ->
  unit
(** Moment buffers [m]/[v] are optimizer-owned plain arrays (they are
    checkpointed by the optimizer codec and never enter tensor math). *)

(** {1 Fused kernels} *)

val matmul_bias_unop :
  unop option ->
  x:buf ->
  w:buf ->
  b:buf ->
  pre:buf ->
  out:buf ->
  int ->
  int ->
  int ->
  unit
(** Fused dense-layer forward over [m k n]: [pre := x·w +rowvec b] then
    [out := unop pre] ([None] leaves [out] untouched and callers use [pre];
    [out] may equal [pre]).  [pre]/[out] must not alias [x], [w] or [b].
    Bit-identical to {!matmul}, {!add_rowvec} and {!unary} in sequence. *)

val adam_step_many :
  lr:float ->
  beta1:float ->
  beta2:float ->
  eps:float ->
  bc1:float ->
  bc2:float ->
  (buf * buf * float array * float array * int) array ->
  unit
(** One call for an Adam step over every parameter leaf.  Each item is
    [(value, grad, m, v, numel)]; leaves are updated independently,
    bit-identically to per-leaf {!adam_step} calls. *)
