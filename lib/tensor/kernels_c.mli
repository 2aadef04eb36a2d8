(** C-stub kernel backend — vectorized foreign stubs on flat Float64 storage.

    Flat c_layout [Bigarray.Array1] storage; the kernels run in C
    (pnn_kernels_stubs.c, compiled -O2 -fno-fast-math -ffp-contract=off).
    Per-element kernels are bit-identical to the reference backend; the
    matmul family re-associates deterministically (pinned by output digests
    in the backend test suite) behind its own +c64 cache tag.  Under
    PNN_CHECKED=1 every stub call is preceded by an O(1) length assertion
    per buffer that raises [Invalid_argument]; the stub itself is the same
    in both modes.  Only the dispatch layer in {!Tensor} may call these
    directly (pnnlint R6 enforces the boundary outside [lib/tensor]). *)

include
  Tensor_backend.KERNELS
    with type buf =
      (float, Bigarray.float64_elt, Bigarray.c_layout) Bigarray.Array1.t

val matmul_bias_unop :
  Tensor_backend.unop option ->
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
