(** Dense 2-D float tensors.

    Every value is a row-major matrix of shape [rows × cols]; vectors are
    represented as [1 × n] row matrices.  All binary operations check shapes
    and raise [Invalid_argument] with the offending shapes on mismatch — the
    autodiff layer and the pNN rely on these checks to catch wiring mistakes
    early.

    Storage is one flat c_layout [Bigarray.Array1] [float64] buffer per
    tensor, and every operation runs a {!Kernels_c} kernel: vectorized C
    foreign stubs compiled [-O2 -fno-fast-math -ffp-contract=off], so float
    semantics stay IEEE-strict.  The kernels' outputs, signed zeros
    included, match a plain [float array] oracle kept with the tests
    (test/oracle.ml; see docs/INTERNALS.md) bit for bit wherever the
    oracle's output is not NaN, and are NaN exactly where it is NaN.

    Every kernel refuses out-of-bounds work with [Invalid_argument] instead
    of touching memory: the C wrappers assert every buffer's length before
    the stub runs. *)

type t

(** {1 Construction} *)

val create : int -> int -> float array -> t
(** [create rows cols data] builds a tensor from a copy of [data] (length
    must equal [rows * cols]); later writes to [data] do not reach the
    tensor. *)

val zeros : int -> int -> t
val ones : int -> int -> t

val init : int -> int -> (int -> int -> float) -> t
(** [init rows cols f] with [f row col] supplying each element; [f] is called
    in row-major order (RNG-backed constructors rely on the draw order). *)

val scalar : float -> t
(** A [1 × 1] tensor. *)

val of_array : float array -> t
(** Row vector [1 × n] sharing no storage with the argument. *)

val of_arrays : float array array -> t
(** Matrix from rows; all rows must have equal length. *)

val copy : t -> t
(** Deep copy. *)

val uniform : Rng.t -> int -> int -> lo:float -> hi:float -> t

(** {1 Access} *)

val rows : t -> int
val cols : t -> int
val numel : t -> int
val shape : t -> int * int
val get : t -> int -> int -> float
val set : t -> int -> int -> float -> unit

val to_array : t -> float array
(** Fresh copy of the underlying data, row-major (never a live view). *)

val to_arrays : t -> float array array

(** {1 Elementwise} *)

val map : (float -> float) -> t -> t
val add : t -> t -> t
val sub : t -> t -> t
val mul : t -> t -> t
(** Hadamard product. *)

val neg : t -> t
val scale : float -> t -> t

(** {1 Broadcast helpers} *)

val add_rowvec : t -> t -> t
(** [add_rowvec m v] adds the [1 × cols] vector [v] to every row of [m]. *)

val mul_rowvec : t -> t -> t

(** {1 Linear algebra} *)

val matmul : t -> t -> t
val dot : t -> t -> float
(** Inner product of two tensors of identical shape. *)

(** {1 Reductions} *)

val sum : t -> float
val mean : t -> float

val argmax_rows : t -> int array
(** Index of the maximum entry of each row, first maximum winning (strict
    [>] against the incumbent).  A NaN never displaces the incumbent (strict
    comparison is false), but a leading NaN at column 0 becomes an incumbent
    that nothing displaces — so [argmax] of a row starting with NaN is [0].
    [-0.0] does not displace [0.0] (they compare equal). *)

(** {1 Assembly} *)

val concat_rows : t -> t -> t
(** Vertical concatenation of matrices with equal column counts. *)

val slice_rows : t -> int -> int -> t
(** [slice_rows m start len]. *)

val take_rows : t -> int array -> t
(** Gather rows by index (used for dataset splits). *)

(** {1 In-place (destination-passing) kernels}

    Allocation-free counterparts of the operations above: each [*_into]
    kernel writes its result into [dst] and performs the {e exact same
    floating-point operations in the exact same order} as the allocating
    version, so results are bit-identical — the autodiff scratch buffers and
    the variation-aware training hot path rely on this for determinism.

    Aliasing convention: elementwise kernels ([add_into], [sub_into],
    [mul_into], [neg_into], [scale_into] and the [*_rowvec_into]
    broadcasts) read and write only index [i] (resp. [(r, c)]) at a time,
    so [dst] may alias an input.  All other kernels (matmul, transpose,
    slices, embeds, concats, reductions) require [dst] to be distinct from
    every input; aliasing them is undefined (and not checked).

    All kernels raise [Invalid_argument] if [dst] has the wrong shape. *)

val fill : t -> float -> unit
(** Set every entry. *)

val blit : src:t -> dst:t -> unit
(** Copy [src] into [dst] (same shape). *)

val blit_changed : src:t -> dst:t -> bool
(** As {!blit}, and reports whether any element's IEEE bit pattern changed
    (so [-0.0] over [0.0] and one NaN payload over another count as
    changes).  Allocation-free; lets a caller skip recomputing what depends
    only on [dst]. *)

val blit_rows : src:t -> int -> dst:t -> int -> int -> unit
(** [blit_rows ~src i ~dst j n] copies rows [\[i, i + n)] of [src] over rows
    [\[j, j + n)] of [dst] (same column count); [src] and [dst] must be
    distinct.  Raises [Invalid_argument] on a range outside either tensor. *)

val read_into : t -> float array -> unit
(** [read_into t a] copies [t]'s elements, row-major, into [a] (of length
    [numel t]) without allocating — for code that runs a small formula on
    plain floats. *)

val write_from : float array -> t -> unit
(** [write_from a t] is the converse of {!read_into}. *)

val add_into : t -> t -> dst:t -> unit
val sub_into : t -> t -> dst:t -> unit
val mul_into : t -> t -> dst:t -> unit
val neg_into : t -> dst:t -> unit
val scale_into : float -> t -> dst:t -> unit

val add_rowvec_into : t -> t -> dst:t -> unit
val mul_rowvec_into : t -> t -> dst:t -> unit

val matmul_into : t -> t -> dst:t -> unit

val matmul_nt_into : t -> t -> dst:t -> unit
(** [matmul_nt_into a b ~dst] is [a · bᵀ] (requires [cols a = cols b])
    without materializing the transpose.  Used on the autodiff matmul
    backward path. *)

val transpose_into : t -> dst:t -> unit

val sum_rows_into : t -> dst:t -> unit
(** Column-wise sum; [dst] is [1 × cols]. *)

val slice_rows_into : t -> int -> int -> dst:t -> unit

val embed_rows_into : t -> int -> dst:t -> unit
(** [embed_rows_into src start ~dst]: [dst] := zeros except rows
    [start, start + rows src) := [src] — the scatter adjoint of
    {!slice_rows}. *)

val concat_rows_into : t -> t -> dst:t -> unit

(** {1 Nonlinearity and training-path kernels}

    Kernels for the autodiff tape and the optimizer.  Routing them through
    this module keeps raw buffers from escaping [lib/tensor] (pnnlint R6). *)

type unop = Kernels_c.unop = Tanh | Sigmoid | Relu

val unop_into : unop -> t -> dst:t -> unit
(** Forward nonlinearity, elementwise ([dst] may alias the input). *)

val unop_bwd_into : unop -> x:t -> y:t -> g:t -> dst:t -> unit
(** Backward pass of [unop]: [dst.(i) := g.(i) * d/dx op] evaluated from the
    forward input [x] and output [y] (each formula reads whichever is
    cheaper, e.g. tanh uses [y], relu uses [x]).  [dst] may alias [g]. *)

val ptanh_into : eta:t -> t -> h:t -> dst:t -> unit
(** [ptanh_into ~eta v ~h ~dst] is the paper's Eq. 2 for a 4-element
    [eta = [η1; η2; η3; η4]]: [dst := η1 + η2·tanh((v − η3)·η4)] elementwise,
    with [h := tanh((v − η3)·η4)] kept for {!ptanh_bwd_into}.  Bit-identical
    (NaN where it has a NaN) to the elementwise steps [(−η3) + v],
    [η4 · _], tanh, [η2 · _], [η1 + _] in that order.  Raises [Invalid_argument] when [h] or [dst] shares
    storage with another operand: both are kept for the backward pass. *)

val ptanh_bwd_into : eta:t -> t -> h:t -> g:t -> dv:t -> deta:t -> unit
(** Backward of {!ptanh_into} for the output gradient [g]: [dv] gets [v]'s
    share and [deta] (shaped like [eta]) the four η shares — the values the
    node-by-node graph of the same formula accumulated, bit for bit.
    Raises [Invalid_argument] when [dv] or [deta] shares storage with
    another operand: the η shares read [g] after [dv] is written. *)

val crossbar_into :
  x:t -> eta:t -> cond:t -> h:t -> inv_x:t -> num:t -> dst:t -> unit
(** The crossbar of the paper's Eq. 1 for an [m × k] input [x] (without
    its bias column) and packed conductances [cond] of shape
    [(2(k + 1) + 1) × n] — θ⁺'s [k + 1] rows (inputs, then bias), θ⁻'s,
    then the denominator row: [dst := ([x 1]·θ⁺ + inv·θ⁻) / den] row by
    row, with [inv := −ptanh(eta, [x 1])] kept in [inv_x] and its tanh in
    [h] (both [m × (k + 1)], bias column included) and the numerator in
    [num], for {!crossbar_bwd_into}.  Bit-identical to the kernel sequence
    it replaced: {!ptanh_into} on the bias-augmented input,
    {!neg_into}, [1 / den], two {!matmul_into}, {!add_into},
    {!mul_rowvec_into}.  Raises [Invalid_argument] when an output ([h],
    [inv_x], [num], [dst]) shares storage with another operand: the
    [x·θ⁺] product reads [x] after [h] and [inv_x] are written. *)

val crossbar_bwd_into :
  x:t ->
  eta:t ->
  cond:t ->
  h:t ->
  inv_x:t ->
  num:t ->
  g:t ->
  gnum:t ->
  dx:t option ->
  deta:t ->
  dcond:t ->
  unit
(** Backward of {!crossbar_into} for the output gradient [g] ([m × n]),
    with the forward's [h], [inv_x] and [num]: [gnum] gets the numerator's
    gradient (a workspace, [m × n]), [deta] (shaped like [eta]) the four η
    shares, [dcond] (shaped like [cond]) the conductances' gradient and
    [dx], when given, x's share — the values the node-by-node graph
    accumulated, bit for bit.  Raises [Invalid_argument] when an output
    ([gnum], [dx], [deta], [dcond]) shares storage with another operand:
    the last pass reads [x], [inv_x] and [gnum] after [dx] and [dcond] are
    written. *)

val softmax_rows_into : t -> dst:t -> unit
(** Numerically-stable row-wise softmax (max-shifted); [dst] must not alias
    the input. *)

val ce_loss_sum : t -> t -> float
(** [ce_loss_sum probs labels] is the {e summed} cross-entropy
    [-Σ y·log p] over the entries with [y > 0], a [p] below [1e-30] read as
    [1e-30]; callers divide by the batch size for the mean.  A NaN [p] at
    such an entry makes the sum NaN. *)

(** {1 Fused hot-path kernels}

    Single-call fusions of the dominant kernel sequences, bit-identical to
    the kernel sequences they replace: the fusion only removes dispatch and
    loop-restart overhead, never changes float operations or their
    order. *)

val matmul_bias_unop_into : ?op:unop -> t -> t -> t -> pre:t -> out:t -> unit
(** [matmul_bias_unop_into ?op x w b ~pre ~out] is the dense-layer forward:
    [pre := x·w +rowvec b], then [out := op pre] (with [?op] absent, [out]
    becomes a copy of [pre]; passing [out == pre] skips the copy).  [pre]
    and [out] must not alias [x], [w] or [b]; [out] may alias [pre]. *)

val adam_step_many :
  lr:float ->
  beta1:float ->
  beta2:float ->
  eps:float ->
  bc1:float ->
  bc2:float ->
  (t * t * float array * float array) list ->
  unit
(** One Adam update in place over every [(value, grad, m, v)] parameter
    leaf, in one kernel invocation; [m]/[v] are the caller-owned
    first/second-moment buffers and [bc1]/[bc2] the bias corrections
    [1 - betaᵢ^t]. *)

(** {1 Comparison} *)

(** [equal ?eps a b] is shape equality plus entrywise [|a - b| <= eps]
    (default exact).  Any NaN entry on either side makes the result [false]
    (IEEE comparison semantics): a NaN never equals anything, including
    another NaN. *)
val equal : ?eps:float -> t -> t -> bool
