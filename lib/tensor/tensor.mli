(** Dense 2-D float tensors.

    Every value is a row-major matrix of shape [rows × cols]; vectors are
    represented as [1 × n] row matrices.  All binary operations check shapes
    and raise [Invalid_argument] with the offending shapes on mismatch — the
    autodiff layer and the pNN rely on these checks to catch wiring mistakes
    early.

    Storage lives behind a pluggable kernel backend (see {!section:backends});
    the element type is always [float] (IEEE binary64) regardless of
    backend. *)

type t

(** {1:backends Kernel backends}

    Each tensor's flat buffer is owned by one of two kernel backends:

    - {!Reference} — plain [float array] loops, operation-for-operation
      identical to the pre-backend implementation.  The bit-identity oracle:
      golden trajectories, the determinism suite, and cached experiment
      results are pinned against it.  The default.
    - {!C64} — flat c_layout [Bigarray.Array1] [float64] storage with the
      kernels as vectorized C foreign stubs (compiled [-O2 -fno-fast-math
      -ffp-contract=off], so C float semantics stay IEEE-strict).
      Per-element kernels (elementwise, broadcasts, nonlinearities,
      reductions, optimizer steps) perform the exact same floating-point
      operations in the exact same order as the reference backend and agree
      with it bit-for-bit.  Only [matmul]/[matmul_nt] re-associate their
      accumulations and may differ in the last few ulps — deterministically:
      the same program produces bitwise-identical results run-to-run.  Also
      provides fused layer-forward / Adam kernels (used automatically by the
      autodiff and optimizer hot paths; see {!matmul_bias_unop_into}).

    Selection: [PNN_BACKEND=reference|c] in the environment (read at module
    initialization) or {!set_backend}.  The active backend decides where
    {e constructors} ({!zeros}, {!create}, {!uniform}, …) allocate;
    operations allocate their result on their {e first operand's} backend, so
    a computation stays on one backend even if the flag changes mid-run.
    Mixed-backend operands are supported (results are computed with the
    reference kernels), but the intended use is to pick one backend per
    process.  Cached experiment results are keyed by {!backend_tag} so runs
    never observe another backend's numerics. *)

type backend = Tensor_backend.id = Reference | C64

val backend : unit -> backend
(** The active backend used by constructors. *)

val set_backend : backend -> unit

val backend_of_string : string -> backend option
(** Accepts ["reference"]/["ref"] and ["c"]/["c64"]. *)

val backend_name : backend -> string
(** ["reference"] or ["c"] — inverse of {!backend_of_string}. *)

val backends : backend list
(** Every live backend, in registry order — the single source the CLI
    surfaces and the test matrix enumerate. *)

val backend_choices : string
(** The canonical names joined with ["|"] (["reference|c"]), for
    [--backend] help text and error messages. *)

val backend_tag : unit -> string
(** Short stable tag of the active backend (["ref"] / ["c64"])
    folded into cache keys so cached results never cross backends. *)

val backend_of : t -> backend
(** The backend owning this tensor's storage. *)

(** {1 Sanitizer (checked) mode}

    Setting [PNN_CHECKED=1] in the environment (read at module
    initialization) or calling [set_checked true] makes every kernel refuse
    out-of-bounds work with [Invalid_argument] instead of touching memory.
    The reference kernels carry two loop bodies performing identical
    floating-point operations in identical order, a raw one with unchecked
    indexing and a bounds-checked one; the C kernels run the same stubs in
    both modes, preceded in checked mode by one length assertion per
    buffer.  Results are bit-identical across modes.  Checked mode composes
    with either backend; CI runs the determinism suite under
    [PNN_CHECKED=1] on both. *)

val set_checked : bool -> unit
val checked : unit -> bool

(** {1 Construction} *)

val create : int -> int -> float array -> t
(** [create rows cols data] builds a tensor from [data] (length must equal
    [rows * cols]).  On the [Reference] backend the array is wrapped without
    copying; other backends copy.  Callers must not retain [data]. *)

val zeros : int -> int -> t
val ones : int -> int -> t
val full : int -> int -> float -> t

val init : int -> int -> (int -> int -> float) -> t
(** [init rows cols f] with [f row col] supplying each element; [f] is called
    in row-major order (RNG-backed constructors rely on the draw order). *)

val scalar : float -> t
(** A [1 × 1] tensor. *)

val of_array : float array -> t
(** Row vector [1 × n] sharing no storage with the argument. *)

val of_arrays : float array array -> t
(** Matrix from rows; all rows must have equal length. *)

val row_of_list : float list -> t

val copy : t -> t
(** Deep copy on the same backend as the argument. *)

val uniform : Rng.t -> int -> int -> lo:float -> hi:float -> t
val gaussian : Rng.t -> int -> int -> mu:float -> sigma:float -> t

val zeros_as : t -> int -> int -> t
(** [zeros_as exemplar rows cols] is {!zeros} allocated on [exemplar]'s
    backend rather than the active one — the way autodiff scratch and
    gradient buffers follow their value tensors. *)

(** {1 Access} *)

val rows : t -> int
val cols : t -> int
val numel : t -> int
val shape : t -> int * int
val get : t -> int -> int -> float
val set : t -> int -> int -> float -> unit
val row : t -> int -> t
(** Extract one row as a [1 × cols] tensor (copy). *)

val to_array : t -> float array
(** Fresh copy of the underlying data, row-major (never a live view,
    regardless of backend). *)

val to_arrays : t -> float array array

(** {1 Elementwise} *)

val map : (float -> float) -> t -> t
val add : t -> t -> t
val sub : t -> t -> t
val mul : t -> t -> t
(** Hadamard product. *)

val div : t -> t -> t
val neg : t -> t
val scale : float -> t -> t
val add_scalar : float -> t -> t

(** {1 Broadcast helpers} *)

val add_rowvec : t -> t -> t
(** [add_rowvec m v] adds the [1 × cols] vector [v] to every row of [m]. *)

val mul_rowvec : t -> t -> t

(** {1 Linear algebra} *)

val matmul : t -> t -> t

val matmul_nt : t -> t -> t
(** [matmul_nt a b] is [matmul a (transpose b)] (requires
    [cols a = cols b]) without materializing the transpose; on each backend,
    results are bit-identical to that backend's [matmul] formulation.  Used
    on the autodiff matmul backward path. *)

val transpose : t -> t
val dot : t -> t -> float
(** Inner product of two tensors of identical shape. *)

(** {1 Reductions} *)

val sum : t -> float
val mean : t -> float

val min_value : t -> float
(** Minimum entry, folded left with the IEEE select
    [if acc <= x then acc else x] starting from the first element.  With any
    NaN present the result depends on position — a NaN {e accumulator}
    propagates (every comparison is false, so [x] is chosen only… never;
    once the accumulator is NaN it stays NaN), while a NaN {e element} is
    skipped; [-0.0] and [0.0] compare equal, so whichever is encountered
    first wins.  Both backends agree bitwise.  Raises on empty tensors. *)

val max_value : t -> float
(** Dual of {!min_value} ([if acc >= x then acc else x]); same NaN and
    signed-zero behavior, bitwise identical across backends. *)

val sum_rows : t -> t
(** Column-wise sum: result is [1 × cols]. *)

val argmax_rows : t -> int array
(** Index of the maximum entry of each row, first maximum winning (strict
    [>] against the incumbent).  A NaN never displaces the incumbent (strict
    comparison is false), but a leading NaN at column 0 becomes an incumbent
    that nothing displaces — so [argmax] of a row starting with NaN is [0].
    [-0.0] does not displace [0.0] (they compare equal).  Both backends agree
    exactly. *)

(** {1 Assembly} *)

val concat_cols : t -> t -> t
(** Horizontal concatenation of matrices with equal row counts. *)

val concat_rows : t -> t -> t
val slice_rows : t -> int -> int -> t
(** [slice_rows m start len]. *)

val slice_cols : t -> int -> int -> t
val take_rows : t -> int array -> t
(** Gather rows by index (used for dataset splits). *)

(** {1 In-place (destination-passing) kernels}

    Allocation-free counterparts of the operations above: each [*_into]
    kernel writes its result into [dst] and performs the {e exact same
    floating-point operations in the exact same order} as the allocating
    version, so results are bit-identical — the autodiff scratch buffers and
    the variation-aware training hot path rely on this for determinism.

    Aliasing convention: elementwise kernels ([map_into], [add_into] …
    [div_into], [neg_into], [scale_into], [add_scalar_into], and the
    [*_rowvec_into] broadcasts) read and write only index [i] (resp.
    [(r, c)]) at a time, so [dst] may alias an input.  All other kernels
    (matmul, transpose, slices, embeds, concats, reductions,
    [broadcast_rowvec_into]) require [dst] to be distinct from every input;
    aliasing them is undefined (and not checked).

    All kernels raise [Invalid_argument] if [dst] has the wrong shape. *)

val fill : t -> float -> unit
(** Set every entry. *)

val blit : src:t -> dst:t -> unit
(** Copy [src] into [dst] (same shape; backends may differ). *)

val map_into : (float -> float) -> t -> dst:t -> unit
val add_into : t -> t -> dst:t -> unit
val sub_into : t -> t -> dst:t -> unit
val mul_into : t -> t -> dst:t -> unit
val div_into : t -> t -> dst:t -> unit
val neg_into : t -> dst:t -> unit
val scale_into : float -> t -> dst:t -> unit
val add_scalar_into : float -> t -> dst:t -> unit

val add_rowvec_into : t -> t -> dst:t -> unit
val mul_rowvec_into : t -> t -> dst:t -> unit

val broadcast_rowvec_into : t -> dst:t -> unit
(** Every row of [dst] := the [1 × cols] vector.  Bit-identical to
    [mul_rowvec (ones …) v] (multiplying by 1.0 is exact). *)

val matmul_into : t -> t -> dst:t -> unit
val matmul_nt_into : t -> t -> dst:t -> unit
val transpose_into : t -> dst:t -> unit
val sum_rows_into : t -> dst:t -> unit
(** [dst] is [1 × cols]. *)

val slice_cols_into : t -> int -> int -> dst:t -> unit
(** [slice_cols_into t start len ~dst] with [dst] of shape [rows × len]. *)

val slice_rows_into : t -> int -> int -> dst:t -> unit

val embed_cols_into : t -> int -> dst:t -> unit
(** [embed_cols_into src start ~dst]: [dst] := zeros except columns
    [start, start + cols src) := [src] — the scatter adjoint of
    {!slice_cols}. *)

val embed_rows_into : t -> int -> dst:t -> unit
val concat_cols_into : t -> t -> dst:t -> unit
val concat_rows_into : t -> t -> dst:t -> unit

(** {1 Nonlinearity and training-path kernels}

    Backend-owned loops for the autodiff tape and the optimizer.  Routing
    them through this module keeps raw backend buffers from escaping
    [lib/tensor] (pnnlint R6). *)

type unop = Tensor_backend.unop =
  | Tanh
  | Sigmoid
  | Exp
  | Log
  | Sqrt
  | Relu
  | Abs

val unop_into : unop -> t -> dst:t -> unit
(** Forward nonlinearity, elementwise ([dst] may alias the input). *)

val unop_bwd_into : unop -> x:t -> y:t -> g:t -> dst:t -> unit
(** Backward pass of [unop]: [dst.(i) := g.(i) * d/dx op] evaluated from the
    forward input [x] and output [y] (each formula reads whichever is
    cheaper, e.g. tanh uses [y], log uses [x]).  [dst] may alias [g]. *)

val softmax_rows_into : t -> dst:t -> unit
(** Numerically-stable row-wise softmax (max-shifted); [dst] must not alias
    the input. *)

val ce_loss_sum : t -> t -> float
(** [ce_loss_sum probs labels] is the {e summed} cross-entropy
    [-Σ y·log (max p 1e-30)] over all entries; callers divide by the batch
    size for the mean. *)

val sgd_step : lr:float -> grad:t -> t -> unit
(** [sgd_step ~lr ~grad value]: [value := value - lr * grad], in place. *)

val adam_step :
  lr:float ->
  beta1:float ->
  beta2:float ->
  eps:float ->
  bc1:float ->
  bc2:float ->
  m:float array ->
  v:float array ->
  grad:t ->
  t ->
  unit
(** One Adam update in place on the value tensor; [m]/[v] are the caller-owned
    first/second-moment buffers ([bc1]/[bc2] the bias corrections
    [1 - betaᵢ^t]). *)

(** {1 Fused hot-path kernels}

    Single-call fusions of the dominant kernel sequences.  Each runs the C
    backend's fused kernel when every operand lives on C; otherwise it
    decomposes into the exact kernel sequence the fused kernel replicates.  Both routes are bit-identical on a given backend — the
    fusion only removes dispatch and loop-restart overhead, never changes
    float operations or their order. *)

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
(** One Adam update over every [(value, grad, m, v)] parameter leaf —
    semantically (and bitwise) per-leaf {!adam_step} calls, fused into one
    kernel invocation when the backend allows. *)

(** {1 Comparison and printing} *)

(** [equal ?eps a b] is shape equality plus entrywise [|a - b| <= eps]
    (default exact).  Any NaN entry on either side makes the result [false]
    (IEEE comparison semantics): a NaN never equals anything, including
    another NaN. *)
val equal : ?eps:float -> t -> t -> bool
val pp : Format.formatter -> t -> unit
val to_string : t -> string
