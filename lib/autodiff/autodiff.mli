(** Tape-based reverse-mode automatic differentiation over {!Tensor.t}.

    Building expressions with the functions below records a computation graph;
    {!backward} then accumulates gradients of a scalar root into every node
    that can reach a {!param} leaf.  Leaves created with {!param} are the
    trainable tensors (crossbar conductances θ, nonlinear-circuit parameters
    𝔴, MLP weights); leaves created with {!const} are data or frozen values
    and receive no gradient traffic at all: subgraphs built only from consts
    (e.g. a frozen surrogate MLP's weight branches) are skipped entirely
    during backward, and their gradients read as zeros.

    Gradient buffers are allocated lazily (on first accumulation or first
    {!grad} read) and zeroed in place on subsequent passes; backward
    temporaries live in per-node scratch buffers reused across passes.
    Repeated {!backward} calls over the same graph therefore allocate
    nothing beyond the first pass.

    A graph can also be {e reused} with new leaf contents: update leaves
    with {!set_value} (or mutate a {!param}'s tensor in place), then
    {!refresh} a {!compile}d tape to re-run the forward pass in place and
    {!backward_tape} to backpropagate — both bit-identical to rebuilding
    the graph from scratch.

    The straight-through-estimator entry points ({!clamp_ste}, {!map_ste})
    implement the projection technique the paper uses to keep conductances in
    the printable range: the forward pass applies an arbitrary projection, the
    backward pass is the identity. *)

type t

(** {1 Leaves and inspection} *)

val param : Tensor.t -> t
(** Trainable leaf; [value] is used directly (not copied), so optimizers can
    update it in place between graph constructions. *)

val const : Tensor.t -> t
(** Non-trainable leaf (inputs, labels, frozen weights, noise draws). *)

val scalar : float -> t
val value : t -> Tensor.t

val grad : t -> Tensor.t
(** Gradient accumulated by the last {!backward}; zeros before that (and
    always zeros for nodes not reaching a {!param}).  Returns the node's
    {e live} accumulation buffer — copy it before the next backward pass if
    you need to keep the values. *)

val is_param : t -> bool
val zero_grad : t -> unit

val set_value : t -> Tensor.t -> unit
(** [set_value leaf t] copies [t] into the leaf's value buffer (shape
    checked); raises [Invalid_argument] on interior (op) nodes.  Used to
    feed new inputs/noise draws into a reused graph before {!refresh}. *)

val id : t -> int
(** Unique per-node identifier (stable for the lifetime of the node); used by
    optimizers to key per-parameter state. *)

(** {1 Arithmetic} *)

val add : t -> t -> t
val sub : t -> t -> t
val mul : t -> t -> t
(** Hadamard product. *)

val div : t -> t -> t
val neg : t -> t
val scale : float -> t -> t
val add_scalar : float -> t -> t
val pow_const : t -> float -> t

(** {1 Nonlinearities} *)

val tanh : t -> t
val sigmoid : t -> t
val exp : t -> t
val log : t -> t
val sqrt : t -> t
val relu : t -> t
val abs : t -> t
(** Subgradient 0 at 0. *)

(** {1 Linear algebra and broadcasting} *)

val matmul : t -> t -> t
val transpose : t -> t
val add_rowvec : t -> t -> t
(** [add_rowvec m v] adds a [1 × cols] vector to each row of [m]. *)

val dense : ?op:Tensor.unop -> t -> t -> t -> t
(** [dense ?op x w b] is the fused dense-layer forward
    [unop (x·w +rowvec b)] as a single node — bit-identical (values and
    gradients) to [unary_op (add_rowvec (matmul x w) b)], but forwarded
    through the backend's fused kernel when one is available and with one
    node's worth of tape/dispatch overhead instead of three.  With [op]
    absent, no nonlinearity is applied. *)

val mul_rowvec : t -> t -> t
val div_rowvec : t -> t -> t
(** [div_rowvec m v] divides each row of [m] elementwise by [v]. *)

val badd : t -> t -> t
(** [badd s m] broadcast-adds a [1 × 1] scalar node to every entry of [m];
    the scalar's gradient is the sum of the incoming gradients. *)

val bmul : t -> t -> t
(** [bmul s m] broadcast-multiplies every entry of [m] by a [1 × 1] scalar
    node. *)

(** {1 Reductions} *)

val sum : t -> t
(** Scalar [1 × 1] sum of all entries. *)

val mean : t -> t
val sum_rows : t -> t
(** Column-wise sums: [1 × cols]. *)

(** {1 Structure} *)

val concat_cols : t -> t -> t
val concat_rows : t -> t -> t
(** Vertical stacking; gradients split back to the two blocks.  Lets
    independent row-batches (e.g. the act/neg circuit parameter rows of one
    pNN layer) share a single surrogate forward pass. *)

val slice_cols : t -> int -> int -> t
(** [slice_cols v start len]; gradient scatters back into the slice. *)

val slice_rows : t -> int -> int -> t

(** {1 Straight-through estimators} *)

val clamp_ste : lo:float -> hi:float -> t -> t
(** Forward clamps to [\[lo, hi]]; backward passes gradients unchanged.
    NaN entries pass through the forward unchanged (the comparison chain
    [if x < lo then lo else if x > hi then hi else x] is false both ways),
    so a fault is never masked as a bound. *)

val map_ste : (float -> float) -> t -> t
(** Forward applies an arbitrary elementwise projection; backward identity.
    Used for the printable-conductance set
    [[-Gmax,-Gmin] ∪ {0} ∪ [Gmin,Gmax]] and the R2/R4 box clipping. *)

(** {1 Externally computed gradients} *)

val precomputed : value:Tensor.t -> (t * Tensor.t) list -> t
(** [precomputed ~value pairs] wraps a scalar [1 × 1] [value] whose gradients
    w.r.t. the given leaves were computed out-of-graph (e.g. by data-parallel
    replicas): {!backward} on (an expression containing) the node adds each
    listed gradient — scaled by the node's incoming gradient — into the
    paired leaf.  Gradient shapes must match their leaves. *)

(** {1 Losses} *)

val softmax_cross_entropy : logits:t -> labels:Tensor.t -> t
(** Mean cross-entropy between row-wise softmax of [logits] and one-hot
    [labels] (same shape). Numerically stabilized (max subtraction). *)

val mse : t -> Tensor.t -> t
(** Mean squared error against a constant target of the same shape. *)

(** {1 Backward pass} *)

val backward : t -> unit
(** [backward root] requires a [1 × 1] root; zeroes gradients of all reachable
    nodes, seeds the root gradient with 1 and back-propagates. *)

val params : t -> t list
(** All distinct {!param} leaves reachable from the node, in creation order. *)

(** {1 Graph reuse}

    A {!tape} caches the topological order of the graph under a root so the
    same node structure can be run many times — once per Monte-Carlo draw and
    per epoch — without rebuilding it.  The protocol is: mutate leaf values
    ({!set_value} on consts, in-place optimizer updates on params),
    {!refresh}, then {!backward_tape}.  Both passes write every node's
    [value]/[grad] buffer in place and are bit-identical to building a fresh
    graph from the same leaf contents. *)

type tape

val compile : t -> tape
(** Record the topological order under [root].  The root need not be scalar
    (forward-only tapes over logits are fine); only {!backward_tape}
    requires a [1 × 1] root. *)

val refresh : tape -> unit
(** Re-run the forward pass in place, leaves first. *)

val backward_tape : tape -> unit
(** As {!backward}, but reusing the compiled order. *)
