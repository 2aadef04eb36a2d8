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

    Besides the primitives, {!fused} builds one node for a whole formula
    whose forward pass and input gradients caller code computes in one step;
    the printed layer's formulas (ptanh, the crossbar, the printable-ω map)
    are such nodes, bit-identical to the primitive graphs they replace.  The
    straight-through estimators the paper uses to keep conductances and
    R2/R4 in their printable ranges live inside those nodes. *)

type t

(** {1 Leaves and inspection} *)

val param : Tensor.t -> t
(** Trainable leaf; [value] is used directly (not copied), so optimizers can
    update it in place between graph constructions. *)

val const : Tensor.t -> t
(** Non-trainable leaf (inputs, labels, frozen weights, noise draws). *)

val value : t -> Tensor.t

val grad : t -> Tensor.t
(** Gradient accumulated by the last {!backward}; zeros before that (and
    always zeros for nodes not reaching a {!param}).  Returns the node's
    {e live} accumulation buffer — copy it before the next backward pass if
    you need to keep the values. *)

val is_param : t -> bool

val set_value : t -> Tensor.t -> unit
(** [set_value leaf t] copies [t] into the leaf's value buffer (shape
    checked); raises [Invalid_argument] on interior (op) nodes.  Used to
    feed new inputs/noise draws into a reused graph before {!refresh}. *)

val update_value : t -> Tensor.t -> bool
(** As {!set_value}, and reports whether any bit of the leaf's value
    changed ({!Tensor.blit_changed}); allocation-free.  A caller that tracks
    which leaves changed can then refresh only the affected part of a
    {!split} tape. *)

val id : t -> int
(** Unique per-node identifier (stable for the lifetime of the node); used by
    optimizers to key per-parameter state. *)

(** {1 Arithmetic} *)

val add : t -> t -> t
val neg : t -> t
val scale : float -> t -> t

(** {1 Nonlinearities} *)

val tanh : t -> t
val sigmoid : t -> t
val relu : t -> t

(** {1 Linear algebra and broadcasting} *)

val matmul : t -> t -> t
val add_rowvec : t -> t -> t
(** [add_rowvec m v] adds a [1 × cols] vector to each row of [m]. *)

val dense : ?op:Tensor.unop -> t -> t -> t -> t
(** [dense ?op x w b] is the fused dense-layer forward
    [unop (x·w +rowvec b)] as a single node — bit-identical (values and
    gradients) to [unary_op (add_rowvec (matmul x w) b)], but forwarded
    through the fused kernel (one stub call) and with one
    node's worth of tape/dispatch overhead instead of three.  With [op]
    absent, no nonlinearity is applied. *)

val mul_rowvec : t -> t -> t
(** [mul_rowvec m v] multiplies each row of [m] elementwise by [v]. *)

(** {1 Structure} *)

val concat_rows : t -> t -> t
(** Vertical stacking; gradients split back to the two blocks.  Lets
    independent row-batches (e.g. the act/neg circuit parameter rows of one
    pNN layer) share a single surrogate forward pass. *)

val slice_rows : t -> int -> int -> t
(** [slice_rows v start len]; gradient scatters back into the slice. *)

(** {1 Fused nodes}

    One node for a whole formula: the forward pass and the gradients of
    every input are computed by caller code in one step, with one node's
    worth of tape and dispatch overhead instead of one per operation.  A
    fused node that replaces a chain of primitives is bit-identical to that
    chain when its backward replays the chain's per-node gradients: every
    interior node's first accumulation was [0.0 +. x] on a zeroed buffer
    (turning −0.0 into +0.0), reductions ran left to right, and each
    parent received its shares in the chain's backward order. *)

val fused :
  Tensor.t -> t list -> recompute:(Tensor.t -> unit) -> backward:(Tensor.t -> unit) -> t
(** [fused value parents ~recompute ~backward] is a node holding [value],
    computed by the caller from [parents]' values.  [recompute dst]
    re-runs the forward pass in place into [dst] (the node's value) from
    the parents' current values ({!refresh}).  [backward g] receives the
    node's accumulated gradient and passes each parent its share with
    {!accumulate}; it runs only when some parent needs a gradient. *)

val needs_grad : t -> bool
(** Whether gradients reach this node at all (it depends on a {!param}). *)

val accumulate : t -> Tensor.t -> unit
(** [accumulate p g] adds [g] into [p]'s gradient buffer when [p] needs a
    gradient (a no-op otherwise); on a pass's first accumulation the buffer
    is zeroed, so [p]'s gradient becomes [0.0 +. g]. *)

val scratch_of : int -> int -> unit -> Tensor.t
(** [scratch_of rows cols] returns a getter for one [rows × cols]
    buffer, allocated on first use and then reused —
    backward temporaries for {!fused} nodes, so repeated passes allocate
    nothing and forward-only graphs never allocate them. *)

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

val split : tape -> input:t -> tape * tape
(** [split tape ~input] is [(fixed, varying)]: [varying]'s forward pass
    re-runs the nodes of [tape] whose value depends on the leaf [input],
    [fixed]'s the others, each in [tape]'s order.  A fixed node has only
    fixed parents, so [refresh fixed; refresh varying] is [refresh tape], and
    when no leaf but [input] has changed since the last refresh,
    [refresh varying] alone is too.  Both keep [tape]'s root and its
    backward order, so {!backward_tape} on either is unchanged. *)

val backward_tape : tape -> unit
(** As {!backward}, but reusing the compiled order. *)

val backward_seeded : tape -> Tensor.t -> unit
(** As {!backward_tape} for a root of any shape, whose gradient is a copy
    of the given seed (the root's shape) instead of 1: the backward half of
    a stage whose output feeds graphs run elsewhere, seeded with the
    gradients those graphs computed for it. *)
