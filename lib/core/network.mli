(** A printed neural network: a stack of printed layers (paper topology
    [#input-3-#output]).

    {!forward}, {!logits}, {!predict} and {!loss} build a fresh autodiff
    graph per call, each circuit's η through its own surrogate pass: the
    reference the compiled paths are held to.  The hot paths — training
    draws ({!mc_loss_pooled}, {!mc_loss_value}) and prediction
    ({!mc_logits}, Monte-Carlo or nominal: nominal prediction is its
    one-draw case under {!Noise.none}) — run compiled graphs split at η.
    Before a draw fan-out, one η stage on the calling domain evaluates the
    surrogate for every (draw, layer, circuit) in a single batch; each draw
    then runs its domain's compiled draw graph, which takes its η rows as
    leaves; after a loss fan-out, one surrogate backward over the stacked
    ∂L/∂η rows folds the 𝔴 gradients in draw order.  Stages and draw graphs are cached per domain (draw graphs by
    network, batch shape and root, stages by network and draw count).
    Every call copies what it needs into them and re-runs in place,
    bit-identical to the fresh-graph functions, for any pool size. *)

type t

val create :
  ?init:[ `Centered | `Random_sign ] ->
  Rng.t -> Config.t -> Surrogate.Model.t -> inputs:int -> outputs:int -> t
(** Two printed layers with the configured hidden width. *)

val create_deep :
  ?init:[ `Centered | `Random_sign ] ->
  Rng.t -> Config.t -> Surrogate.Model.t -> sizes:int list -> t
(** Arbitrary depth (sizes includes input and output widths) — used by the
    extension experiments. *)

val of_layers : Config.t -> Layer.t list -> t
(** Reassemble a network from layers (widths must chain); used by
    {!Serialize}. *)

val layers : t -> Layer.t list
val config : t -> Config.t
val theta_shapes : t -> (int * int) list
(** Per-layer θ shapes, for {!Noise.draw}. *)

val forward : t -> noise:Noise.t -> Autodiff.t -> Autodiff.t
(** Output-layer activations (voltages in ≈[0,1]), batch × outputs. *)

val logits : t -> noise:Noise.t -> Tensor.t -> Autodiff.t
(** Temperature-scaled activations for the cross-entropy loss. *)

val predict : t -> noise:Noise.t -> Tensor.t -> int array
(** Argmax classification under a given variation draw. *)

val loss : t -> noise:Noise.t -> x:Tensor.t -> labels:Tensor.t -> Autodiff.t
(** Softmax cross-entropy of one variation draw. *)

val replicate : t -> t
(** Deep copy with fresh parameter leaves (shared read-only surrogate). *)

val mc_loss_pooled :
  Parallel.Pool.t ->
  t -> noises:Noise.t list -> x:Tensor.t -> labels:Tensor.t -> Autodiff.t
(** Monte-Carlo expected loss (paper Eq. for variation-aware training): the
    mean of {!loss} over the draws, with its gradients.  The η stage runs
    the surrogate for every draw at once, the draws' losses and gradients
    are computed on per-domain compiled loss graphs over [pool], and one
    surrogate backward folds the 𝔴 gradients; every sum runs in draw
    order, from draw 0 on, so the returned value and the gradients
    {!Autodiff.backward} injects into this network's parameters are
    bit-identical for any pool size, and to summing the one-draw fresh
    graphs' values and gradients in draw order and scaling by 1/n.

    Allocation per draw is limited to small per-parameter gradient copies.
    Raises [Invalid_argument] on no draws, on labels that are not
    [rows x × outputs] or on a noise draw of the wrong shape, before any
    graph leaf is written. *)

val mc_loss_value :
  Parallel.Pool.t ->
  t -> noises:Noise.t list -> x:Tensor.t -> labels:Tensor.t -> float
(** Forward-only {!mc_loss_pooled}: the same value, no gradients.  The
    validation-loss hot path.  Raises as {!mc_loss_pooled} does. *)

val draws_loss_and_grads :
  Parallel.Pool.t ->
  t -> noises:Noise.t array -> x:Tensor.t -> labels:Tensor.t -> (float * Tensor.t list) array
(** Each draw's scalar loss and gradient copies in canonical order
    ([params_theta @ params_omega]) from the path {!mc_loss_pooled} runs —
    one η stage for every draw, the draws over the pool — before its
    draw-order fold: draw [d]'s entry is bit-identical to a one-draw call
    with draw [d] alone.  Raises as {!mc_loss_pooled} does.  Exposed for
    tests. *)

val mc_logits :
  ?pad:bool ->
  Parallel.Pool.t -> t -> noises:Noise.t array -> Tensor.t -> f:(Tensor.t -> 'a) -> 'a array
(** [mc_logits pool t ~noises x ~f] runs the η stage for every draw, then
    each draw's compiled logits graph for [x]'s shape over [pool], and
    returns [f] of each draw's temperature-scaled logits, in draw order.
    [f] receives the graph's live root buffer on the domain that ran the
    draw: it must read or copy it before returning.  Each draw's logits are
    bit-identical to {!logits} under that draw, and each row of them to
    {!logits} on that row alone: batch composition never changes an
    answer.  A single draw runs on the calling domain, whatever [pool];
    its surrogate re-runs only when a 𝔴 or ε_ω bit changed since this
    domain's stage last ran, and the nodes that do not depend on [x] only
    when a θ or θ-noise bit changed, so repeated nominal calls on a
    read-only network run neither.  With [~pad:true] (default
    false) the stage is compiled for the draw count rounded up to a power
    of two, the extra rows nominal, so a stream of arbitrary counts up to
    [n] compiles at most [1 + log2 n] stages — serving's case; a run's
    fixed count compiles exactly.  Padding changes no answer.  Raises
    [Invalid_argument] on no draws or a noise draw of the wrong shape,
    before any leaf is written. *)

val params_theta : t -> Autodiff.t list
val params_omega : t -> Autodiff.t list

type weights = (Tensor.t * Tensor.t * Tensor.t) list
(** Per-layer (θ, act 𝔴, neg 𝔴) value copies, outermost layer first.
    Concrete so checkpointing can serialize the best-epoch snapshot. *)

val snapshot : t -> weights
val restore : t -> weights -> unit
