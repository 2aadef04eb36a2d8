(** A printed neural network: a stack of printed layers (paper topology
    [#input-3-#output]).

    {!forward}, {!logits}, {!predict}, {!loss} and {!mc_loss} build a fresh
    autodiff graph per call.  The hot paths — training draws
    ({!mc_loss_pooled}, {!mc_loss_value}), Monte-Carlo evaluation and
    serving ({!predictor_cached}) — run compiled graphs instead: one per
    domain, network, batch shape and root (loss or logits), kept in a
    domain-local LRU.  Each call copies the batch (and labels), the
    master's current parameters and the noise draw into the graph and
    re-runs it in place, bit-identical to the fresh-graph functions. *)

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

val mc_loss : t -> noises:Noise.t list -> x:Tensor.t -> labels:Tensor.t -> Autodiff.t
(** Monte-Carlo expected loss: mean of {!loss} over the draws (paper Eq. for
    variation-aware training), as a single sequential autodiff graph. *)

val replicate : t -> t
(** Deep copy with fresh parameter leaves (shared read-only surrogate). *)

val mc_loss_pooled :
  Parallel.Pool.t ->
  t -> noises:Noise.t list -> x:Tensor.t -> labels:Tensor.t -> Autodiff.t
(** Data-parallel {!mc_loss}: each draw's loss and gradients are computed on
    a per-domain replica, then reduced in draw order (a fixed-order sum, so
    the returned value and the gradients {!Autodiff.backward} injects into
    this network's parameters are bit-identical for any pool size).  The
    result supports {!Autodiff.backward} like {!mc_loss} does.

    Each worker domain runs its compiled loss graph for [x]'s shape
    (compiled on first use, reused across draws and epochs), re-running
    forward/backward in place; gradients are reduced in place into the
    first draw's buffers.  Allocation per draw is limited to small
    per-parameter gradient copies.  Raises [Invalid_argument] on labels
    that are not [rows x × outputs] or on a noise draw of the wrong shape,
    before any graph leaf is written. *)

val mc_loss_value :
  Parallel.Pool.t ->
  t -> noises:Noise.t list -> x:Tensor.t -> labels:Tensor.t -> float
(** Forward-only pooled Monte-Carlo loss (no gradients): bit-identical to
    [Tensor.get (Autodiff.value (mc_loss ...)) 0 0] but runs on the
    compiled loss graphs.  The validation-loss hot path. *)

val draw_loss_and_grads :
  t -> noise:Noise.t -> x:Tensor.t -> labels:Tensor.t -> float * Tensor.t list
(** One Monte-Carlo draw on this domain's compiled loss graph: scalar loss
    plus gradient copies in canonical order ([params_theta @ params_omega]).
    Raises as {!mc_loss_pooled} does.  Exposed for tests and benchmarks. *)

val draw_loss_and_grads_alloc :
  t -> noise:Noise.t -> x:Tensor.t -> labels:Tensor.t -> float * Tensor.t list
(** As {!draw_loss_and_grads} but building a throwaway replica graph
    (bit-identical; the allocating reference). *)

type predictor
(** A compiled logits graph with a fixed-shape blittable input leaf: one
    compilation answers an unbounded stream of same-shaped batches.
    Single-domain mutable state, like every compiled graph. *)

val compile_predictor : t -> rows:int -> cols:int -> predictor
(** Compile a logits graph for [rows × cols] input batches against a fresh
    replica of this network (nominal all-ones noise pre-bound). *)

val predictor_logits : predictor -> ?noise:Noise.t -> Tensor.t -> Tensor.t
(** Blit the batch (and the master's current parameters, and [noise] or the
    nominal all-ones draw) into the graph leaves, refresh, and return the
    live temperature-scaled logits ([rows × outputs]).  The nodes that do
    not depend on the batch are re-run only when a parameter or noise bit
    changed since the previous call.  Each row is bit-identical to
    {!predict}'s logits for that row alone — the forward pass is
    row-independent, so batch composition never changes an answer.  The
    returned tensor is the graph's root buffer: read or copy it before the
    next call.  Raises [Invalid_argument] on a batch shape mismatch, a noise
    draw with the wrong number of layers, or a layer whose θ or ω noise has
    the wrong shape — always before any leaf is written, so a rejected call
    changes nothing. *)

val predictor_predict : predictor -> ?noise:Noise.t -> Tensor.t -> int array
(** Argmax rows of {!predictor_logits}; bit-identical to {!predict}. *)

val predictor_cached : t -> rows:int -> cols:int -> predictor
(** This domain's LRU-cached {!compile_predictor} (keyed by network identity
    and batch shape) — the Monte-Carlo evaluation and serving hot path. *)

val params_theta : t -> Autodiff.t list
val params_omega : t -> Autodiff.t list

type weights = (Tensor.t * Tensor.t * Tensor.t) list
(** Per-layer (θ, act 𝔴, neg 𝔴) value copies, outermost layer first.
    Concrete so checkpointing can serialize the best-epoch snapshot. *)

val snapshot : t -> weights
val restore : t -> weights -> unit
