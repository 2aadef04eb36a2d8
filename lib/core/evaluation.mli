(** Monte-Carlo test evaluation (paper §IV-C): a trained pNN is tested under
    [n] independent variation draws; the mean and standard deviation of the
    test accuracy over the draws are the paper's reported accuracy and
    robustness. *)

type result = {
  mean_accuracy : float;
  std_accuracy : float;
      (** sample standard deviation over [accuracies]; [0.0] whenever
          [accuracies] has a single element *)
  accuracies : float array;
      (** one entry per Monte-Carlo draw, in draw order.  Length is exactly
          [n] when [epsilon > 0] — and exactly [1] when [epsilon = 0],
          regardless of [n] (see {!mc_accuracy}). *)
}

val accuracy_under : Network.t -> Noise.t -> x:Tensor.t -> y:int array -> float
(** Test accuracy of one draw: the share of rows of [x] whose argmax class
    is the label in [y].  Runs on this domain's compiled logits graph for
    [x]'s shape ({!Network.predictor_cached}), bit-identical to
    {!Network.predict}.

    @raise Invalid_argument if [y]'s length is not [x]'s row count. *)

val summarize : float array -> result
(** The {!result} of per-draw accuracies: their mean, their sample standard
    deviation ([0.0] for a single draw) and the accuracies themselves. *)

val mc_accuracy :
  ?pool:Parallel.Pool.t ->
  ?cache:Cache.t * string ->
  Rng.t -> Network.t -> epsilon:float -> n:int -> x:Tensor.t -> y:int array -> result
(** Evaluates [n] variation draws of magnitude [epsilon].

    {b [epsilon = 0] short-circuit}: with no variation every draw is the same
    deterministic forward pass, so the function evaluates once and returns a
    {b 1-element} [accuracies] array (not [n] copies); [mean_accuracy] is
    that single accuracy and [std_accuracy] is [0.0].

    The [n] noise records are pre-drawn from [rng] in draw order, then the
    (pure) forward passes are fanned out over [pool] (default: the shared
    {!Parallel.get_pool}).  Results are bit-identical for any worker count,
    and the RNG stream is consumed exactly as by a sequential evaluation.

    [cache] is an optional [(store, key)] pair memoizing the raw per-draw
    accuracies; the key must cover everything the draws depend on (network
    content hash, [epsilon], [n], test-set identity and the evaluation seed).
    On a hit the summary statistics are recomputed from the decoded [%h]
    bits — bit-identical to the evaluation they replace — and [rng] is left
    untouched (callers hand each evaluation its own derived generator).

    @raise Invalid_argument if [n < 1]. *)

val nominal_accuracy : Network.t -> x:Tensor.t -> y:int array -> float

type mc_result = {
  mean : float;
  std : float;  (** sample std; [0.0] when [n = 1] *)
  min : float;  (** worst draw — the robustness floor *)
  q05 : float;
  median : float;
  q95 : float;
  accuracies : float array;  (** one entry per draw, in draw order *)
}
(** Distribution summary of the Monte-Carlo test accuracy — the tails matter
    for fault models, where the mean hides rare catastrophic draws. *)

val mc_result_under :
  ?pool:Parallel.Pool.t ->
  ?cache:Cache.t * string ->
  Rng.t ->
  Network.t ->
  model:Variation.model -> n:int -> x:Tensor.t -> y:int array -> mc_result
(** Evaluates [n] draws from an arbitrary {!Variation.model} (always [n]
    draws — no nominal short-circuit) and summarizes the accuracy
    distribution.  Pre-draws the noise sequentially, fans the pure forward
    passes out over [pool]: bit-identical for any worker count.  [cache] as
    in {!mc_accuracy} (the key must additionally cover the model).

    @raise Invalid_argument if [n < 1] or the model fails
    {!Variation.validate}. *)

val accs_of_lines : string list -> float array
(** The decoder of an ["mceval"] cache payload (the per-draw accuracies,
    one ["accs n v…"] line).  Raises [Failure] on malformed input. *)
