(** Monte-Carlo test evaluation (paper §IV-C): a trained pNN is tested under
    [n] independent variation draws; the mean and standard deviation of the
    test accuracy over the draws are the paper's reported accuracy and
    robustness.  The paper's draws are [Variation.Uniform ε]; any other
    {!Variation.model} (fault families, aging at a fixed life fraction)
    goes through the same evaluator. *)

type result = {
  mean : float;
  std : float;
      (** sample standard deviation over [accuracies]; [0.0] whenever
          [accuracies] has a single element *)
  min : float;  (** worst draw — the robustness floor *)
  q05 : float;
  median : float;
  q95 : float;
  accuracies : float array;
      (** one entry per Monte-Carlo draw, in draw order.  Length is exactly
          [n], and exactly [1] for a {!Variation.nominal} model, regardless
          of [n] (see {!mc_accuracy}). *)
}
(** Distribution summary of the Monte-Carlo test accuracy — the tails matter
    for fault models, where the mean hides rare catastrophic draws. *)

val mc_accuracy :
  ?pool:Parallel.Pool.t ->
  ?cache:Cache.t * string ->
  Rng.t ->
  Network.t ->
  model:Variation.model -> n:int -> x:Tensor.t -> y:int array -> result
(** Evaluates [n] draws of [model] ({!Variation.mc_draws}).

    {b Nominal short-circuit}: [Uniform 0.] draws nothing; every draw would
    be the same deterministic forward pass, so the function evaluates once
    and returns a {b 1-element} [accuracies] array (not [n] copies) with
    [std = 0.0].  Every other model takes [n] draws, even where they come
    out all ones ([Gaussian 0.], [Defects] at rate 0, [Aging] at t = 0).

    The noise records are pre-drawn from [rng] in draw order, then the
    (pure) forward passes are fanned out over [pool] (default: the shared
    {!Parallel.get_pool}).  Results are bit-identical for any worker count,
    and the RNG stream is consumed exactly as by a sequential evaluation.
    The surrogate runs once for all draws, before the fan-out, and each
    draw on its domain's compiled logits graph for [x]'s shape
    ({!Network.mc_logits}), bit-identical to {!Network.predict}.

    [cache] is an optional [(store, key)] pair memoizing the raw per-draw
    accuracies; the key must cover everything the draws depend on (network
    content hash, the model, [n], test-set identity and the evaluation
    seed).  On a hit the summary statistics are recomputed from the decoded
    [%h] bits — bit-identical to the evaluation they replace — and [rng] is
    left untouched (callers hand each evaluation its own derived generator).

    @raise Invalid_argument if [n < 1], the model fails
    {!Variation.validate}, or [y]'s length is not [x]'s row count. *)

val nominal_accuracy : Network.t -> x:Tensor.t -> y:int array -> float
(** Test accuracy of the undisturbed network: the share of rows of [x]
    whose argmax class is the label in [y]. *)

val accs_of_lines : string list -> float array
(** The decoder of an ["mceval"] cache payload (the per-draw accuracies,
    one ["accs n v…"] line).  Raises [Failure] on malformed input. *)
