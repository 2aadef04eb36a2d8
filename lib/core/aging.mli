(** Aging-aware training — the extension the paper builds on (Zhao et al.,
    "Aging-Aware Training for Printed Neuromorphic Circuits", ICCAD 2022,
    reference [5]).

    Printed resistors drift over their lifetime.  We model each printed
    value's relative drift at life fraction [t ∈ [0,1]] as

      δ_i(t) = κ_i · t^β,   κ_i ~ U[0, κ_max]  (i.i.d. per component)

    with conductances decaying by (1 − δ) and the nonlinear circuits'
    resistances growing by (1 + δ); transistor geometry does not age.
    Aging-aware training minimizes the Monte-Carlo expectation of the loss
    over the device's lifetime (t ~ U[0,1]) — the same reparameterization
    machinery as variation-aware training, with a different noise law. *)

type model = {
  kappa_max : float;  (** maximum relative drift at end of life (e.g. 0.2) *)
  beta : float;  (** sub-linear drift exponent (e.g. 0.5) *)
}

val default_model : model
(** κ_max = 0.2, β = 0.5. *)

val to_variation : ?t_frac:float -> model -> Variation.model
(** The drift law as a composable {!Variation.model} — [Variation.Aging]
    with this model's parameters.  Omitting [t_frac] gives the lifetime
    sampler (t ~ U[0,1] per draw); passing it fixes the life fraction.
    Compose with other families, e.g.
    [Variation.Compose [to_variation m; Uniform 0.05]] for an aged device
    that was also printed imperfectly. *)

val draw :
  Rng.t -> model -> t_frac:float -> theta_shapes:(int * int) list -> Noise.t
(** One aging realization at a fixed life fraction. Raises
    [Invalid_argument] if [t_frac] is outside [0, 1]. *)

val draw_lifetime :
  Rng.t -> model -> theta_shapes:(int * int) list -> n:int -> Noise.t list
(** [n] realizations at life fractions drawn uniformly from [0, 1] —
    the training-time sampler. *)

val fit_aging_aware :
  ?pool:Parallel.Pool.t ->
  Rng.t -> model -> Network.t -> Training.data -> Training.result
(** {!Training.fit_under} with the lifetime model: training noise resamples
    t ~ U[0,1] every epoch, validation noise is fixed.  Train and validation
    streams are independent [Rng.split]s of [rng] — neither aliases the
    caller's stream. *)

val accuracy_over_lifetime :
  Rng.t ->
  model ->
  Network.t ->
  t_fracs:float list ->
  n:int ->
  x:Tensor.t ->
  y:int array ->
  (float * Evaluation.result) list
(** Accuracy at each life fraction, [n] Monte-Carlo κ draws each — the aging
    curve of a design.  Each draw is scored by {!Evaluation.accuracy_under}
    and summarized by {!Evaluation.summarize}.

    @raise Invalid_argument if [y]'s length is not [x]'s row count. *)
