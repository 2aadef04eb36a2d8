(** Nominal and variation-aware training of pNNs (paper §III-C).

    Nominal training minimizes the deterministic loss L(θ, 𝔴).  Variation-
    aware training minimizes the Monte-Carlo estimate of
    E_{ε_θ, ε_ω}[L(ε_θ·θ, ε_ω·ω)] with N fresh draws per epoch.  Two Adam
    optimizers drive the two parameter groups (α_θ, α_ω); α_ω = 0 reproduces
    the non-learnable ablation arm. *)

type data = {
  x_train : Tensor.t;
  y_train : Tensor.t;  (** one-hot *)
  x_val : Tensor.t;
  y_val : Tensor.t;
}

type result = {
  network : Network.t;
  history : Nn.Train.history;
  val_loss : float;  (** best validation loss (MC-averaged when ε > 0) *)
}

val of_split : n_classes:int -> Datasets.Synth.split -> data

type checkpoint = {
  ckpt_path : string;  (** blob file location (inside the cache tree) *)
  every : int;  (** write a checkpoint every [every] completed epochs *)
  interrupt_after : int option;
      (** crash-injection test hook: raise {!Interrupted} once this many
          epochs have completed (after any due checkpoint write) *)
}
(** Periodic checkpointing for {!fit}: every state the loop reads — weights,
    best snapshot, progress, optimizer moments, in-loop RNG position — is
    persisted atomically, and {!fit} restores from [ckpt_path] before the
    first epoch, so an interrupted run rerun with the same checkpoint
    finishes bit-identically to an uninterrupted one.  A missing, corrupt or
    mismatched checkpoint silently falls back to a fresh start. *)

exception Interrupted
(** Raised by the [interrupt_after] hook; propagates out of {!fit} like any
    crash would. *)

val fit :
  ?pool:Parallel.Pool.t ->
  ?model:Variation.model ->
  ?checkpoint:checkpoint ->
  Rng.t ->
  Network.t ->
  data ->
  result
(** Trains the given network in place and restores the best-validation
    weights.  Each epoch's loss is the Monte-Carlo mean over
    [n_mc_train] fresh draws of [model] ({!Variation.mc_draws}); early
    stopping reads the mean over [n_mc_val] fixed draws.  [model] defaults
    to the config's [Uniform epsilon], the paper's variation-aware training;
    [Uniform 0.] is nominal training, one all-ones draw for training and one
    for validation.  Any other model — a fault family, aging over the
    lifetime — trains against that law instead.  Fresh training draws read
    the {e current} parameters, so defect models track the optimizer.
    Raises [Invalid_argument] on an ill-formed model ({!Variation.validate})
    before touching [rng].

    {b Streams.}  Without [model], training noise comes from [rng] itself
    and the validation draws from one [Rng.split rng], taken only when
    [epsilon > 0] and before any training draw.  With [model], [rng] is
    advanced by exactly two splits — training stream first, then
    validation — and neither derived stream aliases it.

    The per-epoch Monte-Carlo loss runs data-parallel over [pool] (default:
    the shared {!Parallel.get_pool}) via {!Network.mc_loss_pooled}; noises
    are drawn on the training loop's domain, so the RNG stream and the
    resulting parameter trajectory are bit-identical for any pool size.
    Every [checkpoint] saves the training stream's position, so a resumed
    run continues the noise sequence exactly. *)

val train_fresh :
  ?pool:Parallel.Pool.t ->
  ?init:[ `Centered | `Random_sign ] ->
  ?checkpoint:checkpoint ->
  Rng.t -> Config.t -> Surrogate.Model.t -> n_classes:int -> Datasets.Synth.split -> result
(** Convenience: build the paper-topology network for a dataset split and
    {!fit} it. *)

val result_lines : result -> string list
val result_of_lines : Surrogate.Model.t -> string list -> result
(** Cache codec for a completed run (network + full history, [%h]-exact:
    a cache hit is bit-identical to the compute it replaced).
    [result_of_lines] raises [Failure] on malformed input. *)
