(** Generic training loop with validation-based early stopping.

    The loop is deliberately abstract over the model: the caller supplies a
    thunk that rebuilds the (possibly stochastic) training-loss graph, a thunk
    that evaluates the validation loss, and snapshot/restore callbacks for
    best-epoch weight keeping.  Both the surrogate regressor and the pNN
    training of the paper instantiate this loop. *)

type config = {
  max_epochs : int;
  patience : int;  (** epochs without validation improvement before stopping *)
  val_every : int;
      (** evaluate the validation loss every [val_every] epochs (≥ 1).  The
          Monte-Carlo validation loss of variation-aware training is as
          expensive as a training step, so pNN training uses 5. *)
}

val default_config : config

type history = {
  train_losses : float array;
  val_losses : float array;
  best_epoch : int;  (** epoch index of the best validation loss *)
  best_val_loss : float;
  stopped_early : bool;
}

type state = {
  mutable epoch : int;  (** next epoch to run (= epochs completed so far) *)
  mutable train_hist : float list;  (** newest first *)
  mutable val_hist : float list;  (** newest first *)
  mutable best_val : float;
  mutable best_epoch : int;
  mutable epochs_since_best : int;
  mutable stopped_early : bool;
}
(** The loop's full mutable progress, exposed so checkpointing can persist it
    and resume can re-enter the loop mid-run.  Together with the parameter
    tensors, the best-weights snapshot, the optimizer state and the RNG
    stream position, this is everything the loop reads. *)

val fresh_state : unit -> state
(** A start-of-training state ([epoch = 0], empty histories). *)

val run :
  ?state:state ->
  ?on_epoch:(state -> unit) ->
  config:config ->
  optimizers:(Optimizer.t * Autodiff.t list) list ->
  train_loss:(unit -> Autodiff.t) ->
  val_loss:(unit -> float) ->
  snapshot:(unit -> unit) ->
  restore:(unit -> unit) ->
  unit ->
  history
(** Runs until [max_epochs] or patience exhaustion, keeping the best weights
    (by validation loss) via [snapshot]; calls [restore] before returning so
    the model ends at its best validation epoch.  A NaN validation loss is
    never the best: if no epoch's loss is below [infinity], [best_val_loss]
    stays [infinity] and [restore] is not called.  Each optimizer updates
    its own parameter group, enabling the paper's two learning rates.

    [state] (default {!fresh_state}) is where progress lives; pass a restored
    one to resume mid-run — the loop continues from [state.epoch] exactly as
    if it had never stopped.  [on_epoch] fires after every completed epoch
    with the up-to-date state (the checkpoint hook); it is not called on the
    epoch that trips early stopping. *)
