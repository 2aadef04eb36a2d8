(** Extension experiment: fault injection beyond the paper's noise model.

    The paper trains and tests under one non-ideality (i.i.d. uniform
    printing variation).  This experiment stress-tests the same training
    machinery against the {!Pnn.Variation} families — gaussian process
    spread, correlated within-crossbar mismatch, and hard stuck-at defects —
    in three views:

    - a Table III-style {e mismatch grid}: networks trained under each model
      (plus a nominal baseline), evaluated under every model;
    - accuracy vs. {e total defect rate} (split evenly between stuck-open
      and stuck-short) for every trained arm;
    - accuracy vs. gaussian {e σ} for every trained arm.

    Each cell is a full {!Pnn.Evaluation.result} — the min/quantiles
    matter here, because rare catastrophic defect draws vanish in a mean.
    All RNG streams are derived from fixed arithmetic tags and every
    reduction is in fixed order, so results are bit-identical for any
    [REPRO_JOBS] worker count. *)

type t = {
  dataset : string;
  epsilon : float;  (** severity anchor for the train/test families *)
  train_arms : string list;  (** ["nominal"] + one per family, in order *)
  test_families : string list;
  grid : ((string * string) * Pnn.Evaluation.result) list;
      (** keyed by (train arm, test family) *)
  defect_sweep : (string * (float * Pnn.Evaluation.result) list) list;
      (** per train arm: (total defect rate, result) *)
  sigma_sweep : (string * (float * Pnn.Evaluation.result) list) list;
      (** per train arm: (gaussian σ, result) *)
}

val families : float -> (string * Pnn.Variation.model) list
(** The four test families anchored at severity [epsilon]: uniform ε,
    gaussian ε/2, correlated ε/2+ε/2, defects 3 %+1 %. *)

val jobs :
  cache:Cache.t ->
  ?checkpoint_every:int ->
  dataset:string ->
  epsilon:float ->
  Setup.scale ->
  Surrogate.Model.t ->
  Seeds.job list
(** Every (arm, seed) training cell of {!run} on benchmark [dataset], in the
    order it trains them: ["nominal"], then one arm per {!families} entry,
    each over every seed.  A job trained anywhere lands on exactly the
    ["faultcell"] entry {!run} reads back.  [checkpoint_every] turns on
    checkpoints at that cadence.  Raises [Invalid_argument] when [epsilon]
    makes a family ill-formed (NaN included). *)

val run :
  ?pool:Parallel.Pool.t ->
  ?cache:Cache.t ->
  ?checkpoints:bool ->
  ?progress:(string -> unit) ->
  ?dataset:string ->
  ?epsilon:float ->
  Setup.scale ->
  Surrogate.Model.t ->
  t
(** Defaults: dataset ["seeds"], [epsilon = 0.10].  Trains every seed of
    each arm with {!Pnn.Training.fit} under the arm's model and keeps the
    one {!Seeds.train} chooses (best validation loss, as Table II does),
    then evaluates every view with {!Pnn.Evaluation.mc_accuracy} at
    [scale.n_mc_test] draws per cell.  Raises [Invalid_argument] before
    any training when [epsilon] makes a family ill-formed (NaN included).

    [cache] (default {!Cache.disabled}) memoizes per-(arm, seed) trainings
    and per-cell Monte-Carlo evaluations — keys cover the arm's fault model
    and both stream indices, so arms sharing a config never collide; hits
    are bit-identical to the computes they replace.  [checkpoints] as in
    {!Table2.run}.  Training goes through {!jobs}: per arm, {!Seeds.train}
    runs over the arm's per-seed jobs. *)

val render : t -> string

val to_csv_rows : t -> string list * string list list
(** (header, rows): [kind,train_model,test_model,param,mean,std,min,q05,
    median,q95]. *)
