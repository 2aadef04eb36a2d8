(** Experiment arms and scales shared by the table/figure runners. *)

type arm = {
  learnable : bool;  (** learnable nonlinear circuit (α_ω = 0.005 vs 0) *)
  variation_aware : bool;  (** train with ε > 0 Monte-Carlo loss *)
}

val arms : arm list
(** The four ablation arms of Table III, baseline last. *)

val arm_name : arm -> string

type scale = {
  seeds : int list;  (** training repetitions; best-val model is selected *)
  test_epsilons : float list;  (** evaluation variations (paper: 5 %, 10 %) *)
  n_mc_test : int;  (** Monte-Carlo draws at test time (paper: 100) *)
  config : Pnn.Config.t;  (** per-training hyperparameters *)
  init : [ `Centered | `Random_sign ];  (** crossbar initialization *)
  surrogate_samples : int;  (** QMC samples for the surrogate pipeline *)
  surrogate_epochs : int;
}

val init_name : [ `Centered | `Random_sign ] -> string
(** The initialization's name in cache keys. *)

val quick : scale
(** Small scale for the bench harness (minutes). *)

val committed : scale
(** The scale used for the committed EXPERIMENTS.md numbers. *)

val paper : scale
(** Full paper-scale settings (hours). *)

val fragile : scale
(** Paper-faithful optimizer fragility: the paper's α_θ = 0.1 and the naive
    random-sign initialization.  With these, the fixed-circuit baseline
    frequently under-trains — the regime in which the paper's relative
    improvements are largest (see EXPERIMENTS.md discussion). *)

val of_name : string -> scale
(** ["quick" | "committed" | "paper" | "fragile"]. Raises
    [Invalid_argument]. *)

val surrogate_of_scale : ?cache:Cache.t -> scale -> Surrogate.Model.t
(** {!Surrogate.Pipeline.ensure} for the scale; [cache] (default: disabled)
    memoizes the pipeline's chunks when the artifact is missing. *)

val surrogate_digest : Surrogate.Model.t -> string
(** Content digest of a frozen surrogate, folded into every training-cell
    key. *)
