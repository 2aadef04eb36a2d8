(** Ablation benches for this reproduction's own design choices (DESIGN.md §5)
    — beyond the paper's Table III ablation, which lives in {!Table3}. *)

val sampler_ablation : unit -> string
(** Sobol (paper) vs Latin hypercube vs i.i.d. uniform sampling of the design
    space: surrogate validation MSE at an equal simulation budget (1200
    samples, 800 surrogate epochs). *)

val architecture_ablation : unit -> string
(** The paper's deep narrow 13-layer surrogate vs shallow alternatives. *)

val initialization_ablation : ?cache:Cache.t -> unit -> string
(** Transition-centred crossbar initialization (ours) vs naive random-sign
    initialization: fraction of non-collapsed trainings and mean accuracy
    over four seeds on two benchmark tasks.  [cache] (default: disabled)
    memoizes each training cell. *)

val cell_of_lines : string list -> float * float
(** The decoder of an ["ablcell"] cache payload (["acc <accuracy>
    <majority fraction>"]).  Raises [Failure] on malformed input. *)

val temperature_ablation : unit -> string
(** Softmax temperature (logit scale) vs accuracy and variation robustness,
    for the best-validation-loss network of three seeds. *)

val depth_ablation : unit -> string
(** pNN depth: the paper's one-hidden-layer topology vs deeper stacks (the
    "future work" extension enabled by {!Pnn.Network.create_deep}).  Each
    layout reports the nominal test accuracy of its best-validation-loss
    network over two seeds. *)
