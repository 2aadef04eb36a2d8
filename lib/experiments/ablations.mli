(** Ablation benches for this reproduction's own design choices (DESIGN.md §5)
    — beyond the paper's Table III ablation, which lives in {!Table3}. *)

val sampler_ablation : ?n:int -> ?epochs:int -> unit -> string
(** Sobol (paper) vs Latin hypercube vs i.i.d. uniform sampling of the design
    space: surrogate validation MSE at an equal simulation budget. *)

val architecture_ablation : ?n:int -> ?epochs:int -> unit -> string
(** The paper's deep narrow 13-layer surrogate vs shallow alternatives. *)

val initialization_ablation : ?seeds:int -> unit -> string
(** Transition-centred crossbar initialization (ours) vs naive random-sign
    initialization: fraction of non-collapsed trainings and mean accuracy on
    two benchmark tasks. *)

val cell_of_lines : string list -> float * float
(** The decoder of an ["ablcell"] cache payload (["acc <accuracy>
    <majority fraction>"]).  Raises [Failure] on malformed input. *)

val temperature_ablation : ?seeds:int -> unit -> string
(** Softmax temperature (logit scale) vs accuracy and variation robustness. *)

val depth_ablation : ?seeds:int -> unit -> string
(** pNN depth: the paper's one-hidden-layer topology vs deeper stacks (the
    "future work" extension enabled by {!Pnn.Network.create_deep}). *)
