(** The Adam optimizer (Kingma & Ba), the paper's only one.

    An optimizer owns per-parameter state keyed by the parameter node, so the
    same optimizer instance must be used across steps.  [step] consumes the
    gradients accumulated by the last {!Autodiff.backward} and updates the
    parameter tensors in place.

    The paper trains with Adam (default settings) and two learning rates:
    α_θ = 0.1 for crossbar conductances and α_ω ∈ {0, 0.005} for the
    nonlinear-circuit parameters — hence [step] takes the parameter list, and
    distinct optimizers can drive distinct parameter groups. *)

type t

val adam : ?beta1:float -> ?beta2:float -> ?eps:float -> lr:float -> unit -> t
(** Defaults: beta1 = 0.9, beta2 = 0.999, eps = 1e-8 (Kingma & Ba). *)

val step : t -> Autodiff.t list -> unit
(** Apply one update to every parameter in the list using its current
    gradient. Raises [Invalid_argument] if a node is not a parameter.
    Updates run in place: parameter tensors and the Adam moment estimates
    are mutated directly, with no per-step tensor allocation (beyond the
    one-time state created on a parameter's first step). *)

val state_lines : t -> Autodiff.t list -> string list
(** Serialize the optimizer's per-parameter state for the given parameter
    group as text lines ([%h] floats, bit-exact).  State is addressed
    positionally by the list, so {!read_state} must be given the same
    parameters in the same order. *)

val read_state : t -> Autodiff.t list -> string list -> (unit -> unit) * string list
(** [read_state t params lines] reads and checks this optimizer's section of
    [lines] without touching [t], and returns a thunk that installs it
    (re-keying moment estimates onto [params]) with the remaining lines.  A
    caller restoring several optimizers reads every section before
    installing any.  Raises [Failure] on malformed input, a parameter-count
    or size mismatch, or a missing or non-Adam section. *)
