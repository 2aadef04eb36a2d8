(** One printed neuron layer: resistor crossbar + negative-weight circuits +
    ptanh activation circuits.

    The crossbar implements Eq. 1.  Each output column z has surrogate
    conductances θ with one row per input, one bias row (V_b = 1 V) and one
    "dark" row (R_d to ground, denominator only):

      V_z = (Σ_i θ⁺_i·x_i  +  θ⁻_i·inv(x_i)) / Σ_j |θ_j|

    where θ⁺ = max(θ, 0), θ⁻ = max(−θ, 0).  Wherever θ has a definite sign
    this matches the paper's semantics (|θ| printed, sign = input inverted via
    the negative-weight circuit) while staying differentiable through zero.
    θ magnitudes are projected onto the printable set
    [{0} ∪ [G_min, G_max]] with a straight-through estimator.

    On the tape the crossbar is two nodes: the parameter-only printed
    conductances (projection, variation, θ⁺/θ⁻ and the denominator) and the
    input-dependent rest (inv(x), the matmuls and the division), so a split
    tape ({!Autodiff.split}) keeps the first out of the per-batch work.
    The layer's ptanh is one more node. *)

type t = {
  theta : Autodiff.t;  (** (n_in + 2) × n_out; rows: inputs, bias, dark *)
  act : Nonlinear.t;  (** this layer's ptanh circuit *)
  neg : Nonlinear.t;  (** this layer's negative-weight circuit *)
}

val create :
  ?init:[ `Centered | `Random_sign ] ->
  Rng.t -> Config.t -> Surrogate.Model.t -> inputs:int -> outputs:int -> t
(** [init] selects the θ initialization: [`Centered] (default) biases the
    bias/dark rows so the initial crossbar output lands on the activation
    transition; [`Random_sign] is the naive scheme (ablation). *)

val of_parts :
  Surrogate.Model.t -> theta:Tensor.t -> act_w:Tensor.t -> neg_w:Tensor.t -> t
(** Reassemble a layer from saved parts (θ and the two raw 1 × 7 𝔴 vectors);
    used by {!Serialize}. *)

val replicate : t -> t
(** Deep copy with fresh parameter leaves (θ and both 𝔴 vectors); the
    surrogate model is shared.  Used for per-domain data-parallel replicas. *)

val theta_shape : t -> int * int
val inputs : t -> int
val outputs : t -> int

val forward :
  Config.t -> t -> noise:Noise.layer_noise -> Autodiff.t -> Autodiff.t
(** Batch forward: [n × n_in] → [n × n_out] (after the ptanh activation),
    as a fresh graph: each circuit's η goes through its own surrogate pass
    ({!Nonlinear.eta}). *)

(** {2 Compiled-graph building blocks}

    In a compiled graph a draw enters through three leaves per layer, so
    the graph can be re-fed new draws in place instead of being rebuilt:
    the θ noise, and both circuits' η, which the network's η stage computes
    for every draw and layer in one surrogate batch (see {!Network}). *)

type draw_nodes = { theta_n : Autodiff.t; act_eta : Autodiff.t; neg_eta : Autodiff.t }
(** [theta_n] is a const leaf of θ's shape; [act_eta] and [neg_eta] are
    1 × 4 param leaves, so a backward pass leaves ∂L/∂η in their
    gradients. *)

val draw_nodes : t -> draw_nodes
(** Fresh leaves for this layer: all-ones θ noise, zero η. *)

val update_theta_noise : draw_nodes -> Noise.layer_noise -> bool
(** Blit the draw's θ noise into its leaf and report whether any bit
    changed ({!Autodiff.update_value}); allocation-free.  Raises
    [Invalid_argument] on a shape mismatch: check the draw with
    {!noise_misfit} first. *)

val noise_misfit : t -> Noise.layer_noise -> string option
(** [Some "theta"] or [Some "omega"] when that part of the draw does not
    fit this layer (θ's shape, 1 × 7 per circuit), [None] when the whole
    draw fits.  Lets a caller validate every layer before writing any
    leaf. *)

val forward_nodes : Config.t -> t -> draw_nodes -> Autodiff.t -> Autodiff.t
(** As {!forward}, with the draw already in the graph. *)

val preactivation :
  Config.t -> t -> noise:Noise.layer_noise -> Autodiff.t -> Autodiff.t
(** The crossbar output V_z before the activation circuit (for analysis);
    {!forward} is this followed by the activation circuit. *)

val printed_theta : Config.t -> t -> Tensor.t
(** The projected conductance matrix that would be printed (signed). *)

val params_theta : t -> Autodiff.t list
val params_omega : t -> Autodiff.t list
val snapshot : t -> Tensor.t * Tensor.t * Tensor.t
val restore : t -> Tensor.t * Tensor.t * Tensor.t -> unit
