(** A (learnable) nonlinear subcircuit instance inside a pNN.

    Implements the paper's Fig. 5 processing chain for the learnable
    parameter 𝔴:

      𝔴 --sigmoid--> (0,1)^7 --denormalize--> [R1; R3; R5; W; L; k1; k2]
        --reassemble (R2 = R1·k1, R4 = R3·k2, clip)--> printable ω
        --× ε_ω (variation)--> --extend + normalize--> surrogate η̂ --> η

    and the resulting tanh-like transfer applied to layer pre-activations:

      ptanh(v) = η1 + η2·tanh((v − η3)·η4)          (Eq. 2)
      inv(v)   = −ptanh(v)                          (Eq. 3)

    The clipping of R2 and R4 uses the straight-through estimator so training
    can push against the box.  The map from 𝔴 to ω and Eq. 2 are one tape
    node each, bit-identical to the graphs of primitives they replace. *)

type t

val create : Surrogate.Model.t -> t
(** Fresh instance with 𝔴 = 0, i.e. the mid-range circuit (all sigmoid
    outputs 0.5).  This is also the paper's fixed, non-learnable circuit: with
    α_ω = 0 the parameters simply never move. *)

val create_from : Surrogate.Model.t -> w_init:float array -> t
(** Start from a specific raw 𝔴 (length 7, pre-sigmoid). *)

val raw_param : t -> Autodiff.t
(** The learnable 1 × 7 leaf (pre-sigmoid 𝔴). *)

val replicate : t -> t
(** Deep copy with a fresh parameter leaf (the surrogate is shared,
    read-only); used to build per-domain network replicas. *)

val printable_omega : t -> noise:Tensor.t -> Autodiff.t
(** The 1 × 7 printable ω node after reassembly, clipping and variation —
    what would be sent to the printer (with [noise] all-ones).  A NaN
    R1·k1 or R3·k2 passes its clip unchanged, so a fault is never masked as
    a bound. *)

val eta_dim : int
(** 4: η = [η1; η2; η3; η4]. *)

val eta : t -> noise:Tensor.t -> Autodiff.t
(** The 1 × 4 η node of one circuit under one ε_ω draw: {!printable_omega}
    through the surrogate η̂, as a fresh graph. *)

val eta_rows : t array -> noise:Autodiff.t -> Autodiff.t * Tensor.t
(** [eta_rows circuits ~noise] is {!eta} stacked over draws, in one
    surrogate batch: [noise] is [(n · k) × 7] for [k] circuits, row [r]
    holding circuit [r mod k]'s ε_ω in draw [r / k], and the node's row
    [r] is that circuit's η under it.  Every op on the surrogate path
    treats rows independently, with a fixed per-row order, so each row is
    bit-identical to the circuit's {!eta} under that draw alone.

    Backward, each row's 𝔴 gradient — what a one-draw graph gave the
    circuit in that draw — is left in the returned [(n · k) × 7] tensor,
    and each circuit's 𝔴 receives the draw-order fold of its rows: their
    sum, from draw 0 on.  Raises [Invalid_argument] unless [noise]'s
    shape fits [circuits] and the circuits share one surrogate. *)

val apply_eta : Autodiff.t -> Autodiff.t -> Autodiff.t
(** [apply_eta η v] is ptanh(v) for an already-evaluated 1 × 4 η node: one
    tape node running {!Tensor.ptanh_into} forward and
    {!Tensor.ptanh_bwd_into} backward. *)

val apply : t -> noise:Tensor.t -> Autodiff.t -> Autodiff.t
(** [apply t ~noise v] is ptanh(v) elementwise over the batch. *)

val omega_values : t -> float array
(** Current printable ω (no variation), as plain floats — for reports. *)

val eta_values : t -> Fit.Ptanh.eta
(** Current η (no variation) through the surrogate. *)

val snapshot : t -> Tensor.t
val restore : t -> Tensor.t -> unit
