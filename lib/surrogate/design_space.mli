(** The feasible design space of the nonlinear circuit (paper Table I).

    ω order everywhere: [[R1; R2; R3; R4; R5; W; L]] with resistances in Ω and
    geometry in µm.  The inequality constraints R1 > R2 and R3 > R4 are
    honoured by sampling and learning the {e ratios} k1 = R2/R1 and
    k2 = R4/R3 instead of R2 and R4, then clipping the reassembled values into
    their Table-I boxes — the same encoding the paper uses for the learnable
    parameter 𝔴 (Fig. 5). *)

val dim : int
(** 7 *)

val extended_dim : int
(** 10 — ω extended with the ratio features [k1; k2; k3 = W/L]. *)

val learnable_dim : int
(** 7 — the 𝔴 encoding [R1; R3; R5; W; L; k1; k2]. *)

val omega_lo : float array
val omega_hi : float array
(** Table-I bounds in ω order. *)

val learnable_lo : float array
val learnable_hi : float array
(** Bounds of the 𝔴 encoding; k1 and k2 span [(0.02, 0.98)]. *)

val names : string array
(** ["R1"; "R2"; ...] for reporting. *)

val assemble : float array -> float array
(** [assemble raw] maps a 𝔴-encoded point [[R1; R3; R5; W; L; k1; k2]] to a
    feasible ω: computes R2 = R1·k1 and R4 = R3·k2 and clips them to their
    boxes intersected with the strict-inequality margins. *)

val extend : float array -> float array
(** [extend omega] appends [k1; k2; k3]. *)

val contains : float array -> bool
(** Membership test for a full ω (bounds + inequalities). *)

val sample_sobol : n:int -> float array array
(** [n] feasible ω points via a 7-dim Sobol sequence over the 𝔴 encoding. *)

val sample_lhs : Rng.t -> n:int -> float array array

