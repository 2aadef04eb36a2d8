(** Electrolyte-gated transistor (EGT) compact model.

    Printed inorganic EGTs (Rasheed et al., IEEE TED 2019) are n-type
    enhancement devices operating below 1 V.  We use a smoothed square-law
    model with a tanh drain-saturation characteristic — the standard compact
    form for analog hand analysis:

      I_D = K·(W/L)·ov² · tanh(V_DS / max(ov, v_eps)) · (1 + λ·V_DS)
      ov  = α·softplus((V_GS − V_TH)/α)          (smooth overdrive)

    The softplus smoothing keeps the model C¹ across the threshold, which the
    Newton solver needs; the tanh interpolates triode → saturation.  Absolute
    currents are calibrated so that with the Table-I load resistors and a 1 V
    supply the inverter swings rail-to-rail (what the training flow needs is
    the {e shape family} of the transfer curves, see DESIGN.md §2). *)

type params = {
  k_prime : float;  (** transconductance factor K (A/V²) per W/L square *)
  v_th : float;  (** threshold voltage (V) *)
  lambda : float;  (** channel-length modulation (1/V) *)
  alpha : float;  (** softplus smoothing width (V) *)
}

val default : params
(** Calibrated for the printed pPDK-like regime used in this reproduction. *)

type scratch = {
  mutable vgs : float;  (** input: V_GS *)
  mutable vds : float;  (** input: V_DS *)
  mutable id : float;  (** output: drain current *)
  mutable gm : float;  (** output: ∂I_D/∂V_GS *)
  mutable gds : float;  (** output: ∂I_D/∂V_DS *)
}
(** Inputs and outputs of {!evaluate_into}, which lets a caller evaluate the
    model without allocating: a call across modules boxes its float
    arguments and any returned record, while the scratch's fields are
    stored flat.  One scratch serves one caller at a time. *)

val scratch : unit -> scratch

val evaluate_into : params -> w_um:float -> l_um:float -> scratch -> unit
(** [evaluate_into p ~w_um ~l_um s] evaluates the model at [s.vgs],
    [s.vds] and writes the drain current and its partial derivatives
    w.r.t. V_GS and V_DS into [s.id], [s.gm] and [s.gds].  Handles negative
    [vds] by antisymmetry (source/drain swap), so the Newton solver can
    wander through sign changes.  Allocation-free.  Raises
    [Invalid_argument] on a non-positive [w_um] or [l_um]. *)
