(** From trained pNN to printable circuit design.

    In the paper's framing, {e training} a pNN {e is} designing a printed
    neuromorphic circuit: the learned |θ| are the crossbar conductances to
    print (sign ⇒ route the input through a negative-weight circuit), and the
    learned 𝔴 are the physical component values of the nonlinear subcircuits.
    This module renders that design, and closes the loop by re-simulating the
    learned nonlinear circuits with the MNA solver to measure how honest the
    surrogate was at the chosen design point. *)

(* Reserved for the ROADMAP items "Surrogate fidelity, measured in volts
   against the simulator" and "The composed circuit: simulate the trained
   pNN as one netlist"; today only examples/ and tests call it. *)

type circuit_check = {
  layer : int;
  kind : [ `Activation | `Negative_weight ];
  omega : float array;  (** learned printable ω *)
  surrogate_eta : Fit.Ptanh.eta;  (** what training believed *)
  simulated_eta : Fit.Ptanh.eta;  (** ground truth: MNA simulation + LM fit *)
  curve_rmse : float;
      (** RMS difference between the surrogate-predicted transfer curve and
          the simulated curve over the 0–1 V sweep *)
}

val design_report : Network.t -> string
(** Human-readable design: per layer, the printable conductance matrix (zeros
    = not printed, sign = negative-weight routing) and both nonlinear
    circuits' component values with their behavioural η. *)

val verify_activations : ?points:int -> Network.t -> circuit_check list
(** Re-simulate every learned nonlinear circuit (paper Fig. 1 topology) and
    fit Eq. 2; reports the surrogate-vs-silicon gap per circuit. *)

val render_checks : circuit_check list -> string
