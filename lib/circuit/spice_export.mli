(** Export netlists to SPICE (ngspice-compatible) text.

    Lets a design produced in this reproduction be cross-checked in a real
    SPICE: passives map to standard cards and the EGT compact model is
    emitted as a behavioural current source (B-source) implementing the same
    smoothed square-law equation as {!Egt}. *)

(* Reserved for the ROADMAP item "The composed circuit: simulate the trained
   pNN as one netlist", which gives it its first non-test caller. *)

val to_spice : ?title:string -> ?model:Egt.params -> Netlist.t -> string
(** Complete netlist file ending in [.end].  Node 0 is SPICE ground. *)

val ptanh_circuit : ?title:string -> Ptanh_circuit.omega -> string
(** Convenience: the paper's nonlinear circuit for a given ω, with a
    [.dc] sweep card matching {!Ptanh_circuit.transfer}. *)
