(** DC transfer-curve extraction.

    Sweeps a named voltage source and records an output node voltage, warm-
    starting each solve from the previous operating point (continuation), the
    same strategy SPICE's [.dc] uses to keep Newton on the right branch. *)

type point = { vin : float; vout : float }

val linspace : float -> float -> int -> float array
(** [linspace lo hi n] with [n >= 2] inclusive endpoints. *)

val run :
  ?options:Mna.options ->
  model:Egt.params ->
  netlist:Netlist.t ->
  source:string ->
  output:Netlist.node ->
  sweep:float array ->
  unit ->
  point array
(** Compiles [netlist] once ({!Mna.compile}) and solves each sweep point
    on it; [netlist] itself is not modified.  Raises [Invalid_argument] for
    an invalid netlist, [Not_found] if no source is named [source], and
    {!Mna.No_convergence} if any point fails to converge. *)
