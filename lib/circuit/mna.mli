(** Nonlinear DC operating-point analysis by modified nodal analysis (MNA)
    with damped Newton–Raphson.

    Unknowns are the non-ground node voltages plus one branch current per
    voltage source.  Nonlinear transistors are linearized at each iterate with
    their companion model (gm, gds stamps + equivalent current source).  A
    voltage step limiter (damping) keeps the iteration stable through the
    transistor's exponential-ish region. *)

type options = {
  max_iterations : int;
  tolerance : float;  (** convergence: max |ΔV| between iterates *)
  damping : float;  (** max voltage change per node per iteration (V) *)
  gmin : float;  (** shunt conductance to ground on every node (helps conditioning) *)
}

val default_options : options

type solution = { voltages : float array; iterations : int }
(** [voltages.(n)] is the solved voltage of node [n] ([voltages.(0) = 0]). *)

exception No_convergence of { iterations : int; residual : float }
(** Newton ran [iterations] (= [options.max_iterations]) steps without
    meeting the tolerance.  [residual] is the last iterate's max |ΔV| over
    the nodes, after damping — the quantity compared with
    [options.tolerance] — or [infinity] when no iteration ran
    ([max_iterations <= 0]). *)

type compiled
(** A validated netlist compiled for repeated DC solves: its elements as a
    stamp array in netlist order (resistors as precomputed conductances,
    capacitors dropped), one value slot per voltage source, the device
    model, and the Newton scratch — the MNA system each iteration stamps
    and factors in place, and the current iterate of node voltages.  Solving reuses all of it, so a
    sweep allocates nothing per point beyond the transistor evaluations.
    Mutable and {e not} safe to share across domains. *)

val compile : Egt.params -> Netlist.t -> compiled
(** Validates and compiles [netlist] against the device model.  Source
    values are copied: later {!Netlist.set_source} calls do not reach the
    compiled circuit.  The iterate starts at 0.5 V on every node.  Raises
    [Invalid_argument] if the netlist fails {!Netlist.validate}. *)

val source_slot : compiled -> string -> int
(** The slot of the named voltage source.  Raises [Not_found]. *)

val set_source : compiled -> int -> float -> unit
(** [set_source c slot volts] sets a source's value for the next solve. *)

val newton : ?options:options -> compiled -> int
(** Runs damped Newton from the current iterate (the previous solution
    after a solve — continuation) to the DC operating point and returns
    the iteration count; the solution is then read with {!voltage}.
    Raises {!No_convergence} after [max_iterations]. *)

val voltage : compiled -> Netlist.node -> float
(** The current iterate's voltage at a node ([voltage c 0 = 0]). *)

val solve :
  ?options:options -> ?initial:float array -> Egt.params -> Netlist.t -> solution
(** [solve model netlist] computes the DC operating point: {!compile} then
    {!newton}.  [initial] is a warm-start guess of node voltages (length
    [node_count]); the default starts every node at 0.5 V.  Raises
    {!No_convergence} after [max_iterations], and [Invalid_argument] if the
    netlist fails {!Netlist.validate} or [initial] has the wrong length. *)
