(** Circuit netlists.

    Nodes are small integers; node 0 is ground.  A netlist is a builder whose
    source values {!set_source} can edit between solves; {!Mna.compile}
    snapshots it for repeated solves such as a DC sweep. *)

type node = int

type element =
  | Resistor of { a : node; b : node; ohms : float }
  | Vsource of { name : string; plus : node; minus : node; volts : float }
  | Transistor of { gate : node; drain : node; source : node; w_um : float; l_um : float }

type t

val ground : node

val create : unit -> t
(** Empty netlist with only the ground node. *)

val fresh_node : t -> node
val add : t -> element -> unit
val set_source : t -> string -> float -> unit
(** Update the voltage of a named source in place (sweeps). Raises
    [Not_found] if no source has that name. *)

val elements : t -> element list
(** Elements in insertion order. *)

val node_count : t -> int
(** Number of nodes including ground. *)

val validate : t -> (unit, string) result
(** Checks that every referenced node was allocated, resistances are positive
    and source names are unique. *)
