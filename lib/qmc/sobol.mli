(** Sobol low-discrepancy sequences (Quasi Monte-Carlo).

    Gray-code construction with Joe–Kuo direction numbers; supports up to
    {!max_dimension} dimensions, which covers the paper's 7-dimensional
    nonlinear-circuit design space.  The first point of the sequence proper is
    the origin; like most practical implementations we skip it by default so
    sampled circuits are strictly inside the design box. *)

val max_dimension : int

type t

val create : ?skip:int -> int -> t
(** [create dim] starts a [dim]-dimensional sequence. [skip] drops that many
    initial points (default 1, dropping the all-zeros point). Raises
    [Invalid_argument] if [dim] is not within [1 .. max_dimension]. *)

val dimension : t -> int

val next : t -> float array
(** Next point in the unit hypercube [\[0,1)^dim]. *)

val next_in_box : t -> lo:float array -> hi:float array -> float array
(** Next point scaled to the axis-aligned box. *)
