(** Min-max feature scaling with saved bounds (paper §III-A: "the maximal and
    minimal values ω_min, ω_max, η_min and η_max are saved to perform
    denormalization later"). *)

type t

val fit : float array array -> t
(** Per-column min/max over the rows.  Columns with zero range are given unit
    range so transforms stay finite. Raises [Invalid_argument] on empty
    input. *)

val of_bounds : lo:float array -> hi:float array -> t
val lo : t -> float array

val range : t -> float array
(** [hi − lo] per component (a fresh array). *)

val dim : t -> int

val transform : t -> float array -> float array
(** [(x − lo) / (hi − lo)] per component. *)

val inverse : t -> float array -> float array

val inverse_ad : t -> Autodiff.t -> Autodiff.t
(** Differentiable inverse of a [n × dim] node. *)

val to_lines : t -> string list
val of_lines : string list -> t * string list
