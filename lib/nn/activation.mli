(** Activation functions of the MLP builder and the surrogate model. *)

type t = Tanh | Linear

val unop : t -> Tensor.unop option
(** The tensor kernel implementing this activation ([None] for [Linear]) —
    what the fused dense forward passes to {!Autodiff.dense} /
    {!Tensor.matmul_bias_unop_into}. *)

val of_string : string -> t
(** Raises [Invalid_argument] on unknown names. *)

val to_string : t -> string
