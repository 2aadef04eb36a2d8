(** Activation functions shared by the MLP builder and the surrogate model. *)

type t = Tanh | Relu | Sigmoid | Linear

val apply : t -> Autodiff.t -> Autodiff.t
val apply_tensor : t -> Tensor.t -> Tensor.t
(** Tape-free evaluation for inference. *)

val unop : t -> Tensor.unop option
(** The tensor kernel implementing this activation ([None] for [Linear]) —
    what the fused dense forward passes to {!Autodiff.dense} /
    {!Tensor.matmul_bias_unop_into}.  [apply_tensor] is bit-identical to
    running this kernel. *)

val of_string : string -> t
(** Raises [Invalid_argument] on unknown names. *)

val to_string : t -> string
