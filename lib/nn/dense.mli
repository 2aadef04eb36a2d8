(** A fully-connected layer [y = x·W + b]. *)

type t = { w : Autodiff.t; b : Autodiff.t }

val create : Rng.t -> ?init:Init.scheme -> inputs:int -> outputs:int -> unit -> t
val forward : t -> Autodiff.t -> Autodiff.t
val forward_tensor : t -> Tensor.t -> Tensor.t

val forward_fused : Activation.t -> t -> Autodiff.t -> Autodiff.t
(** [forward_fused act t x] is [Activation.apply act (forward t x)] as one
    fused node — bit-identical values and gradients, one kernel call. *)

val forward_tensor_fused : Activation.t -> t -> Tensor.t -> Tensor.t
(** Tape-free fused counterpart of
    [Activation.apply_tensor act (forward_tensor t x)]. *)

val params : t -> Autodiff.t list
val inputs : t -> int
val outputs : t -> int
val snapshot : t -> Tensor.t * Tensor.t
(** Copies of the current weights (for best-epoch restoration). *)

val restore : t -> Tensor.t * Tensor.t -> unit
(** Write a snapshot back into the layer's parameters in place. *)
