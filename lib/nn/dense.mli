(** A fully-connected layer [y = act (x·W + b)], Xavier-initialised. *)

type t = { w : Autodiff.t; b : Autodiff.t }

val create : Rng.t -> inputs:int -> outputs:int -> t
(** Weights drawn Glorot-uniform, U[−a, a] with a = √(6 / (inputs +
    outputs)), in row-major order; zero bias. *)

val forward_fused : Activation.t -> t -> Autodiff.t -> Autodiff.t
(** [forward_fused act t x] is the layer and its activation as one fused
    node, one kernel call. *)

val forward_tensor_fused : Activation.t -> t -> Tensor.t -> Tensor.t
(** Tape-free counterpart of {!forward_fused}. *)

val params : t -> Autodiff.t list

val snapshot : t -> Tensor.t * Tensor.t
(** Copies of the current weights (for best-epoch restoration). *)

val restore : t -> Tensor.t * Tensor.t -> unit
(** Write a snapshot back into the layer's parameters in place. *)
