(** Regression metrics of the surrogate pipeline. *)

val mse : Tensor.t -> Tensor.t -> float
val r2 : pred:Tensor.t -> target:Tensor.t -> float
(** Coefficient of determination over all entries. *)
