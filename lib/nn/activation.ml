type t = Tanh | Linear

(* The tensor unop implementing each activation — the bridge the fused
   dense kernels key on. *)
let unop = function Tanh -> Some Tensor.Tanh | Linear -> None

let of_string = function
  | "tanh" -> Tanh
  | "linear" -> Linear
  | s -> invalid_arg ("Activation.of_string: unknown activation " ^ s)

let to_string = function Tanh -> "tanh" | Linear -> "linear"
