type t = Tanh | Relu | Sigmoid | Linear

let apply t x =
  match t with
  | Tanh -> Autodiff.tanh x
  | Relu -> Autodiff.relu x
  | Sigmoid -> Autodiff.sigmoid x
  | Linear -> x

(* The tensor unop implementing each activation — the bridge the fused
   dense kernels key on.  Formulas match the former [Tensor.map] closures
   exactly (tanh; if v > 0.0 then v else 0.0; 1/(1+exp(-v))), so routing
   through the unop kernels is bit-identical while avoiding the per-element
   closure boxing. *)
let unop = function
  | Tanh -> Some Tensor.Tanh
  | Relu -> Some Tensor.Relu
  | Sigmoid -> Some Tensor.Sigmoid
  | Linear -> None

let apply_tensor t x =
  match unop t with
  | None -> x
  | Some op ->
      let dst = Tensor.zeros (Tensor.rows x) (Tensor.cols x) in
      Tensor.unop_into op x ~dst;
      dst

let of_string = function
  | "tanh" -> Tanh
  | "relu" -> Relu
  | "sigmoid" -> Sigmoid
  | "linear" -> Linear
  | s -> invalid_arg ("Activation.of_string: unknown activation " ^ s)

let to_string = function
  | Tanh -> "tanh"
  | Relu -> "relu"
  | Sigmoid -> "sigmoid"
  | Linear -> "linear"
