type t = { w : Autodiff.t; b : Autodiff.t }

let create rng ~inputs ~outputs =
  let a = sqrt (6.0 /. float_of_int (inputs + outputs)) in
  let w = Autodiff.param (Tensor.uniform rng inputs outputs ~lo:(-.a) ~hi:a) in
  let b = Autodiff.param (Tensor.zeros 1 outputs) in
  { w; b }

(* Layer + activation in one node / one kernel call: dispatch and tape
   overhead dominate the 13-tiny-layer surrogate evaluation. *)
let forward_fused act t x = Autodiff.dense ?op:(Activation.unop act) x t.w t.b

let forward_tensor_fused act t x =
  let w = Autodiff.value t.w and b = Autodiff.value t.b in
  let m = Tensor.rows x and n = Tensor.cols w in
  let pre = Tensor.zeros m n in
  match Activation.unop act with
  | None ->
      Tensor.matmul_bias_unop_into x w b ~pre ~out:pre;
      pre
  | Some op ->
      let out = Tensor.zeros m n in
      Tensor.matmul_bias_unop_into ~op x w b ~pre ~out;
      out

let params t = [ t.w; t.b ]
let snapshot t = (Tensor.copy (Autodiff.value t.w), Tensor.copy (Autodiff.value t.b))

let write_into dst src =
  let d = Autodiff.value dst in
  if Tensor.shape d <> Tensor.shape src then
    invalid_arg "Dense.restore: shape mismatch";
  for r = 0 to Tensor.rows src - 1 do
    for c = 0 to Tensor.cols src - 1 do
      Tensor.set d r c (Tensor.get src r c)
    done
  done

let restore t (w, b) =
  write_into t.w w;
  write_into t.b b
