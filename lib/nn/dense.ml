type t = { w : Autodiff.t; b : Autodiff.t }

let create rng ?(init = Init.Xavier) ~inputs ~outputs () =
  let w = Autodiff.param (Init.tensor rng init ~inputs ~outputs) in
  let b = Autodiff.param (Tensor.zeros 1 outputs) in
  { w; b }

let forward t x = Autodiff.add_rowvec (Autodiff.matmul x t.w) t.b
let forward_tensor t x = Tensor.add_rowvec (Tensor.matmul x (Autodiff.value t.w)) (Autodiff.value t.b)

(* Fused forwards: layer + activation in one node / one kernel call —
   bit-identical to [Activation.apply act (forward t x)] (resp. the
   apply_tensor chain); the win is dispatch and tape overhead, which
   dominates the 13-tiny-layer surrogate evaluation. *)
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
let inputs t = Tensor.rows (Autodiff.value t.w)
let outputs t = Tensor.cols (Autodiff.value t.w)
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
