let mse a b =
  if Tensor.shape a <> Tensor.shape b then invalid_arg "Metrics.mse: shape mismatch";
  let d = Tensor.sub a b in
  Tensor.sum (Tensor.mul d d) /. float_of_int (Tensor.numel a)

let r2 ~pred ~target =
  if Tensor.shape pred <> Tensor.shape target then
    invalid_arg "Metrics.r2: shape mismatch";
  let mean = Tensor.mean target in
  let ss_res = ref 0.0 and ss_tot = ref 0.0 in
  let p = Tensor.to_array pred and t = Tensor.to_array target in
  Array.iteri
    (fun i y ->
      let e = y -. p.(i) in
      ss_res := !ss_res +. (e *. e);
      let d = y -. mean in
      ss_tot := !ss_tot +. (d *. d))
    t;
  1.0 -. (!ss_res /. Stdlib.max !ss_tot 1e-30)
