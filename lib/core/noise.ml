type layer_noise = {
  theta : Tensor.t;
  act_omega : Tensor.t;
  neg_omega : Tensor.t;
}

type t = layer_noise list

let omega_dim = Surrogate.Design_space.dim

let none ~theta_shapes =
  List.map
    (fun (r, c) ->
      {
        theta = Tensor.ones r c;
        act_omega = Tensor.ones 1 omega_dim;
        neg_omega = Tensor.ones 1 omega_dim;
      })
    theta_shapes

let draw rng ~epsilon ~theta_shapes =
  if not (0.0 <= epsilon && epsilon < 1.0) then invalid_arg "Noise.draw: epsilon outside [0,1)";
  (* pnnlint:allow R5 exact-zero sentinel selects the no-noise draw;
     IEEE equality also accepts -0.0 *)
  if epsilon = 0.0 then none ~theta_shapes
  else
    let u r c = Tensor.uniform rng r c ~lo:(1.0 -. epsilon) ~hi:(1.0 +. epsilon) in
    List.map
      (fun (r, c) ->
        { theta = u r c; act_omega = u 1 omega_dim; neg_omega = u 1 omega_dim })
      theta_shapes

let draw_many rng ~epsilon ~theta_shapes ~n =
  List.init n (fun _ -> draw rng ~epsilon ~theta_shapes)
