type model =
  | Uniform of float
  | Gaussian of float
  | Correlated of { global : float; local : float }
  | Defects of { p_open : float; p_short : float }
  | Aging of { kappa_max : float; beta : float; t_frac : float option }
  | Compose of model list

(* [printed] is a thunk so a training-loop sampler reads the parameters the
   optimizer is currently moving, not a snapshot from ctx-creation time. *)
type ctx = {
  theta_shapes : (int * int) list;
  rails : (float * float) option; (* printable (g_min, g_max) *)
  printed : (unit -> (Tensor.t * float array * float array) list) option;
      (* per layer: printed θ, act ω values, neg ω values *)
}

let ctx_of_shapes theta_shapes = { theta_shapes; rails = None; printed = None }

let ctx_of_network network =
  let config = Network.config network in
  {
    theta_shapes = Network.theta_shapes network;
    rails = Some (config.Config.g_min, config.Config.g_max);
    printed =
      Some
        (fun () ->
          List.map
            (fun layer ->
              ( Layer.printed_theta config layer,
                Nonlinear.omega_values layer.Layer.act,
                Nonlinear.omega_values layer.Layer.neg ))
            (Network.layers network));
  }

(* Every range check is written so that NaN fails it. *)
let rec validate = function
  | Uniform epsilon ->
      if not (0.0 <= epsilon && epsilon < 1.0) then
        invalid_arg "Variation: Uniform epsilon outside [0,1)"
  | Gaussian sigma ->
      if not (0.0 <= sigma && Float.is_finite sigma) then
        invalid_arg "Variation: Gaussian sigma < 0"
  | Correlated { global; local } ->
      if not (0.0 <= global && global < 1.0 && 0.0 <= local && local < 1.0) then
        invalid_arg "Variation: Correlated magnitudes outside [0,1)"
  | Defects { p_open; p_short } ->
      if not (0.0 <= p_open && 0.0 <= p_short && p_open +. p_short <= 1.0) then
        invalid_arg "Variation: Defects probabilities outside [0,1]"
  | Aging { kappa_max; beta; t_frac } ->
      if not (0.0 <= kappa_max && kappa_max < 1.0) then
        invalid_arg "Variation: Aging kappa_max outside [0,1)";
      if not (beta > 0.0) then invalid_arg "Variation: Aging beta <= 0";
      (match t_frac with
      | Some t when not (0.0 <= t && t <= 1.0) ->
          invalid_arg "Variation: Aging t_frac outside [0,1]"
      | _ -> ())
  | Compose models -> List.iter validate models

(* [Float.equal] against 0.0 is IEEE equality: -0.0 counts, NaN does not. *)
let nominal = function Uniform epsilon -> Float.equal epsilon 0.0 | _ -> false

let omega_dim = Surrogate.Design_space.dim

(* Each family draws in the same fixed per-layer order — θ row-major, then
   the activation ω, then the negative-weight ω — sequenced explicitly with
   lets (record-literal field order is not an evaluation order). *)
let layer_noise ~theta ~act ~neg (r, c) =
  let th = theta r c in
  let a = act () in
  let ng = neg () in
  { Noise.theta = th; act_omega = a; neg_omega = ng }

let draw_gaussian rng ~sigma ~theta_shapes =
  let m _ _ =
    let z = Rng.normal rng in
    let z = Float.max (-3.0) (Float.min 3.0 z) in
    exp ((sigma *. z) -. (0.5 *. sigma *. sigma))
  in
  List.map
    (layer_noise
       ~theta:(fun r c -> Tensor.init r c m)
       ~act:(fun () -> Tensor.init 1 omega_dim m)
       ~neg:(fun () -> Tensor.init 1 omega_dim m))
    theta_shapes

let draw_correlated rng ~global ~local ~theta_shapes =
  (* one shared factor per tensor, then element-wise noise; when a magnitude
     is 0 the uniform draw collapses to exactly 1.0 (lo = hi = 1), keeping
     the consumption pattern uniform across parameter values *)
  let u magnitude = Rng.uniform rng ~lo:(1.0 -. magnitude) ~hi:(1.0 +. magnitude) in
  let tensor r c =
    let shared = u global in
    Tensor.init r c (fun _ _ -> shared *. u local)
  in
  List.map
    (layer_noise
       ~theta:(fun r c -> tensor r c)
       ~act:(fun () -> tensor 1 omega_dim)
       ~neg:(fun () -> tensor 1 omega_dim))
    theta_shapes

let draw_defects rng ~p_open ~p_short ~ctx =
  let printed =
    match ctx.printed with
    | Some f -> f ()
    | None -> invalid_arg "Variation.draw: Defects requires a network-backed ctx"
  in
  let g_min, g_max =
    match ctx.rails with
    | Some rails -> rails
    | None -> invalid_arg "Variation.draw: Defects requires a network-backed ctx"
  in
  let r_lo = Surrogate.Design_space.omega_lo
  and r_hi = Surrogate.Design_space.omega_hi in
  if List.length printed <> List.length ctx.theta_shapes then
    invalid_arg "Variation.draw: ctx layer count mismatch";
  List.map2
    (fun shape (theta_p, act_omega, neg_omega) ->
      (* one uniform per component, drawn whether or not it can fail, so the
         stream layout is independent of the current parameter values *)
      let theta r c =
        if Tensor.shape theta_p <> (r, c) then
          invalid_arg "Variation.draw: printed theta shape mismatch";
        Tensor.init r c (fun i j ->
            let u = Rng.float rng in
            let g = Tensor.get theta_p i j in
            (* pnnlint:allow R5 unprinted conductances are exactly 0.0;
               IEEE equality also treats -0.0 as unprinted *)
            if g = 0.0 then 1.0
            else if u < p_open then g_min /. Float.abs g
            else if u < p_open +. p_short then g_max /. Float.abs g
            else 1.0)
      in
      let omega values () =
        Tensor.init 1 omega_dim (fun _ j ->
            let u = Rng.float rng in
            if j >= 5 then 1.0 (* W, L: no resistor to fail *)
            else if u < p_open then r_hi.(j) /. values.(j)
            else if u < p_open +. p_short then r_lo.(j) /. values.(j)
            else 1.0)
      in
      layer_noise ~theta ~act:(omega act_omega) ~neg:(omega neg_omega) shape)
    ctx.theta_shapes printed

let draw_aging rng ~kappa_max ~beta ~t ~theta_shapes =
  let drift () = Rng.uniform rng ~lo:0.0 ~hi:kappa_max *. (t ** beta) in
  List.map
    (layer_noise
       ~theta:(fun r c -> Tensor.init r c (fun _ _ -> 1.0 -. drift ()))
       ~act:(fun () ->
         Tensor.init 1 omega_dim (fun _ j -> if j >= 5 then 1.0 else 1.0 +. drift ()))
       ~neg:(fun () ->
         Tensor.init 1 omega_dim (fun _ j -> if j >= 5 then 1.0 else 1.0 +. drift ())))
    theta_shapes

let rec draw_validated rng model ctx =
  match model with
  | Uniform epsilon ->
      (* delegate to the original implementation: bit-identical stream *)
      Noise.draw rng ~epsilon ~theta_shapes:ctx.theta_shapes
  | Gaussian sigma -> draw_gaussian rng ~sigma ~theta_shapes:ctx.theta_shapes
  | Correlated { global; local } ->
      draw_correlated rng ~global ~local ~theta_shapes:ctx.theta_shapes
  | Defects { p_open; p_short } -> draw_defects rng ~p_open ~p_short ~ctx
  | Aging { kappa_max; beta; t_frac } ->
      let t = match t_frac with Some t -> t | None -> Rng.float rng in
      draw_aging rng ~kappa_max ~beta ~t ~theta_shapes:ctx.theta_shapes
  | Compose models -> (
      (* draw each component in list order from the same stream, then take
         the element-wise product *)
      let draws = List.map (fun m -> draw_validated rng m ctx) models in
      match draws with
      | [] -> Noise.none ~theta_shapes:ctx.theta_shapes
      | first :: rest ->
          List.fold_left
            (fun acc d ->
              List.map2
                (fun (a : Noise.layer_noise) (b : Noise.layer_noise) ->
                  {
                    Noise.theta = Tensor.mul a.Noise.theta b.Noise.theta;
                    act_omega = Tensor.mul a.Noise.act_omega b.Noise.act_omega;
                    neg_omega = Tensor.mul a.Noise.neg_omega b.Noise.neg_omega;
                  })
                acc d)
            first rest)

let draw rng model ctx =
  validate model;
  draw_validated rng model ctx

let draw_many rng model ctx ~n =
  validate model;
  List.init n (fun _ -> draw_validated rng model ctx)

let mc_draws rng model ctx ~n =
  if nominal model then [ Noise.none ~theta_shapes:ctx.theta_shapes ]
  else draw_many rng model ctx ~n
