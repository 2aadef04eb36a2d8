module A = Autodiff

type t = { theta : A.t; act : Nonlinear.t; neg : Nonlinear.t }

let create ?(init = `Centered) rng config surrogate ~inputs ~outputs =
  if inputs < 1 || outputs < 1 then invalid_arg "Layer.create: empty layer";
  (* θ init. Rows: inputs, bias, dark.  `Centered (default): input
     conductances get random signs and small magnitudes while the bias and
     dark rows start positive and larger, so the initial crossbar output sits
     near the activation circuits' transition (≈ 0.3 V for the mid-range
     circuit) instead of in a flat saturated region, where training reliably
     collapses to a constant predictor.  `Random_sign is the naive scheme,
     kept for the initialization ablation. *)
  let centered r _ =
    if r < inputs then begin
      let mag = Rng.uniform rng ~lo:0.05 ~hi:0.3 in
      if Rng.float rng < 0.5 then -.mag else mag
    end
    else Rng.uniform rng ~lo:0.3 ~hi:0.6
  in
  let random_sign _ _ =
    let mag = Rng.uniform rng ~lo:config.Config.g_min ~hi:(config.Config.g_max /. 2.0) in
    if Rng.float rng < 0.5 then -.mag else mag
  in
  let f = match init with `Centered -> centered | `Random_sign -> random_sign in
  let theta = A.param (Tensor.init (inputs + 2) outputs f) in
  { theta; act = Nonlinear.create surrogate; neg = Nonlinear.create surrogate }

let of_parts surrogate ~theta ~act_w ~neg_w =
  if Tensor.rows theta < 3 then invalid_arg "Layer.of_parts: theta too small";
  let circuit w =
    if Tensor.shape w <> (1, Surrogate.Design_space.learnable_dim) then
      invalid_arg "Layer.of_parts: bad raw circuit vector";
    Nonlinear.create_from surrogate ~w_init:(Tensor.to_array w)
  in
  { theta = A.param (Tensor.copy theta); act = circuit act_w; neg = circuit neg_w }

let replicate t =
  {
    theta = A.param (Tensor.copy (A.value t.theta));
    act = Nonlinear.replicate t.act;
    neg = Nonlinear.replicate t.neg;
  }

let theta_shape t =
  Tensor.shape (A.value t.theta)

let inputs t = fst (theta_shape t) - 2
let outputs t = snd (theta_shape t)

(* Projection onto the printable set {0} ∪ [g_min, g_max] (by magnitude,
   keeping the sign); nearest-point projection, STE backward. *)
let project config v =
  let g_min = config.Config.g_min and g_max = config.Config.g_max in
  let mag = Float.abs v in
  let s = if v < 0.0 then -1.0 else 1.0 in
  if mag < g_min /. 2.0 then 0.0
  else if mag < g_min then s *. g_min
  else if mag > g_max then s *. g_max
  else v

(* Variation draws enter the graph as const leaf nodes so a compiled graph
   can be re-fed new draws with [Autodiff.set_value] + [Autodiff.refresh].
   The leaves own copies of the draw tensors: on reuse the new draw is
   blitted into them, which must never mutate a caller-owned tensor (fixed
   validation draws are reused across epochs). *)
type noise_nodes = { theta_n : A.t; act_n : A.t; neg_n : A.t }

let noise_nodes_of (noise : Noise.layer_noise) =
  {
    theta_n = A.const (Tensor.copy noise.Noise.theta);
    act_n = A.const (Tensor.copy noise.Noise.act_omega);
    neg_n = A.const (Tensor.copy noise.Noise.neg_omega);
  }

let set_noise_nodes nodes (noise : Noise.layer_noise) =
  A.set_value nodes.theta_n noise.Noise.theta;
  A.set_value nodes.act_n noise.Noise.act_omega;
  A.set_value nodes.neg_n noise.Noise.neg_omega

let update_noise_nodes nodes (noise : Noise.layer_noise) =
  let theta = A.update_value nodes.theta_n noise.Noise.theta in
  let act = A.update_value nodes.act_n noise.Noise.act_omega in
  let neg = A.update_value nodes.neg_n noise.Noise.neg_omega in
  theta || act || neg

let noise_misfit nodes (noise : Noise.layer_noise) =
  let fits leaf t =
    let v = A.value leaf in
    Tensor.rows v = Tensor.rows t && Tensor.cols v = Tensor.cols t
  in
  if not (fits nodes.theta_n noise.Noise.theta) then Some "theta"
  else if not (fits nodes.act_n noise.Noise.act_omega && fits nodes.neg_n noise.Noise.neg_omega)
  then Some "omega"
  else None

(* augment the batch with the bias column (V_b = 1) *)
let augment x =
  let batch = Tensor.rows (A.value x) in
  A.concat_cols x (A.const (Tensor.ones batch 1))

let crossbar config t ~theta_n ~x_aug ~inv_x ~n_in =
  let theta = A.mul (A.map_ste (project config) t.theta) theta_n in
  let pos = A.relu theta and neg_part = A.relu (A.neg theta) in
  let input_rows = n_in + 1 in
  (* split θ rows: input+bias rows feed the numerator; all rows (incl. the
     dark conductance) feed the denominator *)
  let pos_top = A.slice_rows pos 0 input_rows in
  let neg_top = A.slice_rows neg_part 0 input_rows in
  let numerator = A.add (A.matmul x_aug pos_top) (A.matmul inv_x neg_top) in
  let denominator = A.sum_rows (A.add pos neg_part) in
  A.div_rowvec numerator denominator

let check_width t x =
  let n_in = inputs t in
  if Tensor.cols (A.value x) <> n_in then
    invalid_arg "Layer.forward: input width mismatch";
  n_in

let forward_nodes config t nodes x =
  let n_in = check_width t x in
  let act_eta, neg_eta =
    Nonlinear.eta_pair t.act t.neg ~act_noise:nodes.act_n ~neg_noise:nodes.neg_n
  in
  let x_aug = augment x in
  let inv_x = A.neg (Nonlinear.apply_eta neg_eta x_aug) in
  let pre = crossbar config t ~theta_n:nodes.theta_n ~x_aug ~inv_x ~n_in in
  Nonlinear.apply_eta act_eta pre

let forward config t ~noise x = forward_nodes config t (noise_nodes_of noise) x

let preactivation config t ~noise x =
  let n_in = check_width t x in
  let nodes = noise_nodes_of noise in
  let _act_eta, neg_eta =
    Nonlinear.eta_pair t.act t.neg ~act_noise:nodes.act_n ~neg_noise:nodes.neg_n
  in
  let x_aug = augment x in
  let inv_x = A.neg (Nonlinear.apply_eta neg_eta x_aug) in
  crossbar config t ~theta_n:nodes.theta_n ~x_aug ~inv_x ~n_in

let printed_theta config t =
  Tensor.map (project config) (A.value t.theta)

let params_theta t = [ t.theta ]
let params_omega t = [ Nonlinear.raw_param t.act; Nonlinear.raw_param t.neg ]

let snapshot t =
  (Tensor.copy (A.value t.theta), Nonlinear.snapshot t.act, Nonlinear.snapshot t.neg)

let restore t (theta, act, neg) =
  let v = A.value t.theta in
  if Tensor.shape v <> Tensor.shape theta then invalid_arg "Layer.restore: shape mismatch";
  for r = 0 to Tensor.rows theta - 1 do
    for c = 0 to Tensor.cols theta - 1 do
      Tensor.set v r c (Tensor.get theta r c)
    done
  done;
  Nonlinear.restore t.act act;
  Nonlinear.restore t.neg neg
