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

let inputs t = Tensor.rows (A.value t.theta) - 2
let outputs t = Tensor.cols (A.value t.theta)

(* Projection onto the printable set {0} ∪ [g_min, g_max] (by magnitude,
   keeping the sign); nearest-point projection, STE backward.  Inlined so
   the crossbar's loop never boxes a float. *)
let[@inline] project config v =
  let g_min = config.Config.g_min and g_max = config.Config.g_max in
  let mag = Float.abs v in
  let s = if v < 0.0 then -1.0 else 1.0 in
  if mag < g_min /. 2.0 then 0.0
  else if mag < g_min then s *. g_min
  else if mag > g_max then s *. g_max
  else v

(* A draw enters a compiled graph as leaves: the θ noise as a const leaf
   and both circuits' η as 1 × 4 leaves that the η stage fills (see
   Network), so the graph can be re-fed new draws in place.  The η leaves
   are params, so a backward pass leaves ∂L/∂η in their gradients for the
   stage's surrogate backward.  The θ leaf owns a copy of the draw: on
   reuse the new draw is blitted into it, which must never mutate a
   caller-owned tensor (fixed validation draws are reused across
   epochs). *)
type draw_nodes = { theta_n : A.t; act_eta : A.t; neg_eta : A.t }

let draw_nodes t =
  let rows, cols = theta_shape t in
  let eta () = A.param (Tensor.zeros 1 Nonlinear.eta_dim) in
  { theta_n = A.const (Tensor.ones rows cols); act_eta = eta (); neg_eta = eta () }

let update_theta_noise nodes (noise : Noise.layer_noise) =
  A.update_value nodes.theta_n noise.Noise.theta

let noise_misfit t (noise : Noise.layer_noise) =
  let fits v rows cols = Tensor.rows v = rows && Tensor.cols v = cols in
  let omega v = fits v 1 Surrogate.Design_space.dim in
  if not (fits noise.Noise.theta (inputs t + 2) (outputs t)) then Some "theta"
  else if not (omega noise.Noise.act_omega && omega noise.Noise.neg_omega) then Some "omega"
  else None

(* {2 The crossbar (Eq. 1) as two tape nodes}

   [conductances] is the parameter-only half: the printed conductances
   θ_p = project(θ)·ε_θ split into θ⁺ = max(θ_p, 0) and θ⁻ = max(−θ_p, 0),
   packed with the denominator Σ_j (θ⁺ + θ⁻) into one
   (2(n_in + 1) + 1) × n_out value: θ⁺'s input and bias rows, θ⁻'s, then
   the denominator row (the dark row only enters the denominator).
   [crossbar] is the input-dependent half, one Tensor.crossbar_into call
   forward and one Tensor.crossbar_bwd_into backward: inv(x) through the
   negative-weight circuit, the two matmuls and the normalisation, with
   the bias column V_b = 1 folded into the kernel rather than concatenated
   onto x.  The split keeps the parameter-only work in the fixed part of a
   split tape (Autodiff.split), so serving re-runs only [crossbar].

   Both replay the graph they replaced (bias concatenation, projection,
   noise product, relus, slices, sums, matmuls, row division) operation
   for operation.  Their backward passes are that graph's per-node
   gradients in its backward order: every interior node's first
   accumulation a [0.0 +.], θ's share through θ⁻ before the one through
   θ⁺, and x's share through the negative-weight circuit before the one
   through the θ⁺ matmul — the reason inv(x) lives inside [crossbar]
   rather than in a node of its own, which would receive its gradient
   first.  The bias concatenation's gradient buffer held [0.0 +.] of a sum
   that is never −0.0 nor a signalling NaN, so x receiving that sum's
   first n_in columns directly is bit-identical. *)

let conductances config t ~theta_n =
  let theta = A.value t.theta in
  let rows = Tensor.rows theta and n = Tensor.cols theta in
  let k = rows - 1 in
  let th = Array.make (rows * n) 0.0 and eps = Array.make (rows * n) 0.0 in
  let te = Array.make (rows * n) 0.0 and packed = Array.make (((2 * k) + 1) * n) 0.0 in
  let[@inline] relu x = if x > 0.0 then x else 0.0 in
  let forward dst =
    Tensor.read_into (A.value t.theta) th;
    Tensor.read_into (A.value theta_n) eps;
    Array.fill packed (2 * k * n) n 0.0;
    for r = 0 to rows - 1 do
      for c = 0 to n - 1 do
        let i = (r * n) + c in
        let v = project config th.(i) *. eps.(i) in
        te.(i) <- v;
        let pos = relu v and neg = relu (-.v) in
        if r < k then begin
          packed.(i) <- pos;
          packed.((k * n) + i) <- neg
        end;
        let d = (2 * k * n) + c in
        packed.(d) <- packed.(d) +. (pos +. neg)
      done
    done;
    Tensor.write_from packed dst
  in
  let out = Tensor.zeros ((2 * k) + 1) n in
  forward out;
  let dtheta = A.scratch_of rows n in
  A.fused out [ t.theta; theta_n ] ~recompute:forward ~backward:(fun g ->
      Tensor.read_into g packed;
      for r = 0 to rows - 1 do
        for c = 0 to n - 1 do
          let i = (r * n) + c and gden = 0.0 +. packed.((2 * k * n) + c) in
          let gpos = if r < k then gden +. packed.(i) else gden in
          let gneg = if r < k then gden +. packed.((k * n) + i) else gden in
          let v = te.(i) in
          let gnt = 0.0 +. (gneg *. if -.v > 0.0 then 1.0 else 0.0) in
          let gt = 0.0 +. -.gnt +. (gpos *. if v > 0.0 then 1.0 else 0.0) in
          th.(i) <- 0.0 +. (gt *. eps.(i))
        done
      done;
      let dtheta = dtheta () in
      Tensor.write_from th dtheta;
      A.accumulate t.theta dtheta)

let crossbar ~x ~neg_eta ~conductances =
  let module T = Tensor in
  let xv = A.value x in
  let m = T.rows xv and k = T.cols xv and n = T.cols (A.value conductances) in
  let h = T.zeros m (k + 1) and inv_x = T.zeros m (k + 1) and num = T.zeros m n in
  let forward dst =
    T.crossbar_into ~x:(A.value x) ~eta:(A.value neg_eta) ~cond:(A.value conductances) ~h
      ~inv_x ~num ~dst
  in
  let out = T.zeros m n in
  forward out;
  let gnum = A.scratch_of m n and d_eta = A.scratch_of 1 4 in
  let d_cond = A.scratch_of ((2 * (k + 1)) + 1) n in
  let dx = if A.needs_grad x then Some (T.zeros m k) else None in
  A.fused out [ x; neg_eta; conductances ] ~recompute:forward ~backward:(fun g ->
      let d_eta = d_eta () and d_cond = d_cond () in
      T.crossbar_bwd_into ~x:(A.value x) ~eta:(A.value neg_eta) ~cond:(A.value conductances)
        ~h ~inv_x ~num ~g ~gnum:(gnum ()) ~dx ~deta:d_eta ~dcond:d_cond;
      A.accumulate neg_eta d_eta;
      (match dx with Some d -> A.accumulate x d | None -> ());
      A.accumulate conductances d_cond)

(* Eq. 1's wiring, once: the crossbar's two halves, given the draw's θ
   noise and the negative-weight circuit's η. *)
let preactivation_nodes config t ~theta_n ~neg_eta x =
  if Tensor.cols (A.value x) <> inputs t then
    invalid_arg "Layer.forward: input width mismatch";
  crossbar ~x ~neg_eta ~conductances:(conductances config t ~theta_n)

let forward_nodes config t nodes x =
  Nonlinear.apply_eta nodes.act_eta
    (preactivation_nodes config t ~theta_n:nodes.theta_n ~neg_eta:nodes.neg_eta x)

(* The uncompiled graph: each circuit's η through its own surrogate pass. *)
let fresh_nodes t (noise : Noise.layer_noise) =
  {
    theta_n = A.const noise.Noise.theta;
    act_eta = Nonlinear.eta t.act ~noise:noise.Noise.act_omega;
    neg_eta = Nonlinear.eta t.neg ~noise:noise.Noise.neg_omega;
  }

let forward config t ~noise x = forward_nodes config t (fresh_nodes t noise) x

let preactivation config t ~noise x =
  preactivation_nodes config t ~theta_n:(A.const noise.Noise.theta)
    ~neg_eta:(Nonlinear.eta t.neg ~noise:noise.Noise.neg_omega) x

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
