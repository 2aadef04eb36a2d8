(* Tests for the printed-neural-network core. *)

module A = Autodiff
module T = Tensor
module C = Pnn.Config

let surrogate =
  lazy
    (let dataset = Surrogate.Pipeline.generate_dataset ~n:250 () in
     let model, _ =
       Surrogate.Pipeline.train_surrogate ~arch:[ 10; 8; 6; 4 ] ~max_epochs:300
         (Rng.create 42) dataset
     in
     model)

let config = C.default
let ones_noise net = Pnn.Noise.none ~theta_shapes:(Pnn.Network.theta_shapes net)

(* every entry strictly inside (−bound, bound) *)
let within bound t = Array.for_all (fun v -> v > -.bound && v < bound) (T.to_array t)

let make_net ?(seed = 1) ?(config = config) ~inputs ~outputs () =
  Pnn.Network.create (Rng.create seed) config (Lazy.force surrogate) ~inputs ~outputs

(* {1 Config} *)

let test_config_helpers () =
  Alcotest.(check bool) "default learnable" true (C.learnable C.default);
  Alcotest.(check bool) "non-learnable" false (C.learnable (C.with_learnable C.default false));
  Alcotest.(check (float 0.0)) "epsilon" 0.07 (C.with_epsilon C.default 0.07).C.epsilon;
  Alcotest.(check (float 0.0)) "paper lr" 0.1 (C.paper ()).C.lr_theta

(* {1 Noise} *)

let test_noise_none_is_ones () =
  let n = Pnn.Noise.none ~theta_shapes:[ (3, 2); (4, 1) ] in
  Alcotest.(check int) "two layers" 2 (List.length n);
  List.iter
    (fun ln ->
      Alcotest.(check (float 0.0)) "theta ones" 1.0 (T.mean ln.Pnn.Noise.theta);
      Alcotest.(check (float 0.0)) "omega ones" 1.0 (T.mean ln.Pnn.Noise.act_omega))
    n

let test_noise_draw_bounds () =
  let rng = Rng.create 3 in
  let n = Pnn.Noise.draw rng ~epsilon:0.1 ~theta_shapes:[ (6, 4) ] in
  List.iter
    (fun ln ->
      Array.iter
        (fun v ->
          if v < 0.9 || v > 1.1 then Alcotest.failf "noise out of band: %f" v)
        (T.to_array ln.Pnn.Noise.theta))
    n

let test_noise_zero_epsilon_is_none () =
  let rng = Rng.create 3 in
  let n = Pnn.Noise.draw rng ~epsilon:0.0 ~theta_shapes:[ (2, 2) ] in
  List.iter
    (fun ln -> Alcotest.(check (float 0.0)) "ones" 1.0 (T.mean ln.Pnn.Noise.theta))
    n

let test_noise_invalid_epsilon () =
  Alcotest.check_raises "eps" (Invalid_argument "Noise.draw: epsilon outside [0,1)")
    (fun () ->
      ignore (Pnn.Noise.draw (Rng.create 1) ~epsilon:1.5 ~theta_shapes:[ (1, 1) ]))

(* {1 Nonlinear} *)

let test_nonlinear_printable_feasible () =
  let nl = Pnn.Nonlinear.create (Lazy.force surrogate) in
  let omega = Pnn.Nonlinear.omega_values nl in
  Alcotest.(check bool) "printable omega feasible" true
    (Surrogate.Design_space.contains omega)

let test_nonlinear_eta_changes_with_w () =
  let s = Lazy.force surrogate in
  let a = Pnn.Nonlinear.create s in
  let b = Pnn.Nonlinear.create_from s ~w_init:[| 2.0; -2.0; 1.0; -1.0; 2.0; 1.5; -0.5 |] in
  let ea = Pnn.Nonlinear.eta_values a and eb = Pnn.Nonlinear.eta_values b in
  Alcotest.(check bool) "different circuits -> different eta" true
    (Float.abs (ea.Fit.Ptanh.eta1 -. eb.Fit.Ptanh.eta1) > 1e-6
    || Float.abs (ea.Fit.Ptanh.eta4 -. eb.Fit.Ptanh.eta4) > 1e-6)

let test_nonlinear_gradient_to_w () =
  let nl = Pnn.Nonlinear.create (Lazy.force surrogate) in
  let noise = T.ones 1 7 in
  let x = A.const (T.of_array [| 0.2; 0.6 |]) in
  A.backward (Nodes.sum (Pnn.Nonlinear.apply nl ~noise x));
  let g = A.grad (Pnn.Nonlinear.raw_param nl) in
  Alcotest.(check bool) "gradient reaches w" true (T.sum (T.map Float.abs g) > 0.0)

let test_nonlinear_snapshot_restore () =
  let nl = Pnn.Nonlinear.create (Lazy.force surrogate) in
  let snap = Pnn.Nonlinear.snapshot nl in
  let v = A.value (Pnn.Nonlinear.raw_param nl) in
  T.set v 0 0 3.0;
  Pnn.Nonlinear.restore nl snap;
  Alcotest.(check (float 0.0)) "restored" 0.0 (T.get v 0 0)

(* {1 Layer} *)

let test_layer_shapes () =
  let layer =
    Pnn.Layer.create (Rng.create 2) config (Lazy.force surrogate) ~inputs:4 ~outputs:3
  in
  Alcotest.(check (pair int int)) "theta shape" (6, 3) (Pnn.Layer.theta_shape layer);
  Alcotest.(check int) "inputs" 4 (Pnn.Layer.inputs layer);
  Alcotest.(check int) "outputs" 3 (Pnn.Layer.outputs layer)

let test_layer_forward_shape_and_range () =
  let layer =
    Pnn.Layer.create (Rng.create 2) config (Lazy.force surrogate) ~inputs:4 ~outputs:3
  in
  let noise =
    List.hd (Pnn.Noise.none ~theta_shapes:[ Pnn.Layer.theta_shape layer ])
  in
  let x = A.const (T.uniform (Rng.create 5) 8 4 ~lo:0.0 ~hi:1.0) in
  let y = A.value (Pnn.Layer.forward config layer ~noise x) in
  Alcotest.(check (pair int int)) "batch preserved" (8, 3) (T.shape y);
  (* the ptanh family stays within the supply rails *)
  Alcotest.(check bool) "bounded" true (within 1.1 y)

let test_layer_input_width_check () =
  let layer =
    Pnn.Layer.create (Rng.create 2) config (Lazy.force surrogate) ~inputs:4 ~outputs:2
  in
  let noise = List.hd (Pnn.Noise.none ~theta_shapes:[ Pnn.Layer.theta_shape layer ]) in
  Alcotest.check_raises "width" (Invalid_argument "Layer.forward: input width mismatch")
    (fun () ->
      ignore (Pnn.Layer.forward config layer ~noise (A.const (T.ones 2 3))))

let test_printed_theta_in_printable_set () =
  let layer =
    Pnn.Layer.create (Rng.create 7) config (Lazy.force surrogate) ~inputs:5 ~outputs:4
  in
  (* push some raw values outside the feasible set *)
  let v = A.value layer.Pnn.Layer.theta in
  T.set v 0 0 3.7;
  T.set v 1 0 (-2.0);
  T.set v 2 0 0.004;
  T.set v 3 0 0.007;
  let printed = Pnn.Layer.printed_theta config layer in
  Array.iter
    (fun g ->
      let mag = Float.abs g in
      if not (Float.equal mag 0.0 || (mag >= config.C.g_min -. 1e-12 && mag <= config.C.g_max +. 1e-12))
      then Alcotest.failf "unprintable conductance %f" g)
    (T.to_array printed);
  Alcotest.(check (float 0.0)) "overflow clipped" 1.0 (T.get printed 0 0);
  Alcotest.(check (float 0.0)) "negative clipped" (-1.0) (T.get printed 1 0);
  Alcotest.(check (float 0.0)) "tiny zeroed" 0.0 (T.get printed 2 0);
  Alcotest.(check (float 0.0)) "sub-gmin snapped" 0.01 (T.get printed 3 0)

let test_layer_gradients_flow () =
  let layer =
    Pnn.Layer.create (Rng.create 11) config (Lazy.force surrogate) ~inputs:3 ~outputs:2
  in
  let noise = List.hd (Pnn.Noise.none ~theta_shapes:[ Pnn.Layer.theta_shape layer ]) in
  let x = A.const (T.uniform (Rng.create 5) 4 3 ~lo:0.0 ~hi:1.0) in
  A.backward (Nodes.sum (Pnn.Layer.forward config layer ~noise x));
  let gsum p = T.sum (T.map Float.abs (A.grad p)) in
  Alcotest.(check bool) "theta grad" true (gsum layer.Pnn.Layer.theta > 0.0);
  List.iter
    (fun p -> Alcotest.(check bool) "omega grads" true (gsum p > 0.0))
    (Pnn.Layer.params_omega layer)

(* {1 Network} *)

let test_network_topology () =
  let net = make_net ~inputs:5 ~outputs:3 () in
  Alcotest.(check int) "two layers" 2 (List.length (Pnn.Network.layers net));
  Alcotest.(check (list (pair int int)))
    "theta shapes: (in+2) x hidden, (hidden+2) x out"
    [ (7, 3); (5, 3) ]
    (Pnn.Network.theta_shapes net)

let test_network_param_groups () =
  let net = make_net ~inputs:4 ~outputs:2 () in
  Alcotest.(check int) "theta params" 2 (List.length (Pnn.Network.params_theta net));
  Alcotest.(check int) "omega params: 2 per layer" 4
    (List.length (Pnn.Network.params_omega net))

let test_network_noise_changes_output () =
  let net = make_net ~inputs:4 ~outputs:3 () in
  let x = T.uniform (Rng.create 9) 6 4 ~lo:0.0 ~hi:1.0 in
  let clean = A.value (Pnn.Network.logits net ~noise:(ones_noise net) x) in
  let noisy_draw =
    Pnn.Noise.draw (Rng.create 17) ~epsilon:0.1
      ~theta_shapes:(Pnn.Network.theta_shapes net)
  in
  let noisy = A.value (Pnn.Network.logits net ~noise:noisy_draw x) in
  Alcotest.(check bool) "variation shifts outputs" false (T.equal ~eps:1e-9 clean noisy)

let test_network_loss_positive () =
  let net = make_net ~inputs:4 ~outputs:3 () in
  let x = T.uniform (Rng.create 9) 6 4 ~lo:0.0 ~hi:1.0 in
  let labels = Datasets.Synth.one_hot ~n_classes:3 [| 0; 1; 2; 0; 1; 2 |] in
  let l = Pnn.Network.loss net ~noise:(ones_noise net) ~x ~labels in
  Alcotest.(check bool) "loss positive" true (T.get (A.value l) 0 0 > 0.0)

let test_network_mc_loss_averages () =
  let net = make_net ~inputs:3 ~outputs:2 () in
  let x = T.uniform (Rng.create 9) 4 3 ~lo:0.0 ~hi:1.0 in
  let labels = Datasets.Synth.one_hot ~n_classes:2 [| 0; 1; 0; 1 |] in
  let shapes = Pnn.Network.theta_shapes net in
  let noises = Pnn.Noise.draw_many (Rng.create 3) ~epsilon:0.05 ~theta_shapes:shapes ~n:4 in
  let mc = T.get (A.value (Net_oracle.mc_loss net ~noises ~x ~labels)) 0 0 in
  let mean_manual =
    List.fold_left
      (fun acc noise -> acc +. T.get (A.value (Pnn.Network.loss net ~noise ~x ~labels)) 0 0)
      0.0 noises
    /. 4.0
  in
  Alcotest.(check (float 1e-9)) "mc = mean of draws" mean_manual mc

let test_network_snapshot_restore () =
  let net = make_net ~inputs:3 ~outputs:2 () in
  let x = T.uniform (Rng.create 9) 4 3 ~lo:0.0 ~hi:1.0 in
  let before = A.value (Pnn.Network.logits net ~noise:(ones_noise net) x) in
  let snap = Pnn.Network.snapshot net in
  (* perturb all thetas *)
  List.iter
    (fun p ->
      let v = A.value p in
      for r = 0 to T.rows v - 1 do
        for c = 0 to T.cols v - 1 do
          T.set v r c (T.get v r c +. 0.3)
        done
      done)
    (Pnn.Network.params_theta net);
  Pnn.Network.restore net snap;
  let after = A.value (Pnn.Network.logits net ~noise:(ones_noise net) x) in
  Alcotest.(check bool) "function restored" true (T.equal ~eps:1e-12 before after)

(* {1 Training and evaluation} *)

let blob_split () =
  let data =
    Datasets.Synth.generate
      {
        Datasets.Synth.name = "blob";
        features = 3;
        classes = 2;
        samples = 160;
        modes_per_class = 1;
        class_sep = 0.3;
        spread = 0.06;
        label_noise = 0.0;
        priors = None;
        seed = 31;
      }
  in
  Datasets.Synth.split (Rng.create 8) data

let test_training_learns_blobs () =
  let split = blob_split () in
  let cfg = { config with C.max_epochs = 250; patience = 250; epsilon = 0.0 } in
  let result =
    Pnn.Training.train_fresh (Rng.create 4) cfg (Lazy.force surrogate) ~n_classes:2 split
  in
  let acc =
    Pnn.Evaluation.nominal_accuracy result.Pnn.Training.network
      ~x:split.Datasets.Synth.x_test ~y:split.Datasets.Synth.y_test
  in
  Alcotest.(check bool) (Printf.sprintf "blob accuracy %.3f > 0.9" acc) true (acc > 0.9)

let test_variation_aware_training_runs () =
  let split = blob_split () in
  let cfg =
    { config with C.max_epochs = 40; patience = 40; epsilon = 0.1; n_mc_train = 3 }
  in
  let result =
    Pnn.Training.train_fresh (Rng.create 4) cfg (Lazy.force surrogate) ~n_classes:2 split
  in
  Alcotest.(check bool) "finite val loss" true (Float.is_finite result.Pnn.Training.val_loss)

let test_non_learnable_keeps_omega_fixed () =
  let split = blob_split () in
  let cfg =
    C.with_learnable { config with C.max_epochs = 30; patience = 30 } false
  in
  let result =
    Pnn.Training.train_fresh (Rng.create 4) cfg (Lazy.force surrogate) ~n_classes:2 split
  in
  List.iter
    (fun layer ->
      let raw = A.value (Pnn.Nonlinear.raw_param layer.Pnn.Layer.act) in
      Alcotest.(check (float 0.0)) "omega untouched" 0.0 (T.sum (T.map Float.abs raw)))
    (Pnn.Network.layers result.Pnn.Training.network)

let test_learnable_moves_omega () =
  let split = blob_split () in
  let cfg = { config with C.max_epochs = 60; patience = 60 } in
  let result =
    Pnn.Training.train_fresh (Rng.create 4) cfg (Lazy.force surrogate) ~n_classes:2 split
  in
  let moved =
    List.exists
      (fun layer ->
        let raw = A.value (Pnn.Nonlinear.raw_param layer.Pnn.Layer.act) in
        T.sum (T.map Float.abs raw) > 1e-6)
      (Pnn.Network.layers result.Pnn.Training.network)
  in
  Alcotest.(check bool) "omega learned" true moved

let test_mc_accuracy_stats () =
  let split = blob_split () in
  let cfg = { config with C.max_epochs = 120; patience = 120 } in
  let result =
    Pnn.Training.train_fresh (Rng.create 4) cfg (Lazy.force surrogate) ~n_classes:2 split
  in
  let eval =
    Pnn.Evaluation.mc_accuracy (Rng.create 5) result.Pnn.Training.network
      ~model:(Pnn.Variation.Uniform 0.05) ~n:20 ~x:split.Datasets.Synth.x_test
      ~y:split.Datasets.Synth.y_test
  in
  Alcotest.(check int) "20 draws" 20 (Array.length eval.Pnn.Evaluation.accuracies);
  Alcotest.(check bool) "mean in [0,1]" true
    (eval.Pnn.Evaluation.mean >= 0.0 && eval.Pnn.Evaluation.mean <= 1.0);
  Alcotest.(check bool) "std >= 0" true (eval.Pnn.Evaluation.std >= 0.0)

let test_mc_accuracy_nominal_single_draw () =
  let net = make_net ~inputs:3 ~outputs:2 () in
  let x = T.uniform (Rng.create 2) 10 3 ~lo:0.0 ~hi:1.0 in
  let y = Array.init 10 (fun i -> i mod 2) in
  let eval =
    Pnn.Evaluation.mc_accuracy (Rng.create 5) net ~model:(Pnn.Variation.Uniform 0.0) ~n:50
      ~x ~y
  in
  Alcotest.(check int) "single eval at eps=0" 1 (Array.length eval.Pnn.Evaluation.accuracies);
  Alcotest.(check (float 0.0)) "no spread" 0.0 eval.Pnn.Evaluation.std

let test_export_design_report () =
  let net = make_net ~inputs:3 ~outputs:2 () in
  let report = Pnn.Export.design_report net in
  List.iter
    (fun needle ->
      let found =
        let nl = String.length needle and hl = String.length report in
        let rec go i = i + nl <= hl && (String.sub report i nl = needle || go (i + 1)) in
        go 0
      in
      if not found then Alcotest.failf "design report missing %S" needle)
    [ "Layer 1"; "Layer 2"; "bias"; "dark"; "activation (ptanh)"; "negative-weight"; "R1=" ]

let test_export_verify_activations () =
  let net = make_net ~inputs:3 ~outputs:2 () in
  let checks = Pnn.Export.verify_activations ~points:15 net in
  Alcotest.(check int) "2 circuits per layer" 4 (List.length checks);
  List.iter
    (fun c ->
      Alcotest.(check bool) "rmse finite" true (Float.is_finite c.Pnn.Export.curve_rmse);
      Alcotest.(check bool) "learned omega feasible" true
        (Surrogate.Design_space.contains c.Pnn.Export.omega))
    checks

let test_mc_accuracy_invalid_n () =
  let net = make_net ~inputs:2 ~outputs:2 () in
  Alcotest.check_raises "n" (Invalid_argument "Evaluation.mc_accuracy: n < 1") (fun () ->
      ignore
        (Pnn.Evaluation.mc_accuracy (Rng.create 1) net ~model:(Pnn.Variation.Uniform 0.1)
           ~n:0 ~x:(T.ones 1 2) ~y:[| 0 |]))

(* {1 End-to-end gradient checks}

   Finite differences through the complete printed-layer chain: crossbar
   (relu split, STE projection, div_rowvec), negative-weight activation, and
   the frozen-surrogate ptanh.  Parameter values are kept strictly inside the
   printable region so the STE projection is locally the identity and honest
   finite differences apply. *)

let fd_check ~get ~set ~loss_fn ~analytic_grad ~n tol label =
  let h = 1e-5 in
  for i = 0 to n - 1 do
    let orig = get i in
    set i (orig +. h);
    let fp = loss_fn () in
    set i (orig -. h);
    let fm = loss_fn () in
    set i orig;
    let numeric = (fp -. fm) /. (2.0 *. h) in
    let a = analytic_grad i in
    let scale = Stdlib.max 1.0 (Stdlib.max (Float.abs a) (Float.abs numeric)) in
    if Float.abs (a -. numeric) /. scale > tol then
      Alcotest.failf "%s: grad mismatch at %d: analytic %.8f vs numeric %.8f" label i a
        numeric
  done

let test_layer_theta_gradient_end_to_end () =
  let layer =
    Pnn.Layer.create (Rng.create 5) config (Lazy.force surrogate) ~inputs:3 ~outputs:2
  in
  (* place θ well inside the printable region, mixed signs *)
  let v = A.value layer.Pnn.Layer.theta in
  let rng = Rng.create 11 in
  for r = 0 to T.rows v - 1 do
    for c = 0 to T.cols v - 1 do
      let mag = Rng.uniform rng ~lo:0.1 ~hi:0.6 in
      T.set v r c (if Rng.float rng < 0.5 then -.mag else mag)
    done
  done;
  let x = T.uniform (Rng.create 7) 4 3 ~lo:0.1 ~hi:0.9 in
  let noise = List.hd (Pnn.Noise.none ~theta_shapes:[ Pnn.Layer.theta_shape layer ]) in
  let loss_graph () =
    Nodes.sum (Pnn.Layer.forward config layer ~noise (A.const x))
  in
  let loss_fn () = T.get (A.value (loss_graph ())) 0 0 in
  let grads = ref (T.zeros 1 1) in
  A.backward (loss_graph ());
  grads := T.copy (A.grad layer.Pnn.Layer.theta);
  let cols = T.cols v in
  fd_check
    ~get:(fun i -> T.get v (i / cols) (i mod cols))
    ~set:(fun i value -> T.set v (i / cols) (i mod cols) value)
    ~loss_fn
    ~analytic_grad:(fun i -> T.get !grads (i / cols) (i mod cols))
    ~n:(T.numel v) 2e-3 "theta end-to-end"

let test_layer_omega_gradient_end_to_end () =
  let layer =
    Pnn.Layer.create (Rng.create 5) config (Lazy.force surrogate) ~inputs:3 ~outputs:2
  in
  let x = T.uniform (Rng.create 7) 4 3 ~lo:0.1 ~hi:0.9 in
  let noise = List.hd (Pnn.Noise.none ~theta_shapes:[ Pnn.Layer.theta_shape layer ]) in
  let raw = A.value (Pnn.Nonlinear.raw_param layer.Pnn.Layer.act) in
  (* mildly off-centre raw 𝔴 keeps sigmoid/clip regions smooth *)
  for c = 0 to T.cols raw - 1 do
    T.set raw 0 c (0.3 *. float_of_int (c - 3))
  done;
  let loss_graph () = Nodes.sum (Pnn.Layer.forward config layer ~noise (A.const x)) in
  let loss_fn () = T.get (A.value (loss_graph ())) 0 0 in
  A.backward (loss_graph ());
  let grads = T.copy (A.grad (Pnn.Nonlinear.raw_param layer.Pnn.Layer.act)) in
  fd_check
    ~get:(fun i -> T.get raw 0 i)
    ~set:(fun i value -> T.set raw 0 i value)
    ~loss_fn
    ~analytic_grad:(fun i -> T.get grads 0 i)
    ~n:(T.cols raw) 2e-3 "omega end-to-end"

(* {1 Serialization} *)

let test_serialize_roundtrip () =
  let net = make_net ~inputs:4 ~outputs:3 () in
  let x = T.uniform (Rng.create 9) 5 4 ~lo:0.0 ~hi:1.0 in
  let before = A.value (Pnn.Network.logits net ~noise:(ones_noise net) x) in
  let lines = Pnn.Serialize.to_lines net in
  let net', rest = Pnn.Serialize.of_lines (Lazy.force surrogate) lines in
  Alcotest.(check int) "consumed" 0 (List.length rest);
  let after = A.value (Pnn.Network.logits net' ~noise:(ones_noise net') x) in
  Alcotest.(check bool) "same function" true (T.equal ~eps:1e-12 before after)

let test_serialize_file_roundtrip () =
  let net = make_net ~inputs:3 ~outputs:2 () in
  let path = Filename.temp_file "pnn" ".txt" in
  Pnn.Serialize.save_file net path;
  let net' = Pnn.Serialize.load_file (Lazy.force surrogate) path in
  Sys.remove path;
  let x = T.uniform (Rng.create 2) 4 3 ~lo:0.0 ~hi:1.0 in
  Alcotest.(check bool) "file roundtrip" true
    (T.equal ~eps:1e-12
       (A.value (Pnn.Network.logits net ~noise:(ones_noise net) x))
       (A.value (Pnn.Network.logits net' ~noise:(ones_noise net') x)))

let test_serialize_bad_input () =
  match Pnn.Serialize.of_lines (Lazy.force surrogate) [ "garbage" ] with
  | exception Failure _ -> ()
  | _ -> Alcotest.fail "expected failure"

(* {1 Aging} *)

let aging t_frac = Pnn.Variation.Aging { kappa_max = 0.2; beta = 0.5; t_frac }

let aging_draw t_frac theta_shapes =
  Pnn.Variation.draw (Rng.create 1) (aging (Some t_frac))
    (Pnn.Variation.ctx_of_shapes theta_shapes)

let test_aging_draw_shapes_and_range () =
  let kappa_max = 0.2 in
  List.iter
    (fun ln ->
      Array.iter
        (fun v ->
          if v > 1.0 || v < 1.0 -. kappa_max -. 1e-9 then
            Alcotest.failf "theta multiplier out of range: %f" v)
        (T.to_array ln.Pnn.Noise.theta);
      (* omegas grow; geometry (last two entries) untouched *)
      let o = T.to_array ln.Pnn.Noise.act_omega in
      Array.iteri
        (fun j v ->
          if j >= 5 then Alcotest.(check (float 0.0)) "geometry does not age" 1.0 v
          else if v < 1.0 || v > 1.0 +. kappa_max +. 1e-9 then
            Alcotest.failf "omega multiplier out of range: %f" v)
        o)
    (aging_draw 1.0 [ (5, 3) ])

let test_aging_fresh_device_unaged () =
  List.iter
    (fun ln ->
      Alcotest.(check (float 1e-12)) "no drift at t=0" 1.0 (T.mean ln.Pnn.Noise.theta))
    (aging_draw 0.0 [ (3, 2) ])

let test_aging_invalid_t () =
  Alcotest.check_raises "t_frac" (Invalid_argument "Variation: Aging t_frac outside [0,1]")
    (fun () -> ignore (aging_draw 1.5 [ (1, 1) ]))

let test_aging_aware_training_runs () =
  let split = blob_split () in
  let cfg = { config with C.max_epochs = 40; patience = 40; n_mc_train = 3 } in
  let tdata = Pnn.Training.of_split ~n_classes:2 split in
  let net =
    Pnn.Network.create (Rng.create 4) cfg (Lazy.force surrogate) ~inputs:3 ~outputs:2
  in
  let result = Pnn.Training.fit ~model:(aging None) (Rng.create 4) net tdata in
  Alcotest.(check bool) "finite val loss" true (Float.is_finite result.Pnn.Training.val_loss)

let test_aging_curve_shape () =
  let net = make_net ~inputs:3 ~outputs:2 () in
  let x = T.uniform (Rng.create 2) 12 3 ~lo:0.0 ~hi:1.0 in
  let y = Array.init 12 (fun i -> i mod 2) in
  let rng = Rng.create 5 in
  List.iter
    (fun t ->
      let e =
        Pnn.Evaluation.mc_accuracy rng net ~model:(aging (Some t)) ~n:10 ~x ~y
      in
      Alcotest.(check int) "10 draws" 10 (Array.length e.Pnn.Evaluation.accuracies);
      Alcotest.(check bool) "accuracy in [0,1]" true
        (e.Pnn.Evaluation.mean >= 0.0 && e.Pnn.Evaluation.mean <= 1.0))
    [ 0.0; 1.0 ]

(* {1 Properties} *)

let qcheck_forward_bounded =
  QCheck.Test.make ~name:"network outputs stay within activation rails" ~count:30
    QCheck.(pair (int_range 0 1000) (int_range 1 6))
    (fun (seed, batch) ->
      let net = make_net ~seed ~inputs:3 ~outputs:2 () in
      let x = T.uniform (Rng.create seed) batch 3 ~lo:0.0 ~hi:1.0 in
      let noise =
        Pnn.Noise.draw (Rng.create (seed + 1)) ~epsilon:0.1
          ~theta_shapes:(Pnn.Network.theta_shapes net)
      in
      let out = A.value (Pnn.Network.forward net ~noise (A.const x)) in
      within 1.5 out)

let qcheck_denominator_positive =
  QCheck.Test.make ~name:"crossbar normalization never divides by zero" ~count:50
    QCheck.(int_range 0 10_000)
    (fun seed ->
      let layer =
        Pnn.Layer.create (Rng.create seed) config (Lazy.force surrogate) ~inputs:4
          ~outputs:3
      in
      let noise =
        List.hd (Pnn.Noise.none ~theta_shapes:[ Pnn.Layer.theta_shape layer ])
      in
      let x = T.uniform (Rng.create (seed + 5)) 3 4 ~lo:0.0 ~hi:1.0 in
      let vz = A.value (Pnn.Layer.preactivation config layer ~noise (A.const x)) in
      Array.for_all Float.is_finite (T.to_array vz))

let () =
  Alcotest.run "pnn"
    [
      ( "config+noise",
        [
          Alcotest.test_case "config helpers" `Quick test_config_helpers;
          Alcotest.test_case "noise none" `Quick test_noise_none_is_ones;
          Alcotest.test_case "noise bounds" `Quick test_noise_draw_bounds;
          Alcotest.test_case "noise eps=0" `Quick test_noise_zero_epsilon_is_none;
          Alcotest.test_case "noise invalid" `Quick test_noise_invalid_epsilon;
        ] );
      ( "nonlinear",
        [
          Alcotest.test_case "printable feasible" `Quick test_nonlinear_printable_feasible;
          Alcotest.test_case "eta responds to w" `Quick test_nonlinear_eta_changes_with_w;
          Alcotest.test_case "gradient to w" `Quick test_nonlinear_gradient_to_w;
          Alcotest.test_case "snapshot" `Quick test_nonlinear_snapshot_restore;
        ] );
      ( "layer",
        [
          Alcotest.test_case "shapes" `Quick test_layer_shapes;
          Alcotest.test_case "forward" `Quick test_layer_forward_shape_and_range;
          Alcotest.test_case "width check" `Quick test_layer_input_width_check;
          Alcotest.test_case "printable projection" `Quick test_printed_theta_in_printable_set;
          Alcotest.test_case "gradients flow" `Quick test_layer_gradients_flow;
          Alcotest.test_case "theta gradient (finite diff)" `Quick
            test_layer_theta_gradient_end_to_end;
          Alcotest.test_case "omega gradient (finite diff)" `Quick
            test_layer_omega_gradient_end_to_end;
        ] );
      ( "network",
        [
          Alcotest.test_case "topology" `Quick test_network_topology;
          Alcotest.test_case "param groups" `Quick test_network_param_groups;
          Alcotest.test_case "noise changes output" `Quick test_network_noise_changes_output;
          Alcotest.test_case "loss positive" `Quick test_network_loss_positive;
          Alcotest.test_case "mc loss averages" `Quick test_network_mc_loss_averages;
          Alcotest.test_case "snapshot/restore" `Quick test_network_snapshot_restore;
        ] );
      ( "training+eval",
        [
          Alcotest.test_case "learns blobs" `Quick test_training_learns_blobs;
          Alcotest.test_case "variation-aware runs" `Quick test_variation_aware_training_runs;
          Alcotest.test_case "fixed omega stays" `Quick test_non_learnable_keeps_omega_fixed;
          Alcotest.test_case "learnable moves omega" `Quick test_learnable_moves_omega;
          Alcotest.test_case "mc accuracy stats" `Quick test_mc_accuracy_stats;
          Alcotest.test_case "nominal single draw" `Quick test_mc_accuracy_nominal_single_draw;
          Alcotest.test_case "invalid n" `Quick test_mc_accuracy_invalid_n;
          Alcotest.test_case "export design report" `Quick test_export_design_report;
          Alcotest.test_case "export verify circuits" `Quick test_export_verify_activations;
        ] );
      ( "serialize",
        [
          Alcotest.test_case "lines roundtrip" `Quick test_serialize_roundtrip;
          Alcotest.test_case "file roundtrip" `Quick test_serialize_file_roundtrip;
          Alcotest.test_case "bad input" `Quick test_serialize_bad_input;
        ] );
      ( "aging",
        [
          Alcotest.test_case "draw ranges" `Quick test_aging_draw_shapes_and_range;
          Alcotest.test_case "fresh device" `Quick test_aging_fresh_device_unaged;
          Alcotest.test_case "invalid t" `Quick test_aging_invalid_t;
          Alcotest.test_case "aging-aware training" `Quick test_aging_aware_training_runs;
          Alcotest.test_case "aging curve" `Quick test_aging_curve_shape;
        ] );
      ( "properties",
        [
          QCheck_alcotest.to_alcotest qcheck_forward_bounded;
          QCheck_alcotest.to_alcotest qcheck_denominator_positive;
        ] );
    ]
