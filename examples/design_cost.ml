(* The full life of a printed design: train it, print it, cost it, age it.

   1. Train a variation-aware pNN with learnable nonlinear circuits.
   2. Export the printable design (crossbar conductances + circuit ω).
   3. Estimate static power, device count and area.
   4. Measure the nonlinear stage's inference latency with the transient
      engine (printed EGTs + nF parasitics -> millisecond scale).
   5. Plot (numerically) the accuracy over the device lifetime, with and
      without aging-aware training.

   Run with: dune exec examples/design_cost.exe *)

let () =
  let surrogate = Surrogate.Pipeline.ensure ~n:2000 ~max_epochs:1500 ~seed:42 () in
  let data = Datasets.Bench13.load "acute-inflammation" in
  let spec = data.Datasets.Synth.spec in
  let split = Datasets.Synth.split (Rng.create 5) data in
  let tdata = Pnn.Training.of_split ~n_classes:spec.Datasets.Synth.classes split in
  let config =
    { Pnn.Config.default with Pnn.Config.epsilon = 0.05; max_epochs = 500; patience = 150 }
  in
  let rng = Rng.create 3 in
  let net =
    Pnn.Network.create rng config surrogate ~inputs:spec.Datasets.Synth.features
      ~outputs:spec.Datasets.Synth.classes
  in
  let result = Pnn.Training.fit rng net tdata in
  let accuracy =
    Pnn.Evaluation.mc_accuracy (Rng.create 7) result.Pnn.Training.network
      ~model:(Pnn.Variation.Uniform 0.05) ~n:50 ~x:split.Datasets.Synth.x_test
      ~y:split.Datasets.Synth.y_test
  in
  Printf.printf "task %s: accuracy %.3f +/- %.3f under 5%% variation\n\n"
    spec.Datasets.Synth.name accuracy.Pnn.Evaluation.mean accuracy.Pnn.Evaluation.std;

  (* 2. printable design *)
  print_string (Pnn.Export.design_report result.Pnn.Training.network);

  (* 3. power / devices / area *)
  print_newline ();
  let cost =
    Pnn.Power.estimate result.Pnn.Training.network ~x_sample:split.Datasets.Synth.x_train
  in
  print_string (Pnn.Power.render cost);

  (* 4. latency of each activation circuit's nonlinear stage *)
  print_newline ();
  Printf.printf "Nonlinear-stage latency (step response, nF parasitics):\n";
  List.iteri
    (fun i layer ->
      let omega =
        Circuit.Ptanh_circuit.omega_of_array
          (Pnn.Nonlinear.omega_values layer.Pnn.Layer.act)
      in
      match Circuit.Ptanh_circuit.latency omega with
      | Some t -> Printf.printf "  layer %d activation: settles in %.2f ms\n" (i + 1) (t *. 1e3)
      | None -> Printf.printf "  layer %d activation: did not settle in the window\n" (i + 1))
    (Pnn.Network.layers result.Pnn.Training.network);

  (* 5. aging curve *)
  print_newline ();
  let kappa_max = 0.2 in
  Printf.printf "Accuracy over lifetime (variation-aware-trained design, drift up to %.0f%%):\n"
    (kappa_max *. 100.0);
  let rng = Rng.create 11 in
  List.iter
    (fun t ->
      let e =
        Pnn.Evaluation.mc_accuracy rng result.Pnn.Training.network
          ~model:(Pnn.Variation.Aging { kappa_max; beta = 0.5; t_frac = Some t })
          ~n:40 ~x:split.Datasets.Synth.x_test ~y:split.Datasets.Synth.y_test
      in
      Printf.printf "  t=%.2f: %.3f +/- %.3f\n" t e.Pnn.Evaluation.mean e.Pnn.Evaluation.std)
    [ 0.0; 0.5; 1.0 ]
