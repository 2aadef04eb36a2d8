(* Quickstart: design a printed neuromorphic circuit for a small
   classification task.

   1. Obtain the surrogate nonlinear-circuit model (cached pipeline run).
   2. Load a benchmark dataset and split it 60/20/20.
   3. Train a pNN with a learnable nonlinear circuit, variation-aware (5 %).
   4. Evaluate accuracy under 100 Monte-Carlo variation draws.

   Run with: dune exec examples/quickstart.exe *)

let () =
  let seed = 1 in
  let surrogate = Surrogate.Pipeline.ensure ~n:2000 ~max_epochs:1500 ~seed:42 () in
  let dataset = Datasets.Bench13.load "iris" in
  let rng = Rng.create seed in
  let split = Datasets.Synth.split rng dataset in
  let config =
    { Pnn.Config.default with epsilon = 0.05; n_mc_train = 5; max_epochs = 400; patience = 100 }
  in
  Printf.printf "training pNN on %s (%d features, %d classes, %d samples)...\n%!"
    dataset.Datasets.Synth.spec.Datasets.Synth.name
    dataset.Datasets.Synth.spec.Datasets.Synth.features
    dataset.Datasets.Synth.spec.Datasets.Synth.classes
    (Array.length dataset.Datasets.Synth.y);
  let result =
    Pnn.Training.train_fresh rng config surrogate
      ~n_classes:dataset.Datasets.Synth.spec.Datasets.Synth.classes split
  in
  Printf.printf "best validation loss: %.4f (epoch %d of %d)\n"
    result.Pnn.Training.val_loss result.Pnn.Training.history.Nn.Train.best_epoch
    (Array.length result.Pnn.Training.history.Nn.Train.train_losses);
  let eval =
    Pnn.Evaluation.mc_accuracy (Rng.create 99) result.Pnn.Training.network
      ~model:(Pnn.Variation.Uniform config.Pnn.Config.epsilon) ~n:100
      ~x:split.Datasets.Synth.x_test
      ~y:split.Datasets.Synth.y_test
  in
  Printf.printf "test accuracy under 5%% variation: %.3f +/- %.3f (100 MC draws)\n"
    eval.Pnn.Evaluation.mean eval.Pnn.Evaluation.std;
  (* show the bespoke activation the training chose *)
  let layer = List.hd (Pnn.Network.layers result.Pnn.Training.network) in
  let eta = Pnn.Nonlinear.eta_values layer.Pnn.Layer.act in
  Printf.printf "learned layer-1 activation: eta = [%.3f; %.3f; %.3f; %.3f]\n"
    eta.Fit.Ptanh.eta1 eta.Fit.Ptanh.eta2 eta.Fit.Ptanh.eta3 eta.Fit.Ptanh.eta4;
  let omega = Pnn.Nonlinear.omega_values layer.Pnn.Layer.act in
  Printf.printf "printable omega: R1=%.0f R2=%.0f R3=%.0f R4=%.0f R5=%.0f W=%.0f L=%.0f\n"
    omega.(0) omega.(1) omega.(2) omega.(3) omega.(4) omega.(5) omega.(6);
  (* the full printable design, and a check of the learned circuits against
     direct circuit simulation *)
  print_newline ();
  print_string (Pnn.Export.design_report result.Pnn.Training.network);
  print_newline ();
  print_string
    (Pnn.Export.render_checks (Pnn.Export.verify_activations result.Pnn.Training.network))
