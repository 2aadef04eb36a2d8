(* Train one pNN on one benchmark dataset from the command line.

   Examples:
     dune exec bin/pnn_train.exe -- --dataset iris
     dune exec bin/pnn_train.exe -- --dataset seeds --epsilon 0.1 --no-learnable
*)

open Cmdliner

let setup_logs verbose =
  Fmt_tty.setup_std_outputs ();
  Logs.set_reporter (Logs_fmt.reporter ());
  Logs.set_level (Some (if verbose then Logs.Info else Logs.Warning))

let run dataset_name epsilon learnable seed epochs patience n_mc n_test verbose =
  setup_logs verbose;
  let surrogate = Surrogate.Pipeline.ensure ~n:2000 ~max_epochs:1500 ~seed:42 () in
  let dataset = Datasets.Bench13.load dataset_name in
  let spec = dataset.Datasets.Synth.spec in
  let rng = Rng.create seed in
  let split = Datasets.Synth.split rng dataset in
  let config =
    {
      Pnn.Config.default with
      epsilon;
      max_epochs = epochs;
      patience;
      n_mc_train = n_mc;
      lr_omega = (if learnable then Pnn.Config.default.Pnn.Config.lr_omega else 0.0);
    }
  in
  Printf.printf "dataset %s: %d features, %d classes, %d samples (majority %.3f)\n%!"
    spec.Datasets.Synth.name spec.Datasets.Synth.features spec.Datasets.Synth.classes
    (Array.length dataset.Datasets.Synth.y)
    (Datasets.Synth.majority_fraction dataset);
  let t0 = Clock.now () in
  let result =
    Pnn.Training.train_fresh rng config surrogate
      ~n_classes:spec.Datasets.Synth.classes split
  in
  let t1 = Clock.now () in
  let net = result.Pnn.Training.network in
  let history = result.Pnn.Training.history in
  Printf.printf "trained %d epochs in %.1fs; best val loss %.4f @ epoch %d\n"
    (Array.length history.Nn.Train.train_losses)
    (t1 -. t0) history.Nn.Train.best_val_loss history.Nn.Train.best_epoch;
  let nominal_train =
    Pnn.Evaluation.nominal_accuracy net ~x:split.Datasets.Synth.x_train
      ~y:split.Datasets.Synth.y_train
  in
  let nominal_test =
    Pnn.Evaluation.nominal_accuracy net ~x:split.Datasets.Synth.x_test
      ~y:split.Datasets.Synth.y_test
  in
  Printf.printf "nominal accuracy: train %.3f, test %.3f\n" nominal_train nominal_test;
  List.iter
    (fun eps ->
      let eval =
        Pnn.Evaluation.mc_accuracy (Rng.create (seed + 1000)) net
          ~model:(Pnn.Variation.Uniform eps) ~n:n_test ~x:split.Datasets.Synth.x_test
          ~y:split.Datasets.Synth.y_test
      in
      Printf.printf "test @ %.0f%% variation: %.3f +/- %.3f (%d draws)\n" (eps *. 100.0)
        eval.Pnn.Evaluation.mean eval.Pnn.Evaluation.std n_test)
    [ 0.05; 0.10 ];
  List.iteri
    (fun i layer ->
      let eta = Pnn.Nonlinear.eta_values layer.Pnn.Layer.act in
      Printf.printf "layer %d activation eta: [%.3f; %.3f; %.3f; %.3f]\n" (i + 1)
        eta.Fit.Ptanh.eta1 eta.Fit.Ptanh.eta2 eta.Fit.Ptanh.eta3 eta.Fit.Ptanh.eta4)
    (Pnn.Network.layers net)

let dataset_arg =
  Arg.(value & opt Name_flag.dataset "iris" & info [ "dataset" ] ~doc:"benchmark dataset name")

let epsilon_arg =
  Arg.(
    value
    & opt (Severity.conv (fun e -> [ Pnn.Variation.Uniform e ])) 0.05
    & info [ "epsilon" ] ~doc:"training variation (0 = nominal)")

let learnable_arg =
  Arg.(value & opt bool true & info [ "learnable" ] ~doc:"learn the nonlinear circuits")

let seed_arg = Arg.(value & opt int 1 & info [ "seed" ] ~doc:"RNG seed")
let epochs_arg = Arg.(value & opt int 800 & info [ "epochs" ] ~doc:"max epochs")
let patience_arg = Arg.(value & opt int 150 & info [ "patience" ] ~doc:"early-stop patience")
let n_mc_arg = Arg.(value & opt int 5 & info [ "mc" ] ~doc:"MC samples per training step")
let n_test_arg = Arg.(value & opt int 100 & info [ "mc-test" ] ~doc:"MC draws at test time")
let verbose_arg = Arg.(value & flag & info [ "verbose"; "v" ] ~doc:"log progress")

let cmd =
  Cmd.v
    (Cmd.info "pnn_train" ~doc:"train a printed neural network on a benchmark task")
    Term.(
      const run $ dataset_arg $ epsilon_arg $ learnable_arg $ seed_arg $ epochs_arg
      $ patience_arg $ n_mc_arg $ n_test_arg $ verbose_arg)

let () = exit (Cmd.eval cmd)
