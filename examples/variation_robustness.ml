(* Robustness sweep: accuracy vs printing variation for all four training
   setups of the paper's ablation (Table III), on one dataset.

   For epsilon in {0, 2.5, 5, 7.5, 10, 15 %}, evaluates each trained pNN with
   60 Monte-Carlo draws and prints mean ± std — the data one would plot as an
   accuracy-vs-variation robustness curve.

   Run with: dune exec examples/variation_robustness.exe *)

let arms =
  [
    ("fixed/nominal (baseline)", false, 0.0);
    ("fixed/va@10%", false, 0.10);
    ("learnable/nominal", true, 0.0);
    ("learnable/va@10%", true, 0.10);
  ]

let () =
  let surrogate = Surrogate.Pipeline.ensure ~n:2000 ~max_epochs:1500 ~seed:42 () in
  let dataset = Datasets.Bench13.load "vertebral-2c" in
  let split = Datasets.Synth.split (Rng.create 5) dataset in
  Printf.printf "task: %s\n\n" dataset.Datasets.Synth.spec.Datasets.Synth.name;
  let trained =
    List.map
      (fun (label, learnable, train_eps) ->
        let config =
          Pnn.Config.with_learnable
            {
              Pnn.Config.default with
              Pnn.Config.epsilon = train_eps;
              max_epochs = 600;
              patience = 150;
            }
            learnable
        in
        let r = Pnn.Training.train_fresh (Rng.create 21) config surrogate ~n_classes:2 split in
        (label, r.Pnn.Training.network))
      arms
  in
  let epsilons = [ 0.0; 0.025; 0.05; 0.075; 0.10; 0.15 ] in
  Printf.printf "%-26s" "test epsilon";
  List.iter (fun e -> Printf.printf "  %8.1f%%" (e *. 100.0)) epsilons;
  print_newline ();
  List.iter
    (fun (label, net) ->
      Printf.printf "%-26s" label;
      List.iter
        (fun eps ->
          let r =
            Pnn.Evaluation.mc_accuracy (Rng.create 77) net
              ~model:(Pnn.Variation.Uniform eps) ~n:60 ~x:split.Datasets.Synth.x_test
              ~y:split.Datasets.Synth.y_test
          in
          Printf.printf "  %5.3f+-%.2f" r.Pnn.Evaluation.mean r.Pnn.Evaluation.std)
        epsilons;
      print_newline ())
    trained
