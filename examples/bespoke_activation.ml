(* Bespoke nonlinear circuits: what does training actually change?

   Trains two pNNs on the same task — one with the fixed mid-range nonlinear
   circuit, one with learnable circuits — and prints the activation transfer
   curves before and after training, together with the physical component
   values ω that would be printed.  This is the paper's core idea made
   visible: training *designs* the circuit.

   Run with: dune exec examples/bespoke_activation.exe *)

let print_activation label nl =
  let omega = Pnn.Nonlinear.omega_values nl in
  let eta = Pnn.Nonlinear.eta_values nl in
  Printf.printf "%s:\n" label;
  Printf.printf "  omega: R1=%.0f R2=%.0f R3=%.0fk R4=%.0fk R5=%.0fk W=%.0f L=%.0f\n"
    omega.(0) omega.(1) (omega.(2) /. 1e3) (omega.(3) /. 1e3) (omega.(4) /. 1e3)
    omega.(5) omega.(6);
  Printf.printf "  eta:   [%.3f; %.3f; %.3f; %.3f]\n" eta.Fit.Ptanh.eta1
    eta.Fit.Ptanh.eta2 eta.Fit.Ptanh.eta3 eta.Fit.Ptanh.eta4;
  Printf.printf "  curve: ";
  List.iter
    (fun v -> Printf.printf "%.2f->%.2f  " v (Fit.Ptanh.eval eta v))
    [ 0.0; 0.2; 0.4; 0.6; 0.8; 1.0 ];
  print_newline ()

(* Train a few seeds and keep the best validation loss — the paper's model
   selection (§IV-C). *)
let train learnable surrogate split =
  let config =
    Pnn.Config.with_learnable
      { Pnn.Config.default with Pnn.Config.epsilon = 0.05; max_epochs = 600; patience = 150 }
      learnable
  in
  let candidates =
    List.map
      (fun seed ->
        Pnn.Training.train_fresh (Rng.create seed) config surrogate ~n_classes:3 split)
      [ 11; 12; 13 ]
  in
  List.fold_left
    (fun best r ->
      if r.Pnn.Training.val_loss < best.Pnn.Training.val_loss then r else best)
    (List.hd candidates) (List.tl candidates)

let () =
  let surrogate = Surrogate.Pipeline.ensure ~n:2000 ~max_epochs:1500 ~seed:42 () in
  let dataset = Datasets.Bench13.load "seeds" in
  let split = Datasets.Synth.split (Rng.create 3) dataset in
  Printf.printf "task: %s\n\n" dataset.Datasets.Synth.spec.Datasets.Synth.name;
  print_activation "fixed circuit (what every prior-work pNN uses, mid design space)"
    (Pnn.Nonlinear.create surrogate);
  print_newline ();
  let fixed = train false surrogate split in
  let learned = train true surrogate split in
  let accuracy result =
    let eval =
      Pnn.Evaluation.mc_accuracy (Rng.create 99) result.Pnn.Training.network
        ~model:(Pnn.Variation.Uniform 0.05) ~n:100 ~x:split.Datasets.Synth.x_test
        ~y:split.Datasets.Synth.y_test
    in
    (eval.Pnn.Evaluation.mean, eval.Pnn.Evaluation.std)
  in
  let f_mean, f_std = accuracy fixed in
  let l_mean, l_std = accuracy learned in
  Printf.printf "fixed-circuit pNN:     accuracy %.3f +/- %.3f under 5%% variation\n"
    f_mean f_std;
  Printf.printf "learnable-circuit pNN: accuracy %.3f +/- %.3f under 5%% variation\n\n"
    l_mean l_std;
  List.iteri
    (fun i layer ->
      print_activation
        (Printf.sprintf "learned activation circuit, layer %d" (i + 1))
        layer.Pnn.Layer.act;
      print_activation
        (Printf.sprintf "learned negative-weight circuit, layer %d" (i + 1))
        layer.Pnn.Layer.neg)
    (Pnn.Network.layers learned.Pnn.Training.network)
