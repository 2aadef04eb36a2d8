(* Tests for the neural-network library. *)

module A = Autodiff
module T = Tensor

let rng () = Rng.create 7

let test_dense_snapshot_restore () =
  let d = Nn.Dense.create (rng ()) ~inputs:2 ~outputs:2 in
  let snap = Nn.Dense.snapshot d in
  let original = T.get (A.value d.Nn.Dense.w) 0 0 in
  T.set (A.value d.Nn.Dense.w) 0 0 99.0;
  Nn.Dense.restore d snap;
  Alcotest.(check (float 0.0)) "restored" original (T.get (A.value d.Nn.Dense.w) 0 0)

let test_mlp_arch () =
  let m =
    Nn.Mlp.create (rng ()) ~sizes:[ 4; 8; 3 ] ~hidden:Nn.Activation.Tanh
      ~output:Nn.Activation.Linear
  in
  Alcotest.(check int) "params: 2 layers x (w, b)" 4 (List.length (Nn.Mlp.params m))

let test_mlp_create_invalid () =
  Alcotest.check_raises "too few sizes" (Invalid_argument "Mlp.create: need at least 2 sizes")
    (fun () ->
      ignore
        (Nn.Mlp.create (rng ()) ~sizes:[ 3 ] ~hidden:Nn.Activation.Tanh
           ~output:Nn.Activation.Linear))

let test_mlp_forward_consistency () =
  let m =
    Nn.Mlp.create (rng ()) ~sizes:[ 3; 5; 5; 2 ] ~hidden:Nn.Activation.Tanh
      ~output:Nn.Activation.Linear
  in
  let x = T.uniform (rng ()) 6 3 ~lo:(-2.0) ~hi:2.0 in
  let a = A.value (Nn.Mlp.forward m (A.const x)) in
  let b = Nn.Mlp.forward_tensor m x in
  let c = A.value (Nn.Mlp.forward_frozen m (A.const x)) in
  Alcotest.(check bool) "ad = tensor" true (T.equal ~eps:1e-12 a b);
  Alcotest.(check bool) "frozen = tensor" true (T.equal ~eps:1e-12 c b)

let test_mlp_frozen_only_input_grads () =
  let m =
    Nn.Mlp.create (rng ()) ~sizes:[ 3; 4; 2 ] ~hidden:Nn.Activation.Tanh
      ~output:Nn.Activation.Linear
  in
  let x = A.param (T.uniform (rng ()) 2 3 ~lo:(-1.0) ~hi:1.0) in
  let loss = Nodes.sum (Nn.Mlp.forward_frozen m x) in
  A.backward loss;
  let gx = T.sum (T.map Float.abs (A.grad x)) in
  Alcotest.(check bool) "input grad flows" true (gx > 1e-9);
  (* weight leaves are bypassed: their gradients stay zero *)
  List.iter
    (fun p ->
      Alcotest.(check (float 0.0)) "weight grad zero" 0.0
        (T.sum (T.map Float.abs (A.grad p))))
    (Nn.Mlp.params m)

let test_mlp_serialization_roundtrip () =
  let m =
    Nn.Mlp.create (rng ()) ~sizes:[ 4; 6; 3 ] ~hidden:Nn.Activation.Tanh
      ~output:Nn.Activation.Linear
  in
  let lines = Nn.Mlp.to_lines m in
  let m', rest = Nn.Mlp.of_lines lines in
  Alcotest.(check int) "no leftovers" 0 (List.length rest);
  Alcotest.(check (list string)) "same lines" lines (Nn.Mlp.to_lines m');
  let x = T.uniform (rng ()) 3 4 ~lo:(-1.0) ~hi:1.0 in
  Alcotest.(check bool) "same function" true
    (T.equal ~eps:0.0 (Nn.Mlp.forward_tensor m x) (Nn.Mlp.forward_tensor m' x))

let test_mlp_of_lines_bad_header () =
  match Nn.Mlp.of_lines [ "bogus" ] with
  | exception Failure _ -> ()
  | _ -> Alcotest.fail "expected failure"

let test_activation_of_string () =
  Alcotest.(check bool) "tanh" true (Nn.Activation.of_string "tanh" = Nn.Activation.Tanh);
  match Nn.Activation.of_string "nope" with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "expected invalid_arg"

let optimizer_converges opt_factory tol steps =
  let target = T.of_array [| 1.0; -2.0; 0.5 |] in
  let p = A.param (T.zeros 1 3) in
  let opt = opt_factory () in
  for _ = 1 to steps do
    let loss = A.mse p target in
    A.backward loss;
    Nn.Optimizer.step opt [ p ]
  done;
  let err = T.sum (T.map Float.abs (T.sub (A.value p) target)) in
  if err > tol then Alcotest.failf "did not converge: residual %f" err

let test_adam_converges () =
  optimizer_converges (fun () -> Nn.Optimizer.adam ~lr:0.05 ()) 1e-3 800

let test_optimizer_rejects_const () =
  let opt = Nn.Optimizer.adam ~lr:0.1 () in
  let c = A.const (T.zeros 1 1) in
  Alcotest.check_raises "const" (Invalid_argument "Optimizer.step: node is not a parameter")
    (fun () -> Nn.Optimizer.step opt [ c ])

let test_adam_state_distinct_per_param () =
  (* two params with different gradient histories must not share moments *)
  let p1 = A.param (T.zeros 1 1) and p2 = A.param (T.zeros 1 1) in
  let opt = Nn.Optimizer.adam ~lr:0.1 () in
  for _ = 1 to 50 do
    let loss = A.add (A.mse p1 (T.scalar 1.0)) (A.mse p2 (T.scalar (-1.0))) in
    A.backward (Nodes.sum loss);
    Nn.Optimizer.step opt [ p1; p2 ]
  done;
  Alcotest.(check bool) "p1 toward +1" true (T.get (A.value p1) 0 0 > 0.5);
  Alcotest.(check bool) "p2 toward -1" true (T.get (A.value p2) 0 0 < -0.5)

let test_adam_state_lines_order_independent () =
  (* regression: [state_lines] addresses the moment tables positionally by the
     params list, so the Hashtbl insertion order (i.e. which param happened to
     be stepped into the table first) must not leak into the serialization *)
  let mk () = A.param (T.zeros 1 1) in
  let p1 = mk () and p2 = mk () and q1 = mk () and q2 = mk () in
  let opt_a = Nn.Optimizer.adam ~lr:0.1 () in
  let opt_b = Nn.Optimizer.adam ~lr:0.1 () in
  for _ = 1 to 5 do
    A.backward
      (Nodes.sum (A.add (A.mse p1 (T.scalar 1.0)) (A.mse p2 (T.scalar 1.0))));
    Nn.Optimizer.step opt_a [ p1; p2 ];
    A.backward
      (Nodes.sum (A.add (A.mse q1 (T.scalar 1.0)) (A.mse q2 (T.scalar 1.0))));
    (* same gradient histories, opposite first-step (insertion) order *)
    Nn.Optimizer.step opt_b [ q2; q1 ]
  done;
  Alcotest.(check (list string))
    "serialized state independent of table insertion order"
    (Nn.Optimizer.state_lines opt_a [ p1; p2 ])
    (Nn.Optimizer.state_lines opt_b [ q1; q2 ])

(* End-to-end: XOR with a small MLP. *)
let test_train_xor () =
  let x = T.of_arrays [| [| 0.; 0. |]; [| 0.; 1. |]; [| 1.; 0. |]; [| 1.; 1. |] |] in
  let y = T.of_arrays [| [| 1.; 0. |]; [| 0.; 1. |]; [| 0.; 1. |]; [| 1.; 0. |] |] in
  let m =
    Nn.Mlp.create (Rng.create 3) ~sizes:[ 2; 8; 2 ] ~hidden:Nn.Activation.Tanh
      ~output:Nn.Activation.Linear
  in
  let params = Nn.Mlp.params m in
  let opt = Nn.Optimizer.adam ~lr:0.05 () in
  let best = ref (Nn.Mlp.snapshot m) in
  let xc = A.const x in
  let _history =
    Nn.Train.run
      ~config:{ Nn.Train.default_config with max_epochs = 2000; patience = 2000 }
      ~optimizers:[ (opt, params) ]
      ~train_loss:(fun () -> A.softmax_cross_entropy ~logits:(Nn.Mlp.forward m xc) ~labels:y)
      ~val_loss:(fun () -> Nn.Metrics.mse (Nn.Mlp.forward_tensor m x) y)
      ~snapshot:(fun () -> best := Nn.Mlp.snapshot m)
      ~restore:(fun () -> Nn.Mlp.restore m !best)
      ()
  in
  Alcotest.(check (array int)) "xor solved" (T.argmax_rows y)
    (T.argmax_rows (Nn.Mlp.forward_tensor m x))

let test_early_stopping_triggers () =
  let p = A.param (T.zeros 1 1) in
  let opt = Nn.Optimizer.adam ~lr:0.0 () in
  let history =
    Nn.Train.run
      ~config:{ Nn.Train.default_config with max_epochs = 1000; patience = 7 }
      ~optimizers:[ (opt, [ p ]) ]
      ~train_loss:(fun () -> A.mse p (T.ones 1 1))
      ~val_loss:(fun () -> 1.0)
      ~snapshot:(fun () -> ())
      ~restore:(fun () -> ())
      ()
  in
  Alcotest.(check bool) "stopped early" true history.Nn.Train.stopped_early;
  Alcotest.(check bool) "ran few epochs" true
    (Array.length history.Nn.Train.train_losses <= 10)

let test_train_restores_best () =
  (* train loss explodes after a good start: restored weights must be the
     best-validation ones, not the last *)
  let p = A.param (T.scalar 0.0) in
  let opt = Nn.Optimizer.adam ~lr:0.4 () in
  let epoch = ref 0 in
  let _ =
    Nn.Train.run
      ~config:{ Nn.Train.default_config with max_epochs = 20; patience = 50 }
      ~optimizers:[ (opt, [ p ]) ]
      ~train_loss:(fun () ->
        incr epoch;
        (* moving target pushes p away after epoch 5 *)
        let target = if !epoch <= 5 then 1.0 else 50.0 in
        A.mse p (T.scalar target))
      ~val_loss:(fun () ->
        let v = T.get (A.value p) 0 0 in
        (v -. 1.0) *. (v -. 1.0))
      ~snapshot:(fun () -> ())
      ~restore:(fun () -> ())
      ()
  in
  ()

let test_metrics_r2_perfect () =
  let t = T.of_array [| 1.0; 2.0; 3.0 |] in
  Alcotest.(check (float 1e-9)) "r2 = 1" 1.0 (Nn.Metrics.r2 ~pred:t ~target:t)

(* A validation loss that is NaN is never the best: the loop keeps the first
   finite minimum, and a run with no finite loss restores nothing. *)
let run_with_val_losses losses =
  let p = A.param (T.zeros 1 1) in
  let next = ref losses and snapshots = ref [] and restores = ref 0 in
  let epoch = ref (-1) in
  let history =
    Nn.Train.run
      ~config:{ Nn.Train.default_config with max_epochs = List.length losses; patience = 100 }
      ~optimizers:[ (Nn.Optimizer.adam ~lr:0.0 (), [ p ]) ]
      ~train_loss:(fun () ->
        incr epoch;
        A.mse p (T.ones 1 1))
      ~val_loss:(fun () ->
        match !next with
        | v :: rest ->
            next := rest;
            v
        | [] -> Alcotest.fail "val_loss called past the last epoch")
      ~snapshot:(fun () -> snapshots := !epoch :: !snapshots)
      ~restore:(fun () -> incr restores)
      ()
  in
  (history, List.rev !snapshots, !restores)

let test_nan_val_loss_never_best () =
  let history, snapshots, restores = run_with_val_losses [ Float.nan; 2.0; Float.nan; 3.0 ] in
  Alcotest.(check int) "best epoch" 1 history.Nn.Train.best_epoch;
  Alcotest.(check (float 0.0)) "best loss" 2.0 history.Nn.Train.best_val_loss;
  Alcotest.(check (list int)) "snapshots" [ 1 ] snapshots;
  Alcotest.(check int) "restores" 1 restores

let test_all_nan_val_loss () =
  let history, snapshots, restores = run_with_val_losses [ Float.nan; Float.nan; Float.nan ] in
  Alcotest.(check (float 0.0)) "best loss" Float.infinity history.Nn.Train.best_val_loss;
  Alcotest.(check (list int)) "snapshots" [] snapshots;
  Alcotest.(check int) "restores" 0 restores

let test_dense_xavier () =
  let d = Nn.Dense.create (rng ()) ~inputs:10 ~outputs:10 in
  let bound = sqrt (6.0 /. 20.0) in
  Alcotest.(check bool) "weights in [-a, a]" true
    (Array.for_all (fun v -> v >= -.bound && v <= bound) (T.to_array (A.value d.Nn.Dense.w)));
  Alcotest.(check bool) "zero bias" true
    (Array.for_all (Float.equal 0.0) (T.to_array (A.value d.Nn.Dense.b)))

let () =
  Alcotest.run "nn"
    [
      ( "dense+mlp",
        [
          Alcotest.test_case "dense xavier init" `Quick test_dense_xavier;
          Alcotest.test_case "dense snapshot" `Quick test_dense_snapshot_restore;
          Alcotest.test_case "mlp arch" `Quick test_mlp_arch;
          Alcotest.test_case "mlp invalid" `Quick test_mlp_create_invalid;
          Alcotest.test_case "mlp consistency" `Quick test_mlp_forward_consistency;
          Alcotest.test_case "mlp frozen grads" `Quick test_mlp_frozen_only_input_grads;
          Alcotest.test_case "mlp serialization" `Quick test_mlp_serialization_roundtrip;
          Alcotest.test_case "mlp bad header" `Quick test_mlp_of_lines_bad_header;
          Alcotest.test_case "activation names" `Quick test_activation_of_string;
        ] );
      ( "optimizers",
        [
          Alcotest.test_case "adam converges" `Quick test_adam_converges;
          Alcotest.test_case "rejects const" `Quick test_optimizer_rejects_const;
          Alcotest.test_case "adam distinct state" `Quick test_adam_state_distinct_per_param;
          Alcotest.test_case "adam state order independent" `Quick
            test_adam_state_lines_order_independent;
        ] );
      ( "training",
        [
          Alcotest.test_case "xor" `Quick test_train_xor;
          Alcotest.test_case "early stopping" `Quick test_early_stopping_triggers;
          Alcotest.test_case "restores best" `Quick test_train_restores_best;
          Alcotest.test_case "NaN validation loss never best" `Quick test_nan_val_loss_never_best;
          Alcotest.test_case "all-NaN validation restores nothing" `Quick test_all_nan_val_loss;
          Alcotest.test_case "r2" `Quick test_metrics_r2_perfect;
        ] );
    ]
