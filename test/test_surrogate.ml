(* Tests for the surrogate pipeline and model. *)

module P = Surrogate.Pipeline
module M = Surrogate.Model
module Ds = Surrogate.Design_space

(* One small dataset/model pair shared across tests (pipeline is deterministic). *)
let dataset = lazy (P.generate_dataset ~n:250 ())

let trained =
  lazy
    (let rng = Rng.create 42 in
     P.train_surrogate ~arch:[ 10; 8; 6; 4 ] ~max_epochs:400 rng (Lazy.force dataset))

let test_dataset_generation () =
  let d = Lazy.force dataset in
  let kept = Array.length d.P.omegas in
  Alcotest.(check bool) "keeps most samples" true (kept > 200);
  Alcotest.(check int) "etas align" kept (Array.length d.P.etas);
  Alcotest.(check int) "rmses align" kept (Array.length d.P.fit_rmses);
  Array.iter
    (fun omega ->
      if not (Ds.contains omega) then Alcotest.fail "dataset contains infeasible omega")
    d.P.omegas;
  Array.iter
    (fun rmse -> if rmse > 0.02 then Alcotest.failf "fit rmse above filter: %f" rmse)
    d.P.fit_rmses

let test_split_fractions () =
  let d = Lazy.force dataset in
  let s = P.split_dataset (Rng.create 1) d in
  let n = Array.length d.P.omegas in
  Alcotest.(check int) "covers all" n
    (Array.length s.P.train + Array.length s.P.validation + Array.length s.P.test);
  Alcotest.(check int) "70% train" (n * 70 / 100) (Array.length s.P.train);
  (* disjointness *)
  let seen = Hashtbl.create n in
  Array.iter
    (fun idx ->
      if Hashtbl.mem seen idx then Alcotest.fail "split overlap";
      Hashtbl.add seen idx ())
    (Array.concat [ s.P.train; s.P.validation; s.P.test ])

let test_training_learns () =
  let _, report = Lazy.force trained in
  (* normalized eta variance is ~O(0.05-0.1); a trained surrogate should do
     clearly better than predicting the mean *)
  Alcotest.(check bool)
    (Printf.sprintf "val R2 positive (%.3f)" report.P.val_r2)
    true (report.P.val_r2 > 0.3);
  Alcotest.(check bool) "test close to val" true
    (Float.abs (report.P.test_mse -. report.P.val_mse) < 0.05)

let test_model_eval_eta_shape () =
  let model, _ = Lazy.force trained in
  let omega = (Lazy.force dataset).P.omegas.(0) in
  let eta = M.eval model omega in
  Alcotest.(check bool) "eta finite" true
    (Float.is_finite eta.Fit.Ptanh.eta1 && Float.is_finite eta.Fit.Ptanh.eta4)

let test_features_ad_matches_extend () =
  let model, _ = Lazy.force trained in
  let omega = [| 100.0; 50.0; 200e3; 100e3; 300e3; 400.0; 20.0 |] in
  let expected = Surrogate.Scaler.transform model.M.omega_scaler (Ds.extend omega) in
  let node = M.features_ad model (Autodiff.const (Tensor.of_array omega)) in
  let got = Tensor.to_array (Autodiff.value node) in
  Alcotest.(check (array (float 1e-9))) "extended and normalised" expected got

let test_eval_ad_matches_eval () =
  let model, _ = Lazy.force trained in
  let omega = (Lazy.force dataset).P.omegas.(3) in
  let expected = Fit.Ptanh.eta_to_array (M.eval model omega) in
  let node = M.eval_ad model (Autodiff.const (Tensor.of_array omega)) in
  let got = Tensor.to_array (Autodiff.value node) in
  Alcotest.(check (array (float 1e-6))) "ad path" expected got

let test_eval_ad_differentiable () =
  let model, _ = Lazy.force trained in
  let p = Autodiff.param (Tensor.of_array (Lazy.force dataset).P.omegas.(7)) in
  Autodiff.backward (Nodes.sum (M.eval_ad model p));
  let g = Autodiff.grad p in
  Alcotest.(check bool) "gradient flows to omega" true
    (Tensor.sum (Tensor.map Float.abs g) > 0.0)

let test_serialization_roundtrip () =
  let model, _ = Lazy.force trained in
  let model', rest = M.of_lines (M.to_lines model) in
  Alcotest.(check int) "consumed" 0 (List.length rest);
  let omega = (Lazy.force dataset).P.omegas.(11) in
  let a = M.eval model omega and b = M.eval model' omega in
  Alcotest.(check (float 0.0)) "same eta1" a.Fit.Ptanh.eta1 b.Fit.Ptanh.eta1;
  Alcotest.(check (float 0.0)) "same eta4" a.Fit.Ptanh.eta4 b.Fit.Ptanh.eta4

let test_save_load_file () =
  let model, _ = Lazy.force trained in
  let path = Filename.temp_file "surrogate" ".txt" in
  M.save_file model path;
  let model' = M.load_file path in
  Sys.remove path;
  let omega = (Lazy.force dataset).P.omegas.(2) in
  Alcotest.(check (float 0.0)) "file roundtrip" (M.eval model omega).Fit.Ptanh.eta2
    (M.eval model' omega).Fit.Ptanh.eta2

let test_parity_rows_tagged () =
  let model, _ = Lazy.force trained in
  let d = Lazy.force dataset in
  let split = P.split_dataset (Rng.create 2) d in
  let rows = P.parity_rows model d split in
  let tags = List.sort_uniq String.compare (List.map (fun (t, _, _) -> t) rows) in
  Alcotest.(check (list string)) "three splits" [ "test"; "train"; "val" ] tags;
  Alcotest.(check int) "4 eta components per sample" (Array.length d.P.omegas * 4)
    (List.length rows)

let test_lhs_sampler_variant () =
  let d = P.generate_dataset ~n:100 ~sampler:(`Lhs (Rng.create 9)) () in
  Alcotest.(check bool) "keeps samples" true (Array.length d.P.omegas > 60)

let test_bad_arch_rejected () =
  match
    P.train_surrogate ~arch:[ 7; 4 ] (Rng.create 1) (Lazy.force dataset)
  with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "expected arch validation error"

let () =
  Alcotest.run "surrogate"
    [
      ( "pipeline",
        [
          Alcotest.test_case "dataset generation" `Quick test_dataset_generation;
          Alcotest.test_case "split fractions" `Quick test_split_fractions;
          Alcotest.test_case "training learns" `Quick test_training_learns;
          Alcotest.test_case "parity rows" `Quick test_parity_rows_tagged;
          Alcotest.test_case "lhs sampler" `Quick test_lhs_sampler_variant;
          Alcotest.test_case "bad arch" `Quick test_bad_arch_rejected;
        ] );
      ( "model",
        [
          Alcotest.test_case "eval" `Quick test_model_eval_eta_shape;
          Alcotest.test_case "features ad" `Quick test_features_ad_matches_extend;
          Alcotest.test_case "eval ad value" `Quick test_eval_ad_matches_eval;
          Alcotest.test_case "eval ad gradient" `Quick test_eval_ad_differentiable;
          Alcotest.test_case "lines roundtrip" `Quick test_serialization_roundtrip;
          Alcotest.test_case "file roundtrip" `Quick test_save_load_file;
        ] );
    ]
