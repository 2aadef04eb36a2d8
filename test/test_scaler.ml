(* Tests for min-max scalers. *)

module Sc = Surrogate.Scaler

let data = [| [| 0.0; 10.0 |]; [| 5.0; 20.0 |]; [| 10.0; 30.0 |] |]

let test_fit_bounds () =
  let s = Sc.fit data in
  Alcotest.(check (array (float 0.0))) "lo" [| 0.0; 10.0 |] (Sc.lo s);
  Alcotest.(check (array (float 0.0))) "hi - lo" [| 10.0; 20.0 |] (Sc.range s)

let test_fit_empty () =
  Alcotest.check_raises "empty" (Invalid_argument "Scaler.fit: empty data") (fun () ->
      ignore (Sc.fit [||]))

let test_fit_zero_range () =
  let s = Sc.fit [| [| 3.0 |]; [| 3.0 |] |] in
  (* degenerate column gets unit range: transform stays finite *)
  let t = Sc.transform s [| 3.0 |] in
  Alcotest.(check bool) "finite" true (Float.is_finite t.(0))

let test_transform_known () =
  let s = Sc.fit data in
  Alcotest.(check (array (float 1e-12))) "mid" [| 0.5; 0.5 |]
    (Sc.transform s [| 5.0; 20.0 |])

let test_roundtrip () =
  let s = Sc.fit data in
  let x = [| 7.3; 12.9 |] in
  let back = Sc.inverse s (Sc.transform s x) in
  Alcotest.(check (array (float 1e-9))) "roundtrip" x back

let test_ad_matches_scalar () =
  let s = Sc.fit data in
  let m = Tensor.of_arrays data in
  let inv_ad = Autodiff.value (Sc.inverse_ad s (Autodiff.const m)) in
  Alcotest.(check bool) "inverse ad = scalar path" true
    (Tensor.equal ~eps:1e-12 inv_ad (Tensor.of_arrays (Array.map (Sc.inverse s) data)))

let test_ad_gradients () =
  (* the inverse is affine: gradient of sum(inverse x) wrt x is the range *)
  let s = Sc.fit data in
  let p = Autodiff.param (Tensor.of_array [| 0.2; 0.5 |]) in
  Autodiff.backward (Nodes.sum (Sc.inverse_ad s p));
  let g = Autodiff.grad p in
  Alcotest.(check (float 1e-12)) "range col0" 10.0 (Tensor.get g 0 0);
  Alcotest.(check (float 1e-12)) "range col1" 20.0 (Tensor.get g 0 1)

let test_serialization_roundtrip () =
  let s = Sc.fit data in
  let s', rest = Sc.of_lines (Sc.to_lines s) in
  Alcotest.(check int) "consumed all" 0 (List.length rest);
  Alcotest.(check (array (float 0.0))) "lo" (Sc.lo s) (Sc.lo s');
  Alcotest.(check (array (float 0.0))) "hi - lo" (Sc.range s) (Sc.range s');
  Alcotest.(check (list string)) "same lines" (Sc.to_lines s) (Sc.to_lines s')

let test_of_bounds_validation () =
  Alcotest.check_raises "hi < lo" (Invalid_argument "Scaler.of_bounds: hi < lo") (fun () ->
      ignore (Sc.of_bounds ~lo:[| 1.0 |] ~hi:[| 0.0 |]))

let test_dimension_mismatch () =
  let s = Sc.fit data in
  Alcotest.check_raises "transform dim"
    (Invalid_argument "Scaler.transform: dimension mismatch") (fun () ->
      ignore (Sc.transform s [| 1.0 |]))

let qcheck_roundtrip =
  QCheck.Test.make ~name:"transform/inverse roundtrip" ~count:300
    QCheck.(pair (float_range (-100.0) 100.0) (float_range (-100.0) 100.0))
    (fun (a, b) ->
      let s = Sc.of_bounds ~lo:[| -200.0; -200.0 |] ~hi:[| 200.0; 200.0 |] in
      let back = Sc.inverse s (Sc.transform s [| a; b |]) in
      Float.abs (back.(0) -. a) < 1e-9 && Float.abs (back.(1) -. b) < 1e-9)

let () =
  Alcotest.run "scaler"
    [
      ( "scaler",
        [
          Alcotest.test_case "fit bounds" `Quick test_fit_bounds;
          Alcotest.test_case "fit empty" `Quick test_fit_empty;
          Alcotest.test_case "zero range" `Quick test_fit_zero_range;
          Alcotest.test_case "transform known" `Quick test_transform_known;
          Alcotest.test_case "roundtrip" `Quick test_roundtrip;
          Alcotest.test_case "ad path" `Quick test_ad_matches_scalar;
          Alcotest.test_case "ad gradients" `Quick test_ad_gradients;
          Alcotest.test_case "serialization" `Quick test_serialization_roundtrip;
          Alcotest.test_case "of_bounds" `Quick test_of_bounds_validation;
          Alcotest.test_case "dim mismatch" `Quick test_dimension_mismatch;
          QCheck_alcotest.to_alcotest qcheck_roundtrip;
        ] );
    ]
