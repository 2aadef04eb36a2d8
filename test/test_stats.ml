(* Tests for descriptive statistics. *)

let feq = Alcotest.(check (float 1e-9))

let test_mean () = feq "mean" 2.5 (Stats.mean [| 1.0; 2.0; 3.0; 4.0 |])
let test_mean_empty () =
  Alcotest.check_raises "empty" (Invalid_argument "Stats.mean: empty") (fun () ->
      ignore (Stats.mean [||]))

let test_variance () =
  (* population variance of 1,2,3,4 = 1.25 *)
  feq "variance" 1.25 (Stats.variance [| 1.0; 2.0; 3.0; 4.0 |])

let test_std () = feq "std" (sqrt 1.25) (Stats.std [| 1.0; 2.0; 3.0; 4.0 |])
let test_std_constant () = feq "constant std" 0.0 (Stats.std [| 5.0; 5.0; 5.0 |])
let test_min_max () =
  feq "min" (-3.0) (Stats.min [| 2.0; -3.0; 7.0 |]);
  feq "max" 7.0 (Stats.max [| 2.0; -3.0; 7.0 |])

let test_median_odd () = feq "median odd" 3.0 (Stats.median [| 5.0; 1.0; 3.0 |])
let test_median_even () = feq "median even" 2.5 (Stats.median [| 4.0; 1.0; 2.0; 3.0 |])

let test_quantile_endpoints () =
  let a = [| 10.0; 20.0; 30.0 |] in
  feq "q0" 10.0 (Stats.quantile a 0.0);
  feq "q1" 30.0 (Stats.quantile a 1.0);
  feq "q0.5" 20.0 (Stats.quantile a 0.5)

let test_quantile_interpolation () =
  feq "q0.25 of 0..3" 0.75 (Stats.quantile [| 0.0; 1.0; 2.0; 3.0 |] 0.25)

let test_quantile_invalid () =
  Alcotest.check_raises "q > 1" (Invalid_argument "Stats.quantile: q outside [0,1]")
    (fun () -> ignore (Stats.quantile [| 1.0 |] 1.5))

let test_quantile_single_element () =
  List.iter
    (fun q -> feq (Printf.sprintf "q=%g of singleton" q) 7.0 (Stats.quantile [| 7.0 |] q))
    [ 0.0; 0.3; 0.5; 1.0 ]

let test_quantile_rejects_nan () =
  Alcotest.check_raises "nan input" (Invalid_argument "Stats.quantile: nan input")
    (fun () -> ignore (Stats.quantile [| 1.0; Float.nan; 2.0 |] 0.5))

let test_quantile_negative_zero_sorts () =
  (* Float.compare orders -0.0 before 0.0; polymorphic compare on boxed
     floats did too, but this pins the behaviour against regressions *)
  feq "q0 with signed zeros" (-1.0) (Stats.quantile [| 0.0; -0.0; -1.0 |] 0.0);
  feq "q1 with signed zeros" 0.0 (Stats.quantile [| 0.0; -0.0; -1.0 |] 1.0)

let qcheck_std_nonneg =
  QCheck.Test.make ~name:"std >= 0" ~count:300
    QCheck.(list_of_size (QCheck.Gen.int_range 1 50) (float_range (-100.) 100.))
    (fun l -> Stats.std (Array.of_list l) >= 0.0)

let qcheck_mean_bounds =
  QCheck.Test.make ~name:"min <= mean <= max" ~count:300
    QCheck.(list_of_size (QCheck.Gen.int_range 1 50) (float_range (-100.) 100.))
    (fun l ->
      let a = Array.of_list l in
      let m = Stats.mean a in
      Stats.min a -. 1e-9 <= m && m <= Stats.max a +. 1e-9)

let qcheck_quantile_monotone =
  QCheck.Test.make ~name:"quantile monotone in q" ~count:300
    QCheck.(
      pair
        (list_of_size (QCheck.Gen.int_range 2 40) (float_range (-50.) 50.))
        (pair (float_range 0. 1.) (float_range 0. 1.)))
    (fun (l, (q1, q2)) ->
      let a = Array.of_list l in
      let lo = Stdlib.min q1 q2 and hi = Stdlib.max q1 q2 in
      Stats.quantile a lo <= Stats.quantile a hi +. 1e-9)

let () =
  Alcotest.run "stats"
    [
      ( "basics",
        [
          Alcotest.test_case "mean" `Quick test_mean;
          Alcotest.test_case "mean empty" `Quick test_mean_empty;
          Alcotest.test_case "variance" `Quick test_variance;
          Alcotest.test_case "std" `Quick test_std;
          Alcotest.test_case "std constant" `Quick test_std_constant;
          Alcotest.test_case "min/max" `Quick test_min_max;
          Alcotest.test_case "median odd" `Quick test_median_odd;
          Alcotest.test_case "median even" `Quick test_median_even;
          Alcotest.test_case "quantile endpoints" `Quick test_quantile_endpoints;
          Alcotest.test_case "quantile interpolation" `Quick test_quantile_interpolation;
          Alcotest.test_case "quantile invalid" `Quick test_quantile_invalid;
          Alcotest.test_case "quantile singleton" `Quick test_quantile_single_element;
          Alcotest.test_case "quantile rejects nan" `Quick test_quantile_rejects_nan;
          Alcotest.test_case "quantile signed zeros" `Quick test_quantile_negative_zero_sorts;
        ] );
      ( "properties",
        [
          QCheck_alcotest.to_alcotest qcheck_std_nonneg;
          QCheck_alcotest.to_alcotest qcheck_mean_bounds;
          QCheck_alcotest.to_alcotest qcheck_quantile_monotone;
        ] );
    ]
