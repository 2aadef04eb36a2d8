(* Tests for the Levenberg–Marquardt solver, the ptanh fit's oracle
   (test/lm.ml). *)

let test_linear_fit () =
  (* y = 2x + 1, exact fit *)
  let xs = [| 0.0; 1.0; 2.0; 3.0 |] in
  let ys = [| 1.0; 3.0; 5.0; 7.0 |] in
  let problem =
    Lm.problem ~n_params:2 ~n_residuals:4
      ~residuals:(fun p r _ -> Array.iteri (fun i x -> r.(i) <- (p.(0) *. x) +. p.(1) -. ys.(i)) xs)
      ~jacobian_row:(fun _ _ i row ->
        row.(0) <- xs.(i);
        row.(1) <- 1.0)
  in
  let r = Lm.solve problem [| 0.0; 0.0 |] in
  Alcotest.(check (float 1e-6)) "slope" 2.0 r.Lm.params.(0);
  Alcotest.(check (float 1e-6)) "intercept" 1.0 r.Lm.params.(1);
  Alcotest.(check bool) "converged" true r.Lm.converged;
  Alcotest.(check bool) "zero cost" true (r.Lm.cost < 1e-12)

(* y = 3 exp(-0.7 x), nonlinear; aux carries exp(p1·x) from the residual
   pass to the Jacobian rows *)
let exponential_problem () =
  let xs = Array.init 20 (fun i -> float_of_int i *. 0.25) in
  let ys = Array.map (fun x -> 3.0 *. exp (-0.7 *. x)) xs in
  Lm.problem ~n_params:2 ~n_residuals:(Array.length xs)
    ~residuals:(fun p r e ->
      Array.iteri
        (fun i x ->
          e.(i) <- exp (p.(1) *. x);
          r.(i) <- (p.(0) *. e.(i)) -. ys.(i))
        xs)
    ~jacobian_row:(fun p e i row ->
      row.(0) <- e.(i);
      row.(1) <- p.(0) *. xs.(i) *. e.(i))

let test_exponential_fit () =
  let problem = exponential_problem () in
  let r = Lm.solve problem [| 1.0; -0.1 |] in
  Alcotest.(check (float 1e-5)) "amplitude" 3.0 r.Lm.params.(0);
  Alcotest.(check (float 1e-5)) "rate" (-0.7) r.Lm.params.(1)

let test_initial_guess_length () =
  let problem =
    Lm.problem ~n_params:2 ~n_residuals:1
      ~residuals:(fun _ r _ -> r.(0) <- 0.0)
      ~jacobian_row:(fun _ _ _ row -> Array.fill row 0 2 0.0)
  in
  Alcotest.check_raises "bad p0" (Invalid_argument "Lm.solve: initial guess has wrong length")
    (fun () -> ignore (Lm.solve problem [| 0.0 |]))

let test_already_optimal () =
  (* start at the optimum: should converge immediately without moving *)
  let problem =
    Lm.problem ~n_params:1 ~n_residuals:2
      ~residuals:(fun p r _ -> Array.fill r 0 2 (p.(0) -. 5.0))
      ~jacobian_row:(fun _ _ _ row -> row.(0) <- 1.0)
  in
  let r = Lm.solve problem [| 5.0 |] in
  Alcotest.(check (float 1e-9)) "stays put" 5.0 r.Lm.params.(0)

let test_numerical_jacobian_agrees () =
  let f p = [| (p.(0) *. p.(0)) +. p.(1); sin p.(0) |] in
  let p = [| 0.7; -0.3 |] in
  let j = Lm.numerical_jacobian ~n_residuals:2 f p in
  Alcotest.(check (float 1e-5)) "d r0/d p0" 1.4 j.(0).(0);
  Alcotest.(check (float 1e-5)) "d r0/d p1" 1.0 j.(0).(1);
  Alcotest.(check (float 1e-5)) "d r1/d p0" (cos 0.7) j.(1).(0);
  Alcotest.(check (float 1e-5)) "d r1/d p1" 0.0 j.(1).(1)

let test_rosenbrock_valley () =
  (* classic hard case as least squares: r = [10(y - x^2); 1 - x] *)
  let problem =
    Lm.problem ~n_params:2 ~n_residuals:2
      ~residuals:(fun p r _ ->
        r.(0) <- 10.0 *. (p.(1) -. (p.(0) *. p.(0)));
        r.(1) <- 1.0 -. p.(0))
      ~jacobian_row:(fun p _ i row ->
        if i = 0 then begin
          row.(0) <- -20.0 *. p.(0);
          row.(1) <- 10.0
        end
        else begin
          row.(0) <- -1.0;
          row.(1) <- 0.0
        end)
  in
  let r = Lm.solve ~max_iterations:500 problem [| -1.2; 1.0 |] in
  Alcotest.(check (float 1e-4)) "x" 1.0 r.Lm.params.(0);
  Alcotest.(check (float 1e-4)) "y" 1.0 r.Lm.params.(1)

let test_noisy_fit_cost_reasonable () =
  let rng = Rng.create 21 in
  let xs = Array.init 50 (fun i -> float_of_int i /. 10.0) in
  let ys = Array.map (fun x -> (1.5 *. x) +. 0.2 +. Rng.gaussian rng ~mu:0.0 ~sigma:0.01) xs in
  let problem =
    Lm.problem ~n_params:2 ~n_residuals:50
      ~residuals:(fun p r _ -> Array.iteri (fun i x -> r.(i) <- (p.(0) *. x) +. p.(1) -. ys.(i)) xs)
      ~jacobian_row:(fun _ _ i row ->
        row.(0) <- xs.(i);
        row.(1) <- 1.0)
  in
  let r = Lm.solve problem [| 0.0; 0.0 |] in
  Alcotest.(check bool) "slope near 1.5" true (Float.abs (r.Lm.params.(0) -. 1.5) < 0.02);
  Alcotest.(check bool) "cost ~ noise level" true (r.Lm.cost < 50.0 *. 0.01)

let test_aux_jacobian_agrees () =
  (* rows built from the residual pass's aux match central differences *)
  let problem = exponential_problem () in
  let p = [| 2.0; -0.4 |] in
  let analytic = Lm.jacobian problem p in
  let numeric = Lm.numerical_jacobian ~n_residuals:20 (Lm.residuals problem) p in
  Array.iteri
    (fun i row ->
      Array.iteri
        (fun j a -> Alcotest.(check (float 1e-6)) (Printf.sprintf "J(%d,%d)" i j) a numeric.(i).(j))
        row)
    analytic

let test_scratch_reuse () =
  (* a problem's scratch is shared by sequential solves (a multi-start):
     a solve after another one from a different start returns the same
     bits as the first solve on a fresh problem *)
  let fresh = Lm.solve (exponential_problem ()) [| 1.0; -0.1 |] in
  let problem = exponential_problem () in
  ignore (Lm.solve problem [| 5.0; 0.3 |]);
  let reused = Lm.solve problem [| 1.0; -0.1 |] in
  Alcotest.(check (array (float 0.0))) "params" fresh.Lm.params reused.Lm.params;
  Alcotest.(check (float 0.0)) "cost" fresh.Lm.cost reused.Lm.cost;
  Alcotest.(check int) "iterations" fresh.Lm.iterations reused.Lm.iterations

let () =
  Alcotest.run "lm"
    [
      ( "solver",
        [
          Alcotest.test_case "linear" `Quick test_linear_fit;
          Alcotest.test_case "exponential" `Quick test_exponential_fit;
          Alcotest.test_case "bad guess length" `Quick test_initial_guess_length;
          Alcotest.test_case "already optimal" `Quick test_already_optimal;
          Alcotest.test_case "numerical jacobian" `Quick test_numerical_jacobian_agrees;
          Alcotest.test_case "rosenbrock" `Quick test_rosenbrock_valley;
          Alcotest.test_case "noisy linear" `Quick test_noisy_fit_cost_reasonable;
          Alcotest.test_case "aux jacobian" `Quick test_aux_jacobian_agrees;
          Alcotest.test_case "scratch reuse" `Quick test_scratch_reuse;
        ] );
    ]
