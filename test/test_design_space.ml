(* Tests for the Table-I design space. *)

module Ds = Surrogate.Design_space

let test_dims () =
  Alcotest.(check int) "dim" 7 Ds.dim;
  Alcotest.(check int) "extended" 10 Ds.extended_dim;
  Alcotest.(check int) "learnable" 7 Ds.learnable_dim;
  Alcotest.(check int) "names" 7 (Array.length Ds.names)

let test_bounds_table1 () =
  (* spot-check the paper's Table I values *)
  Alcotest.(check (float 0.0)) "R1 min" 10.0 Ds.omega_lo.(0);
  Alcotest.(check (float 0.0)) "R1 max" 500.0 Ds.omega_hi.(0);
  Alcotest.(check (float 0.0)) "R2 min" 5.0 Ds.omega_lo.(1);
  Alcotest.(check (float 0.0)) "R4 max" 400e3 Ds.omega_hi.(3);
  Alcotest.(check (float 0.0)) "W min" 200.0 Ds.omega_lo.(5);
  Alcotest.(check (float 0.0)) "L max" 70.0 Ds.omega_hi.(6)

let test_assemble_center () =
  let raw = Array.mapi (fun i lo -> (lo +. Ds.learnable_hi.(i)) /. 2.0) Ds.learnable_lo in
  let omega = Ds.assemble raw in
  Alcotest.(check bool) "feasible" true (Ds.contains omega);
  Alcotest.(check (float 1e-9)) "R2 = R1 * k1" (omega.(0) *. raw.(5)) omega.(1)

let test_assemble_clips_r2 () =
  (* R1 max with k1 near 1 drives R2 above its box: must clip to 250 *)
  let raw = [| 500.0; 10e3; 10e3; 200.0; 10.0; 0.98; 0.5 |] in
  let omega = Ds.assemble raw in
  Alcotest.(check (float 0.0)) "R2 clipped" 250.0 omega.(1);
  Alcotest.(check bool) "still feasible" true (Ds.contains omega)

let test_assemble_respects_inequalities () =
  (* R1 at its minimum with tiny k1: R2 would fall below its box; the clip
     must keep R2 >= 5 and still below R1 *)
  let raw = [| 10.0; 10e3; 10e3; 200.0; 10.0; 0.02; 0.02 |] in
  let omega = Ds.assemble raw in
  Alcotest.(check bool) "R2 in box" true (omega.(1) >= 5.0);
  Alcotest.(check bool) "R2 < R1" true (omega.(1) < omega.(0))

let test_assemble_invalid_length () =
  Alcotest.check_raises "len" (Invalid_argument "Design_space.assemble: need 7 raw values")
    (fun () -> ignore (Ds.assemble [| 1.0 |]))

let test_extend () =
  let omega = [| 100.0; 50.0; 200e3; 100e3; 300e3; 400.0; 20.0 |] in
  let e = Ds.extend omega in
  Alcotest.(check int) "length" 10 (Array.length e);
  Alcotest.(check (float 1e-12)) "k1" 0.5 e.(7);
  Alcotest.(check (float 1e-12)) "k2" 0.5 e.(8);
  Alcotest.(check (float 1e-12)) "k3" 20.0 e.(9)

let test_contains () =
  Alcotest.(check bool) "violating inequality" false
    (Ds.contains [| 100.0; 150.0; 200e3; 100e3; 300e3; 400.0; 20.0 |]);
  Alcotest.(check bool) "out of box" false
    (Ds.contains [| 1000.0; 150.0; 200e3; 100e3; 300e3; 400.0; 20.0 |]);
  Alcotest.(check bool) "wrong length" false (Ds.contains [| 1.0 |])

let test_sample_sobol_feasible () =
  let samples = Ds.sample_sobol ~n:500 in
  Alcotest.(check int) "count" 500 (Array.length samples);
  Array.iter
    (fun omega ->
      if not (Ds.contains omega) then
        Alcotest.failf "infeasible sample: [%s]"
          (String.concat "; " (Array.to_list (Array.map string_of_float omega))))
    samples

let test_sample_sobol_spans_space () =
  let samples = Ds.sample_sobol ~n:1000 in
  (* each raw coordinate should cover most of its range *)
  let r1s = Array.map (fun o -> o.(0)) samples in
  Alcotest.(check bool) "R1 covers low" true (Array.exists (fun v -> v < 60.0) r1s);
  Alcotest.(check bool) "R1 covers high" true (Array.exists (fun v -> v > 450.0) r1s)

let test_sample_lhs_feasible () =
  let samples = Ds.sample_lhs (Rng.create 3) ~n:200 in
  Array.iter
    (fun omega ->
      if not (Ds.contains omega) then Alcotest.fail "infeasible LHS sample")
    samples

let qcheck_assemble_always_feasible =
  QCheck.Test.make ~name:"assemble of any raw point is feasible" ~count:500
    QCheck.(
      list_of_size (QCheck.Gen.return 7) (float_range (-1e6) 1e6))
    (fun raw_list ->
      let omega = Ds.assemble (Array.of_list raw_list) in
      Ds.contains omega)

let qcheck_extend_ratios_below_one =
  QCheck.Test.make ~name:"extend ratios respect inequalities on feasible points"
    ~count:300
    QCheck.(int_range 0 100_000)
    (fun seed ->
      let omega = Ds.sample_lhs (Rng.create seed) ~n:1 in
      let e = Ds.extend omega.(0) in
      e.(7) < 1.0 && e.(8) < 1.0)

let () =
  Alcotest.run "design_space"
    [
      ( "space",
        [
          Alcotest.test_case "dims" `Quick test_dims;
          Alcotest.test_case "table1 bounds" `Quick test_bounds_table1;
          Alcotest.test_case "assemble center" `Quick test_assemble_center;
          Alcotest.test_case "assemble clips R2" `Quick test_assemble_clips_r2;
          Alcotest.test_case "assemble inequalities" `Quick test_assemble_respects_inequalities;
          Alcotest.test_case "assemble invalid" `Quick test_assemble_invalid_length;
          Alcotest.test_case "extend" `Quick test_extend;
          Alcotest.test_case "contains" `Quick test_contains;
          Alcotest.test_case "sobol feasible" `Quick test_sample_sobol_feasible;
          Alcotest.test_case "sobol spans" `Quick test_sample_sobol_spans_space;
          Alcotest.test_case "lhs feasible" `Quick test_sample_lhs_feasible;
          QCheck_alcotest.to_alcotest qcheck_assemble_always_feasible;
          QCheck_alcotest.to_alcotest qcheck_extend_ratios_below_one;
        ] );
    ]
