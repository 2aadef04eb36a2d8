(* Tests for Sobol and Latin-hypercube sampling. *)

module S = Qmc.Sobol

(* the next [n] points of [t] *)
let generate t n = Array.init n (fun _ -> S.next t)

let test_dimension_bounds () =
  Alcotest.check_raises "dim 0"
    (Invalid_argument "Sobol.create: dimension 0 outside 1..10") (fun () ->
      ignore (S.create 0));
  Alcotest.check_raises "dim 11"
    (Invalid_argument "Sobol.create: dimension 11 outside 1..10") (fun () ->
      ignore (S.create 11))

let test_first_points_dim1 () =
  (* Gray-code ordering of the van der Corput sequence (after skipping the
     origin): each block of 2^k consecutive points still forms a (0,k,1)-net *)
  let s = S.create 1 in
  let expected = [ 0.5; 0.75; 0.25; 0.375; 0.875; 0.625; 0.125; 0.1875 ] in
  List.iter
    (fun e ->
      let p = S.next s in
      Alcotest.(check (float 1e-9)) "vdc point" e p.(0))
    expected

let test_points_in_unit_cube () =
  let s = S.create 7 in
  for _ = 1 to 2000 do
    let p = S.next s in
    Array.iter
      (fun v -> if v < 0.0 || v >= 1.0 then Alcotest.failf "out of cube: %f" v)
      p
  done

let test_no_skip_starts_at_origin () =
  let s = S.create 3 ~skip:0 in
  let p = S.next s in
  Alcotest.(check (array (float 0.0))) "origin" [| 0.0; 0.0; 0.0 |] p

let test_deterministic () =
  let a = generate (S.create 5) 100 in
  let b = generate (S.create 5) 100 in
  Alcotest.(check bool) "same sequence" true (a = b)

let test_distinct_dimensions () =
  (* dimensions must not be identical copies of one another *)
  let s = S.create 10 in
  let pts = generate s 64 in
  for d1 = 0 to 9 do
    for d2 = d1 + 1 to 9 do
      let same = ref true in
      Array.iter (fun p -> if p.(d1) <> p.(d2) then same := false) pts;
      if !same then Alcotest.failf "dimensions %d and %d identical" d1 d2
    done
  done

let test_balance_powers_of_two () =
  (* a (0,m,s)-net property consequence: the first 2^k points have exactly
     half below 1/2 in each coordinate *)
  let s = S.create 4 ~skip:0 in
  let pts = generate s 64 in
  for d = 0 to 3 do
    let below = Array.fold_left (fun acc p -> if p.(d) < 0.5 then acc + 1 else acc) 0 pts in
    Alcotest.(check int) (Printf.sprintf "dim %d balanced" d) 32 below
  done

let test_uniformity_vs_bins () =
  let s = S.create 2 in
  let pts = generate s 1024 in
  let bins = Array.make 16 0 in
  Array.iter
    (fun p ->
      let bx = Stdlib.min 3 (int_of_float (p.(0) *. 4.0)) in
      let by = Stdlib.min 3 (int_of_float (p.(1) *. 4.0)) in
      bins.((bx * 4) + by) <- bins.((bx * 4) + by) + 1)
    pts;
  Array.iteri
    (fun i c ->
      if c < 48 || c > 80 then Alcotest.failf "bin %d count %d far from 64" i c)
    bins

let test_low_discrepancy_beats_random () =
  (* star-discrepancy proxy: max deviation of the empirical CDF over a grid of
     anchored boxes. Sobol should beat a PRNG at the same sample count. *)
  let disc pts =
    let n = float_of_int (Array.length pts) in
    let worst = ref 0.0 in
    for i = 1 to 9 do
      for j = 1 to 9 do
        let x = float_of_int i /. 10.0 and y = float_of_int j /. 10.0 in
        let inside =
          Array.fold_left
            (fun acc p -> if p.(0) < x && p.(1) < y then acc +. 1.0 else acc)
            0.0 pts
        in
        let d = Float.abs ((inside /. n) -. (x *. y)) in
        if d > !worst then worst := d
      done
    done;
    !worst
  in
  let sobol = generate (S.create 2) 512 in
  let rng = Rng.create 4 in
  let random = Array.init 512 (fun _ -> [| Rng.float rng; Rng.float rng |]) in
  Alcotest.(check bool) "sobol more uniform" true (disc sobol < disc random)

let test_next_in_box () =
  let s = S.create 3 in
  let lo = [| -1.0; 0.0; 10.0 |] and hi = [| 1.0; 0.5; 20.0 |] in
  for _ = 1 to 100 do
    let p = S.next_in_box s ~lo ~hi in
    Array.iteri
      (fun i v ->
        if v < lo.(i) || v >= hi.(i) then Alcotest.failf "box violated at %d: %f" i v)
      p
  done

let test_lhs_stratification () =
  let rng = Rng.create 11 in
  let pts = Qmc.Lhs.sample rng ~dim:3 ~n:10 in
  (* each axis: exactly one point per decile *)
  for d = 0 to 2 do
    let seen = Array.make 10 false in
    Array.iter
      (fun p ->
        let bin = Stdlib.min 9 (int_of_float (p.(d) *. 10.0)) in
        if seen.(bin) then Alcotest.failf "axis %d bin %d hit twice" d bin;
        seen.(bin) <- true)
      pts;
    Alcotest.(check bool) "all bins" true (Array.for_all (fun b -> b) seen)
  done

let test_lhs_invalid () =
  Alcotest.check_raises "bad dims" (Invalid_argument "Lhs.sample: dim and n must be positive")
    (fun () -> ignore (Qmc.Lhs.sample (Rng.create 1) ~dim:0 ~n:5))

let qcheck_sobol_range =
  QCheck.Test.make ~name:"all points in cube for any dim/skip" ~count:100
    QCheck.(pair (int_range 1 10) (int_range 0 50))
    (fun (dim, skip) ->
      let s = S.create ~skip dim in
      let pts = generate s 50 in
      Array.for_all (Array.for_all (fun v -> v >= 0.0 && v < 1.0)) pts)

let () =
  Alcotest.run "sobol"
    [
      ( "sobol",
        [
          Alcotest.test_case "dimension bounds" `Quick test_dimension_bounds;
          Alcotest.test_case "dim1 sequence" `Quick test_first_points_dim1;
          Alcotest.test_case "unit cube" `Quick test_points_in_unit_cube;
          Alcotest.test_case "origin with skip 0" `Quick test_no_skip_starts_at_origin;
          Alcotest.test_case "deterministic" `Quick test_deterministic;
          Alcotest.test_case "distinct dims" `Quick test_distinct_dimensions;
          Alcotest.test_case "binary balance" `Quick test_balance_powers_of_two;
          Alcotest.test_case "uniform bins" `Quick test_uniformity_vs_bins;
          Alcotest.test_case "beats random" `Quick test_low_discrepancy_beats_random;
          Alcotest.test_case "boxes" `Quick test_next_in_box;
          QCheck_alcotest.to_alcotest qcheck_sobol_range;
        ] );
      ( "lhs",
        [
          Alcotest.test_case "stratification" `Quick test_lhs_stratification;
          Alcotest.test_case "invalid" `Quick test_lhs_invalid;
        ] );
    ]
