(* Tests for the synthetic benchmark datasets. *)

module Sy = Datasets.Synth
module B13 = Datasets.Bench13

let small_spec =
  {
    Sy.name = "toy";
    features = 3;
    classes = 2;
    samples = 200;
    modes_per_class = 1;
    class_sep = 0.3;
    spread = 0.05;
    label_noise = 0.0;
    priors = None;
    seed = 99;
  }

let test_generate_shapes () =
  let d = Sy.generate small_spec in
  Alcotest.(check (pair int int)) "x shape" (200, 3) (Tensor.shape d.Sy.x);
  Alcotest.(check int) "y length" 200 (Array.length d.Sy.y);
  Array.iter
    (fun cls -> if cls < 0 || cls >= 2 then Alcotest.failf "class out of range: %d" cls)
    d.Sy.y

let in_unit_range t = Array.for_all (fun v -> v >= 0.0 && v <= 1.0) (Tensor.to_array t)

let test_features_in_unit_range () =
  let d = Sy.generate small_spec in
  Alcotest.(check bool) "in [0, 1]" true (in_unit_range d.Sy.x)

let test_deterministic () =
  let a = Sy.generate small_spec and b = Sy.generate small_spec in
  Alcotest.(check bool) "same x" true (Tensor.equal a.Sy.x b.Sy.x);
  Alcotest.(check (array int)) "same y" a.Sy.y b.Sy.y

let test_seed_changes_data () =
  let b = Sy.generate { small_spec with seed = 100 } in
  let a = Sy.generate small_spec in
  Alcotest.(check bool) "different data" false (Tensor.equal a.Sy.x b.Sy.x)

let test_separable_when_easy () =
  (* large separation + small spread: nearest-centroid accuracy near 1 *)
  let d = Sy.generate { small_spec with class_sep = 0.5; spread = 0.03 } in
  let counts = Sy.class_counts d in
  Alcotest.(check int) "all samples" 200 (Array.fold_left ( + ) 0 counts);
  (* centroid separation should dominate spread *)
  let c0 = Array.make 3 0.0 and c1 = Array.make 3 0.0 in
  let n0 = ref 0 and n1 = ref 0 in
  Array.iteri
    (fun i cls ->
      let tgt, n = if cls = 0 then (c0, n0) else (c1, n1) in
      incr n;
      for j = 0 to 2 do
        tgt.(j) <- tgt.(j) +. Tensor.get d.Sy.x i j
      done)
    d.Sy.y;
  let dist = ref 0.0 in
  for j = 0 to 2 do
    let a = c0.(j) /. float_of_int !n0 and b = c1.(j) /. float_of_int !n1 in
    dist := !dist +. ((a -. b) ** 2.0)
  done;
  Alcotest.(check bool) "classes separated" true (sqrt !dist > 0.3)

let test_priors_respected () =
  let d =
    Sy.generate { small_spec with priors = Some [| 0.8; 0.2 |]; samples = 2000 }
  in
  let counts = Sy.class_counts d in
  let frac = float_of_int counts.(0) /. 2000.0 in
  Alcotest.(check bool) "prior ~0.8" true (Float.abs (frac -. 0.8) < 0.05)

let test_label_noise_reduces_purity () =
  let clean = Sy.generate { small_spec with samples = 2000 } in
  let noisy = Sy.generate { small_spec with samples = 2000; label_noise = 0.3 } in
  let differs = ref 0 in
  Array.iteri (fun i c -> if c <> noisy.Sy.y.(i) then incr differs) clean.Sy.y;
  (* 30% randomized, half land on the other class (2 classes) -> ~15% flips *)
  let frac = float_of_int !differs /. 2000.0 in
  Alcotest.(check bool) "some flips" true (frac > 0.08 && frac < 0.25)

let test_validation_errors () =
  Alcotest.check_raises "classes" (Invalid_argument "Synth.generate: classes < 2")
    (fun () -> ignore (Sy.generate { small_spec with classes = 1 }));
  Alcotest.check_raises "label noise"
    (Invalid_argument "Synth.generate: label_noise outside [0,1]") (fun () ->
      ignore (Sy.generate { small_spec with label_noise = 2.0 }));
  Alcotest.check_raises "priors" (Invalid_argument "Synth.generate: priors length mismatch")
    (fun () -> ignore (Sy.generate { small_spec with priors = Some [| 1.0 |] }))

let test_one_hot () =
  let oh = Sy.one_hot ~n_classes:3 [| 0; 2; 1 |] in
  Alcotest.(check (pair int int)) "shape" (3, 3) (Tensor.shape oh);
  Alcotest.(check (float 0.0)) "row0" 1.0 (Tensor.get oh 0 0);
  Alcotest.(check (float 0.0)) "row1" 1.0 (Tensor.get oh 1 2);
  Alcotest.(check (float 0.0)) "row sums" 3.0 (Tensor.sum oh);
  Alcotest.check_raises "range" (Invalid_argument "Synth.one_hot: class out of range")
    (fun () -> ignore (Sy.one_hot ~n_classes:2 [| 2 |]))

let test_split_disjoint_and_covering () =
  let d = Sy.generate small_spec in
  let s = Sy.split (Rng.create 4) d in
  let n_train = Array.length s.Sy.y_train in
  let n_val = Array.length s.Sy.y_val in
  let n_test = Array.length s.Sy.y_test in
  Alcotest.(check int) "covers all" 200 (n_train + n_val + n_test);
  Alcotest.(check int) "60% train" 120 n_train;
  Alcotest.(check int) "20% val" 40 n_val

let test_split_bad_fractions () =
  let d = Sy.generate small_spec in
  Alcotest.check_raises "fractions" (Invalid_argument "Synth.split: bad fractions")
    (fun () -> ignore (Sy.split (Rng.create 1) ~fractions:(0.8, 0.3) d))

let test_bench13_complete () =
  Alcotest.(check int) "13 datasets" 13 (List.length B13.specs);
  (* paper Table II dimensions *)
  let check name features classes =
    let s = B13.find name in
    Alcotest.(check int) (name ^ " features") features s.Sy.features;
    Alcotest.(check int) (name ^ " classes") classes s.Sy.classes
  in
  check "iris" 4 3;
  check "pendigits" 16 10;
  check "tic-tac-toe" 9 2;
  check "vertebral-2c" 6 2;
  check "vertebral-3c" 6 3;
  check "breast-cancer-wisconsin" 9 2

let test_bench13_find_missing () =
  Alcotest.check_raises "missing" Not_found (fun () -> ignore (B13.find "nope"))

let test_bench13_loadable () =
  (* every dataset generates with the right sample count and scaled features *)
  List.iter
    (fun data ->
      let spec = data.Sy.spec in
      Alcotest.(check int) (spec.Sy.name ^ " samples") spec.Sy.samples
        (Array.length data.Sy.y);
      Alcotest.(check bool) (spec.Sy.name ^ " range") true
        (in_unit_range data.Sy.x))
    (B13.load_all ())

let test_tic_tac_toe_majority () =
  (* calibrated to the paper's 0.63-ish majority baseline *)
  let d = B13.load "tic-tac-toe" in
  let m = Sy.majority_fraction d in
  Alcotest.(check bool) "majority around 0.65" true (m > 0.58 && m < 0.72)

let qcheck_split_preserves_samples =
  QCheck.Test.make ~name:"split partitions the data" ~count:50
    QCheck.(int_range 1 10_000)
    (fun seed ->
      let d = Sy.generate { small_spec with seed } in
      let s = Sy.split (Rng.create seed) d in
      Array.length s.Sy.y_train + Array.length s.Sy.y_val + Array.length s.Sy.y_test
      = 200)

let () =
  Alcotest.run "datasets"
    [
      ( "synth",
        [
          Alcotest.test_case "shapes" `Quick test_generate_shapes;
          Alcotest.test_case "unit range" `Quick test_features_in_unit_range;
          Alcotest.test_case "deterministic" `Quick test_deterministic;
          Alcotest.test_case "seed sensitivity" `Quick test_seed_changes_data;
          Alcotest.test_case "separable when easy" `Quick test_separable_when_easy;
          Alcotest.test_case "priors" `Quick test_priors_respected;
          Alcotest.test_case "label noise" `Quick test_label_noise_reduces_purity;
          Alcotest.test_case "validation" `Quick test_validation_errors;
          Alcotest.test_case "one hot" `Quick test_one_hot;
          Alcotest.test_case "split partition" `Quick test_split_disjoint_and_covering;
          Alcotest.test_case "split fractions" `Quick test_split_bad_fractions;
          QCheck_alcotest.to_alcotest qcheck_split_preserves_samples;
        ] );
      ( "exact",
        [
          Alcotest.test_case "balance-scale matches UCI" `Quick (fun () ->
              let d = Datasets.Exact.balance_scale () in
              Alcotest.(check int) "625 instances" 625 (Array.length d.Sy.y);
              let c = Sy.class_counts d in
              Alcotest.(check (array int)) "L/B/R = 288/49/288" [| 288; 49; 288 |] c);
          Alcotest.test_case "balance-scale torque rule" `Quick (fun () ->
              let d = Datasets.Exact.balance_scale () in
              (* spot-check: decode features back to 1..5 and verify labels *)
              Array.iteri
                (fun i cls ->
                  let attr j = int_of_float ((Tensor.get d.Sy.x i j *. 4.0) +. 1.5) in
                  let left = attr 0 * attr 1 and right = attr 2 * attr 3 in
                  let expected = if left > right then 0 else if left = right then 1 else 2 in
                  if cls <> expected then Alcotest.failf "row %d mislabelled" i)
                d.Sy.y);
          Alcotest.test_case "tic-tac-toe matches UCI" `Quick (fun () ->
              let d = Datasets.Exact.tic_tac_toe () in
              Alcotest.(check int) "958 boards" 958 (Array.length d.Sy.y);
              let c = Sy.class_counts d in
              Alcotest.(check int) "626 positive" 626 c.(1);
              Alcotest.(check int) "332 negative" 332 c.(0));
          Alcotest.test_case "tic-tac-toe boards distinct" `Quick (fun () ->
              let d = Datasets.Exact.tic_tac_toe () in
              let seen = Hashtbl.create 1024 in
              for i = 0 to Array.length d.Sy.y - 1 do
                let row =
                  String.concat ","
                    (List.init 9 (fun j -> string_of_float (Tensor.get d.Sy.x i j)))
                in
                if Hashtbl.mem seen row then Alcotest.failf "duplicate board %d" i;
                Hashtbl.add seen row ()
              done);
          Alcotest.test_case "tic-tac-toe labels consistent" `Quick (fun () ->
              let d = Datasets.Exact.tic_tac_toe () in
              (* positive iff X (encoded 1.0) has a line *)
              let lines =
                [ (0,1,2); (3,4,5); (6,7,8); (0,3,6); (1,4,7); (2,5,8); (0,4,8); (2,4,6) ]
              in
              Array.iteri
                (fun i cls ->
                  let x_at j = Float.equal (Tensor.get d.Sy.x i j) 1.0 in
                  let xwins =
                    List.exists (fun (a, b, c) -> x_at a && x_at b && x_at c) lines
                  in
                  if (cls = 1) <> xwins then Alcotest.failf "board %d mislabelled" i)
                d.Sy.y);
          Alcotest.test_case "tic-tac-toe canonical row order" `Quick (fun () ->
              (* regression: rows are sorted on the unique base-3 board key,
                 not emitted in the DFS collection order, so the row order is
                 a property of the boards alone and repeat calls agree *)
              let d = Datasets.Exact.tic_tac_toe () in
              let decode v =
                if Float.equal v 1.0 then 1
                else if Float.equal v 0.0 then 2
                else 0
              in
              let key i =
                let k = ref 0 in
                for j = 0 to 8 do
                  k := (!k * 3) + decode (Tensor.get d.Sy.x i j)
                done;
                !k
              in
              let prev = ref (-1) in
              for i = 0 to Array.length d.Sy.y - 1 do
                let k = key i in
                if k <= !prev then Alcotest.failf "row %d out of key order" i;
                prev := k
              done;
              let d2 = Datasets.Exact.tic_tac_toe () in
              Alcotest.(check bool) "repeat call bit-identical features" true
                (Tensor.equal ~eps:0.0 d.Sy.x d2.Sy.x);
              Alcotest.(check (array int)) "repeat call identical labels"
                d.Sy.y d2.Sy.y);
          Alcotest.test_case "bench13 routes exact datasets" `Quick (fun () ->
              let d = B13.load "balance-scale" in
              Alcotest.(check (float 0.0)) "exact marker: zero spread" 0.0
                d.Sy.spec.Sy.spread);
        ] );
      ( "bench13",
        [
          Alcotest.test_case "complete" `Quick test_bench13_complete;
          Alcotest.test_case "find missing" `Quick test_bench13_find_missing;
          Alcotest.test_case "loadable" `Quick test_bench13_loadable;
          Alcotest.test_case "ttt majority" `Quick test_tic_tac_toe_majority;
        ] );
    ]
