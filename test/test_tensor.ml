(* Tests for dense tensors. *)

module T = Tensor

(* The library keeps only the destination-passing forms of these two. *)
let transpose t =
  let d = T.zeros (T.cols t) (T.rows t) in
  T.transpose_into t ~dst:d;
  d

let sum_rows t =
  let d = T.zeros 1 (T.cols t) in
  T.sum_rows_into t ~dst:d;
  d

let to_string t =
  String.concat "; "
    (Array.to_list (Array.map (fun row -> String.concat " " (Array.to_list (Array.map string_of_float row))) (T.to_arrays t)))

let tensor_eq ?(eps = 1e-12) msg a b =
  if not (T.equal ~eps a b) then
    Alcotest.failf "%s:\nexpected %s\ngot %s" msg (to_string a) (to_string b)

let test_create_checks () =
  Alcotest.check_raises "bad length"
    (Invalid_argument "Tensor.create: data length 3 <> 2*2") (fun () ->
      ignore (T.create 2 2 [| 1.0; 2.0; 3.0 |]))

let test_init_layout () =
  let t = T.init 2 3 (fun r c -> float_of_int ((10 * r) + c)) in
  Alcotest.(check (float 0.0)) "(0,0)" 0.0 (T.get t 0 0);
  Alcotest.(check (float 0.0)) "(0,2)" 2.0 (T.get t 0 2);
  Alcotest.(check (float 0.0)) "(1,0)" 10.0 (T.get t 1 0);
  Alcotest.(check (float 0.0)) "(1,2)" 12.0 (T.get t 1 2)

let test_get_bounds () =
  let t = T.zeros 2 2 in
  Alcotest.check_raises "row oob" (Invalid_argument "Tensor.get: (2,0) out of 2x2")
    (fun () -> ignore (T.get t 2 0))

let test_of_arrays_ragged () =
  Alcotest.check_raises "ragged"
    (Invalid_argument "Tensor.of_arrays: row 1 has length 1, expected 2") (fun () ->
      ignore (T.of_arrays [| [| 1.0; 2.0 |]; [| 3.0 |] |]))

let test_elementwise () =
  let a = T.of_arrays [| [| 1.0; 2.0 |]; [| 3.0; 4.0 |] |] in
  let b = T.of_arrays [| [| 5.0; 6.0 |]; [| 7.0; 8.0 |] |] in
  tensor_eq "add" (T.of_arrays [| [| 6.0; 8.0 |]; [| 10.0; 12.0 |] |]) (T.add a b);
  tensor_eq "sub" (T.of_arrays [| [| -4.0; -4.0 |]; [| -4.0; -4.0 |] |]) (T.sub a b);
  tensor_eq "mul" (T.of_arrays [| [| 5.0; 12.0 |]; [| 21.0; 32.0 |] |]) (T.mul a b);
  tensor_eq "neg" (T.of_arrays [| [| -1.0; -2.0 |]; [| -3.0; -4.0 |] |]) (T.neg a);
  tensor_eq "scale" (T.of_arrays [| [| 2.0; 4.0 |]; [| 6.0; 8.0 |] |]) (T.scale 2.0 a)

let test_shape_mismatch () =
  let a = T.zeros 2 2 and b = T.zeros 2 3 in
  Alcotest.check_raises "add mismatch"
    (Invalid_argument "Tensor.add: shape mismatch 2x2 vs 2x3") (fun () ->
      ignore (T.add a b))

let test_matmul_known () =
  let a = T.of_arrays [| [| 1.0; 2.0 |]; [| 3.0; 4.0 |] |] in
  let b = T.of_arrays [| [| 5.0; 6.0 |]; [| 7.0; 8.0 |] |] in
  tensor_eq "a*b" (T.of_arrays [| [| 19.0; 22.0 |]; [| 43.0; 50.0 |] |]) (T.matmul a b)

let test_matmul_identity () =
  let rng = Rng.create 1 in
  let a = T.uniform rng 4 4 ~lo:(-1.0) ~hi:1.0 in
  let id = T.init 4 4 (fun r c -> if r = c then 1.0 else 0.0) in
  tensor_eq ~eps:1e-12 "a*I = a" a (T.matmul a id);
  tensor_eq ~eps:1e-12 "I*a = a" a (T.matmul id a)

let test_matmul_vs_naive () =
  let rng = Rng.create 2 in
  let a = T.uniform rng 5 7 ~lo:(-2.0) ~hi:2.0 in
  let b = T.uniform rng 7 3 ~lo:(-2.0) ~hi:2.0 in
  let naive =
    T.init 5 3 (fun i j ->
        let acc = ref 0.0 in
        for k = 0 to 6 do
          acc := !acc +. (T.get a i k *. T.get b k j)
        done;
        !acc)
  in
  tensor_eq ~eps:1e-12 "naive agreement" naive (T.matmul a b)

let test_transpose () =
  let a = T.of_arrays [| [| 1.0; 2.0; 3.0 |]; [| 4.0; 5.0; 6.0 |] |] in
  tensor_eq "transpose"
    (T.of_arrays [| [| 1.0; 4.0 |]; [| 2.0; 5.0 |]; [| 3.0; 6.0 |] |])
    (transpose a);
  tensor_eq "involution" a (transpose (transpose a))

let test_broadcast_ops () =
  let m = T.of_arrays [| [| 1.0; 2.0 |]; [| 3.0; 4.0 |] |] in
  let v = T.of_array [| 10.0; 20.0 |] in
  tensor_eq "add_rowvec" (T.of_arrays [| [| 11.0; 22.0 |]; [| 13.0; 24.0 |] |])
    (T.add_rowvec m v);
  tensor_eq "mul_rowvec" (T.of_arrays [| [| 10.0; 40.0 |]; [| 30.0; 80.0 |] |])
    (T.mul_rowvec m v)

let test_reductions () =
  let m = T.of_arrays [| [| 1.0; 2.0 |]; [| 3.0; 4.0 |] |] in
  Alcotest.(check (float 1e-12)) "sum" 10.0 (T.sum m);
  Alcotest.(check (float 1e-12)) "mean" 2.5 (T.mean m);
  tensor_eq "sum_rows" (T.of_array [| 4.0; 6.0 |]) (sum_rows m)

let test_argmax_rows () =
  let m = T.of_arrays [| [| 0.1; 0.9; 0.5 |]; [| 2.0; 1.0; 0.0 |] |] in
  Alcotest.(check (array int)) "argmax" [| 1; 0 |] (T.argmax_rows m)

let test_slicing () =
  let m = T.init 4 3 (fun r c -> float_of_int ((r * 3) + c)) in
  tensor_eq "slice_rows"
    (T.of_arrays [| [| 3.0; 4.0; 5.0 |]; [| 6.0; 7.0; 8.0 |] |])
    (T.slice_rows m 1 2);
  Alcotest.check_raises "slice oob"
    (Invalid_argument "Tensor.slice_rows: [3,6) out of 4 rows") (fun () ->
      ignore (T.slice_rows m 3 3))

let test_concat () =
  let a = T.of_arrays [| [| 1.0 |]; [| 2.0 |] |] in
  let b = T.of_arrays [| [| 3.0 |]; [| 4.0 |] |] in
  tensor_eq "concat_rows" (T.create 4 1 [| 1.0; 2.0; 3.0; 4.0 |]) (T.concat_rows a b)

let test_take_rows () =
  let m = T.init 4 2 (fun r c -> float_of_int ((r * 2) + c)) in
  tensor_eq "take"
    (T.of_arrays [| [| 4.0; 5.0 |]; [| 0.0; 1.0 |]; [| 4.0; 5.0 |] |])
    (T.take_rows m [| 2; 0; 2 |]);
  Alcotest.check_raises "take oob" (Invalid_argument "Tensor.take_rows: index out of range")
    (fun () -> ignore (T.take_rows m [| 4 |]))

let test_dot () =
  let a = T.of_array [| 1.0; 2.0; 3.0 |] and b = T.of_array [| 4.0; 5.0; 6.0 |] in
  Alcotest.(check (float 1e-12)) "dot" 32.0 (T.dot a b)

let test_create_copies () =
  let data = [| 1.0; 2.0 |] in
  let t = T.create 1 2 data in
  data.(0) <- 99.0;
  Alcotest.(check (float 0.0)) "later writes to the array do not reach the tensor" 1.0
    (T.get t 0 0)

let test_copy_isolated () =
  let a = T.zeros 2 2 in
  let b = T.copy a in
  T.set b 0 0 5.0;
  Alcotest.(check (float 0.0)) "original unchanged" 0.0 (T.get a 0 0)

let small_mat =
  QCheck.Gen.(
    sized_size (int_range 1 6) (fun n ->
        sized_size (int_range 1 6) (fun m ->
            map
              (fun values -> T.create n m (Array.of_list values))
              (list_repeat (n * m) (float_range (-10.0) 10.0)))))

let arb_mat = QCheck.make ~print:to_string small_mat

let qcheck_transpose_involution =
  QCheck.Test.make ~name:"transpose involution" ~count:200 arb_mat (fun m ->
      T.equal m (transpose (transpose m)))

let qcheck_add_commutes =
  QCheck.Test.make ~name:"add commutes" ~count:200 arb_mat (fun m ->
      let r = T.map (fun v -> v *. 0.5) m in
      T.equal ~eps:1e-9 (T.add m r) (T.add r m))

let qcheck_sum_linear =
  QCheck.Test.make ~name:"sum is linear under scale" ~count:200 arb_mat (fun m ->
      Float.abs (T.sum (T.scale 2.0 m) -. (2.0 *. T.sum m)) < 1e-6)

let qcheck_matmul_transpose =
  QCheck.Test.make ~name:"(AB)^T = B^T A^T" ~count:100
    QCheck.(pair arb_mat arb_mat)
    (fun (a, b0) ->
      (* reshape b to be compatible: use b0 transposed if needed, else skip *)
      let b =
        if T.rows b0 = T.cols a then b0
        else T.init (T.cols a) (T.cols b0) (fun r c -> T.get b0 (r mod T.rows b0) c)
      in
      T.equal ~eps:1e-6
        (transpose (T.matmul a b))
        (T.matmul (transpose b) (transpose a)))

let () =
  Alcotest.run "tensor"
    [
      ( "construction",
        [
          Alcotest.test_case "create checks" `Quick test_create_checks;
          Alcotest.test_case "init layout" `Quick test_init_layout;
          Alcotest.test_case "get bounds" `Quick test_get_bounds;
          Alcotest.test_case "ragged" `Quick test_of_arrays_ragged;
          Alcotest.test_case "create copies" `Quick test_create_copies;
          Alcotest.test_case "copy isolated" `Quick test_copy_isolated;
        ] );
      ( "ops",
        [
          Alcotest.test_case "elementwise" `Quick test_elementwise;
          Alcotest.test_case "shape mismatch" `Quick test_shape_mismatch;
          Alcotest.test_case "matmul known" `Quick test_matmul_known;
          Alcotest.test_case "matmul identity" `Quick test_matmul_identity;
          Alcotest.test_case "matmul naive" `Quick test_matmul_vs_naive;
          Alcotest.test_case "transpose" `Quick test_transpose;
          Alcotest.test_case "broadcast" `Quick test_broadcast_ops;
          Alcotest.test_case "reductions" `Quick test_reductions;
          Alcotest.test_case "argmax" `Quick test_argmax_rows;
          Alcotest.test_case "slicing" `Quick test_slicing;
          Alcotest.test_case "concat" `Quick test_concat;
          Alcotest.test_case "take_rows" `Quick test_take_rows;
          Alcotest.test_case "dot" `Quick test_dot;
        ] );
      ( "properties",
        [
          QCheck_alcotest.to_alcotest qcheck_transpose_involution;
          QCheck_alcotest.to_alcotest qcheck_add_commutes;
          QCheck_alcotest.to_alcotest qcheck_sum_linear;
          QCheck_alcotest.to_alcotest qcheck_matmul_transpose;
        ] );
    ]
