(* Regression tests for the allocation-free training hot path: in-place
   (destination-passing) tensor kernels, the reusable-gradient autodiff
   tape, the per-domain replica cache, and the Adam optimizer must all be
   bit-identical to the allocating reference implementations.  Comparisons
   go through [Int64.bits_of_float] — approximate equality would hide
   exactly the regressions these tests guard against. *)

module T = Tensor
module A = Autodiff

let bits = Int64.bits_of_float

let check_bits_tensor msg expected actual =
  if T.shape expected <> T.shape actual then
    Alcotest.failf "%s: shape %dx%d vs %dx%d" msg (T.rows expected)
      (T.cols expected) (T.rows actual) (T.cols actual);
  let e = T.to_array expected and a = T.to_array actual in
  Array.iteri
    (fun i x ->
      if bits x <> bits a.(i) then
        Alcotest.failf "%s: element %d differs bitwise: %h vs %h" msg i x a.(i))
    e

let check_bits_float msg expected actual =
  if bits expected <> bits actual then
    Alcotest.failf "%s: %h vs %h" msg expected actual

(* Shapes exercising the edge cases: empty tensors, single rows/columns. *)
let shapes = [ (0, 0); (0, 3); (1, 1); (1, 7); (5, 1); (3, 4); (7, 5); (8, 8) ]

let garbage rng rows cols = T.uniform rng rows cols ~lo:(-50.0) ~hi:50.0

let test_elementwise_into_bitwise () =
  let rng = Rng.create 11 in
  List.iter
    (fun (rows, cols) ->
      let a = T.uniform rng rows cols ~lo:(-2.0) ~hi:2.0 in
      let b = T.uniform rng rows cols ~lo:(-2.0) ~hi:2.0 in
      let check name expected run =
        (* dst starts as garbage: the kernel must overwrite every element *)
        let dst = garbage rng rows cols in
        run ~dst;
        check_bits_tensor (Printf.sprintf "%s %dx%d" name rows cols) expected dst
      in
      check "add" (T.add a b) (fun ~dst -> T.add_into a b ~dst);
      check "sub" (T.sub a b) (fun ~dst -> T.sub_into a b ~dst);
      check "mul" (T.mul a b) (fun ~dst -> T.mul_into a b ~dst);
      check "div" (T.div a b) (fun ~dst -> T.div_into a b ~dst);
      check "neg" (T.neg a) (fun ~dst -> T.neg_into a ~dst);
      check "scale" (T.scale 0.3 a) (fun ~dst -> T.scale_into 0.3 a ~dst);
      check "add_scalar" (T.add_scalar 1.7 a) (fun ~dst ->
          T.add_scalar_into 1.7 a ~dst);
      check "map" (T.map Stdlib.tanh a) (fun ~dst ->
          T.map_into Stdlib.tanh a ~dst);
      (* elementwise kernels may alias dst with an input *)
      let aliased = T.copy a in
      T.add_into aliased b ~dst:aliased;
      check_bits_tensor "add aliased" (T.add a b) aliased)
    shapes

let test_rowvec_into_bitwise () =
  let rng = Rng.create 12 in
  List.iter
    (fun (rows, cols) ->
      let m = T.uniform rng rows cols ~lo:(-2.0) ~hi:2.0 in
      let v = T.uniform rng 1 cols ~lo:0.5 ~hi:2.0 in
      let check name expected run =
        let dst = garbage rng rows cols in
        run ~dst;
        check_bits_tensor (Printf.sprintf "%s %dx%d" name rows cols) expected dst
      in
      check "add_rowvec" (T.add_rowvec m v) (fun ~dst -> T.add_rowvec_into m v ~dst);
      check "mul_rowvec" (T.mul_rowvec m v) (fun ~dst -> T.mul_rowvec_into m v ~dst);
      check "broadcast_rowvec"
        (T.mul_rowvec (T.ones rows cols) v)
        (fun ~dst -> T.broadcast_rowvec_into v ~dst))
    shapes

let test_linalg_into_bitwise () =
  let rng = Rng.create 13 in
  let triples = [ (0, 0, 0); (1, 1, 1); (2, 3, 4); (5, 4, 3); (1, 7, 2); (8, 8, 8) ] in
  List.iter
    (fun (m, k, n) ->
      let a = T.uniform rng m k ~lo:(-2.0) ~hi:2.0 in
      let b = T.uniform rng k n ~lo:(-2.0) ~hi:2.0 in
      let bt = T.transpose b in
      let label name = Printf.sprintf "%s %dx%dx%d" name m k n in
      let dst = garbage rng m n in
      T.matmul_into a b ~dst;
      check_bits_tensor (label "matmul") (T.matmul a b) dst;
      let dst = garbage rng m n in
      T.matmul_nt_into a bt ~dst;
      check_bits_tensor (label "matmul_nt") (T.matmul_nt a bt) dst;
      check_bits_tensor (label "matmul_nt vs matmul") (T.matmul a b)
        (T.matmul_nt a bt);
      let dst = garbage rng k m in
      T.transpose_into a ~dst;
      check_bits_tensor (label "transpose") (T.transpose a) dst)
    triples

let test_reduction_structure_into_bitwise () =
  let rng = Rng.create 14 in
  List.iter
    (fun (rows, cols) ->
      let t = T.uniform rng rows cols ~lo:(-2.0) ~hi:2.0 in
      let label name = Printf.sprintf "%s %dx%d" name rows cols in
      let dst = garbage rng 1 cols in
      T.sum_rows_into t ~dst;
      check_bits_tensor (label "sum_rows") (T.sum_rows t) dst;
      let len = cols / 2 and start = cols / 4 in
      let dst = garbage rng rows len in
      T.slice_cols_into t start len ~dst;
      check_bits_tensor (label "slice_cols") (T.slice_cols t start len) dst;
      let rlen = rows / 2 and rstart = rows / 4 in
      let dst = garbage rng rlen cols in
      T.slice_rows_into t rstart rlen ~dst;
      check_bits_tensor (label "slice_rows") (T.slice_rows t rstart rlen) dst;
      (* embed is the scatter adjoint of slice: slicing the embedding back
         out must recover the source, and everything else must be zero *)
      let src = T.uniform rng rows len ~lo:(-2.0) ~hi:2.0 in
      let dst = garbage rng rows cols in
      T.embed_cols_into src start ~dst;
      check_bits_tensor (label "embed_cols roundtrip") src
        (T.slice_cols dst start len);
      check_bits_float (label "embed_cols zeros") 0.0
        (T.sum (T.map Stdlib.abs_float dst)
        -. T.sum (T.map Stdlib.abs_float src));
      let u = T.uniform rng rows cols ~lo:(-2.0) ~hi:2.0 in
      let dst = garbage rng rows (2 * cols) in
      T.concat_cols_into t u ~dst;
      check_bits_tensor (label "concat_cols") (T.concat_cols t u) dst;
      let dst = garbage rng (2 * rows) cols in
      T.concat_rows_into t u ~dst;
      check_bits_tensor (label "concat_rows") (T.concat_rows t u) dst)
    shapes

let test_equal_nan_regression () =
  let nan_t = T.of_array [| Float.nan |] in
  let x = T.of_array [| 1.0 |] in
  Alcotest.(check bool) "nan vs value unequal" false (T.equal ~eps:1e6 nan_t x);
  Alcotest.(check bool) "value vs nan unequal" false (T.equal ~eps:1e6 x nan_t);
  Alcotest.(check bool) "nan vs nan unequal" false (T.equal ~eps:1e6 nan_t nan_t);
  Alcotest.(check bool) "finite still equal" true
    (T.equal ~eps:1e-6 x (T.of_array [| 1.0 +. 1e-9 |]))

let test_adam_in_place_bitwise () =
  let rng = Rng.create 15 in
  (* pnnlint:allow R1 intentional: both params must draw the identical
     stream so the in-place and allocating updates start from equal values *)
  let make () = A.param (T.uniform (Rng.copy rng) 3 4 ~lo:(-1.0) ~hi:1.0) in
  let p1 = make () and p2 = make () in
  let o1 = Nn.Optimizer.adam ~lr:0.05 () and o2 = Nn.Optimizer.adam ~lr:0.05 () in
  let storage = A.value p1 in
  let grng = Rng.create 16 in
  for _ = 1 to 25 do
    let g = T.uniform grng 3 4 ~lo:(-1.0) ~hi:1.0 in
    List.iter
      (fun p ->
        T.fill (A.grad p) 0.0;
        T.add_into (A.grad p) g ~dst:(A.grad p))
      [ p1; p2 ];
    Nn.Optimizer.step o1 [ p1 ];
    Nn.Optimizer.step o2 [ p2 ]
  done;
  (* two independent instances fed identical gradients agree bitwise ... *)
  check_bits_tensor "adam trajectories" (A.value p1) (A.value p2);
  (* ... and the update really is in place: same tensor, same backing array *)
  Alcotest.(check bool) "param tensor identity" true (storage == A.value p1)

(* A tiny but representative graph: matmul, rowvec broadcast, nonlinearity,
   slicing, concatenation and a softmax cross-entropy root. *)
let build_graph x_node w v labels =
  let h = A.tanh (A.add_rowvec (A.matmul x_node w) v) in
  let split = A.concat_cols (A.slice_cols h 0 1) (A.slice_cols h 1 2) in
  A.softmax_cross_entropy ~logits:(A.scale 3.0 split) ~labels

let test_tape_refresh_bitwise () =
  let rng = Rng.create 17 in
  let x0 = T.uniform rng 6 4 ~lo:(-1.0) ~hi:1.0 in
  let x1 = T.uniform rng 6 4 ~lo:(-1.0) ~hi:1.0 in
  let labels = T.init 6 3 (fun r c -> if (r mod 3) = c then 1.0 else 0.0) in
  let wt = T.uniform rng 4 3 ~lo:(-1.0) ~hi:1.0 in
  let vt = T.uniform rng 1 3 ~lo:(-1.0) ~hi:1.0 in
  (* reused graph: compile once over a const leaf, refresh with new input *)
  let x_leaf = A.const (T.copy x0) in
  let w = A.param (T.copy wt) and v = A.param (T.copy vt) in
  let tape = A.compile (build_graph x_leaf w v labels) in
  let run_reused x =
    A.set_value x_leaf x;
    A.refresh tape;
    A.backward_tape tape;
    (A.grad w, A.grad v)
  in
  (* reference: a fresh graph per input *)
  let run_fresh x =
    let w' = A.param (T.copy wt) and v' = A.param (T.copy vt) in
    A.backward (build_graph (A.const x) w' v' labels);
    (A.grad w', A.grad v')
  in
  List.iter
    (fun x ->
      let gw, gv = run_reused x in
      let gw', gv' = run_fresh x in
      check_bits_tensor "w grad" gw' gw;
      check_bits_tensor "v grad" gv' gv)
    [ x0; x1; x0 ]

(* {1 Replica-cache and golden-trajectory tests on a real printed network} *)

let golden_fixture =
  lazy
    (let dataset = Surrogate.Pipeline.generate_dataset ~n:250 () in
     let surrogate, _ =
       Surrogate.Pipeline.train_surrogate ~arch:[ 10; 8; 6; 4 ] ~max_epochs:150
         (Rng.create 42) dataset
     in
     let blob =
       Datasets.Synth.generate
         {
           Datasets.Synth.name = "golden-blobs";
           features = 3;
           classes = 2;
           samples = 70;
           modes_per_class = 1;
           class_sep = 0.32;
           spread = 0.06;
           label_noise = 0.0;
           priors = None;
           seed = 19;
         }
     in
     let split = Datasets.Synth.split (Rng.create 8) blob in
     let config =
       {
         Pnn.Config.default with
         Pnn.Config.epsilon = 0.1;
         n_mc_train = 4;
         n_mc_val = 3;
         max_epochs = 25;
         patience = 50;
       }
     in
     (config, surrogate, Pnn.Training.of_split ~n_classes:2 split))

let test_replica_cache_vs_alloc () =
  let config, surrogate, data = Lazy.force golden_fixture in
  let net = Pnn.Network.create (Rng.create 23) config surrogate ~inputs:3 ~outputs:2 in
  let shapes = Pnn.Network.theta_shapes net in
  let rng = Rng.create 31 in
  for _ = 1 to 3 do
    let noise = Pnn.Noise.draw rng ~epsilon:0.1 ~theta_shapes:shapes in
    let l_cached, g_cached =
      Pnn.Network.draw_loss_and_grads net ~noise ~x:data.Pnn.Training.x_train
        ~labels:data.Pnn.Training.y_train
    in
    let l_alloc, g_alloc =
      Pnn.Network.draw_loss_and_grads_alloc net ~noise ~x:data.Pnn.Training.x_train
        ~labels:data.Pnn.Training.y_train
    in
    check_bits_float "draw loss" l_alloc l_cached;
    List.iter2 (check_bits_tensor "draw grads") g_alloc g_cached
  done

(* Bit-exact training trajectory captured from the pre-rewrite allocating
   implementation (bin/golden_capture.ml): per-epoch train losses, the
   validation losses, and every final parameter.  Any drift in kernel
   iteration order, gradient accumulation or replica reuse shows up here. *)
let golden_train =
  [|
    "0x1.a12ecf6ec164dp-1"; "0x1.8b63f2a98ca81p-1"; "0x1.6c2945fefa934p-1";
    "0x1.4d9a074d0a9eep-1"; "0x1.415947761dc9cp-1"; "0x1.39b5a6eafc849p-1";
    "0x1.29de42f0d2a5dp-1"; "0x1.30aad8d48691cp-1"; "0x1.2ecadf873497ap-1";
    "0x1.28910424d4e52p-1"; "0x1.14345a750594dp-1"; "0x1.145844edd1aeap-1";
    "0x1.071d9d0aff184p-1"; "0x1.18ad22efb2844p-1"; "0x1.034dccace622p-1";
    "0x1.0d77ccc9aa4a9p-1"; "0x1.04187f7f10294p-1"; "0x1.0b1c7144a31b8p-1";
    "0x1.00800c9e29aecp-1"; "0x1.ec71999496aa9p-2"; "0x1.e08c4763d6948p-2";
    "0x1.d204f599067e6p-2"; "0x1.d486265d0f7d2p-2"; "0x1.dc8fc8301be32p-2";
    "0x1.e95ec60d97dcp-2";
  |]

let golden_val =
  [|
    "0x1.9490ddc9fe211p-1"; "0x1.21f7c6b70d3cp-1"; "0x1.1048e09e6b89ep-1";
    "0x1.0c7b7cb85a41fp-1"; "0x1.e8b0b1f1d5c09p-2";
  |]

let golden_params =
  [|
    "0x1.a7cabca22718dp-2"; "0x1.d57a83254c3eep-2"; "0x1.5681a915874dp-2";
    "0x1.092c75bd58608p+0"; "0x1.39335f5d7e462p+0"; "-0x1.2560456b877a4p-1";
    "0x1.6386ee90203acp-4"; "0x1.f0ff8c34106cbp-3"; "-0x1.d2f2eaf110d8bp-3";
    "-0x1.a7af0f1e3e788p-7"; "0x1.1c4a8baff0f83p-1"; "-0x1.3a91d448ec9acp-3";
    "-0x1.1b3d6131b584p-13"; "-0x1.14e6142880a63p-4"; "0x1.ec53606702afdp-1";
    "-0x1.c386cd0143f3ap-3"; "0x1.3770f6b88db41p+0"; "-0x1.8cbece171fb5ap-7";
    "0x1.9601c6bd4357p-1"; "0x1.156f1a1f6ff94p-2"; "-0x1.ba2dd330177d9p-7";
    "0x1.258a9d48e98d8p+0"; "0x1.9647f2550fb62p-3"; "-0x1.f8d44ea7566cep-6";
    "0x1.34a66c2968559p-1"; "-0x1.b86c7d7a0a3f9p-8"; "-0x1.3bb66c4e3a0f2p-4";
    "-0x1.188f3f1042944p-4"; "0x1.2a37771cbebe1p-4"; "-0x1.6987bcb9e9333p-4";
    "0x1.a404710fb0919p-6"; "0x1.ca4d61d75070ap-6"; "-0x1.b95dadecca213p-9";
    "0x1.504b944026f0dp-5"; "0x1.a25aa4292b7bp-5"; "-0x1.7e9e8f7d9974ap-9";
    "0x1.e103bed6c1535p-6"; "-0x1.d7a4e9b976609p-7"; "-0x1.dd5f37a5bdcd9p-5";
    "0x1.195c68a13a271p-7"; "-0x1.35a912fcb4786p-8"; "0x1.016f94c523e2dp-10";
    "0x1.b88984488da2dp-8"; "-0x1.55714c70f192cp-6"; "0x1.36bc4e2d865dfp-10";
    "0x1.b9a9fb7d6d178p-8"; "0x1.67363b494176fp-4"; "-0x1.0067f38d5a096p-4";
    "0x1.3e5cf9b496a38p-4"; "0x1.72b0ed465e9dcp-4"; "-0x1.6e8e540466389p-4";
    "-0x1.355bc8f76f5b3p-4"; "-0x1.22e86eb960918p-4";
  |]

let check_golden_array msg expected actual =
  Alcotest.(check int) (msg ^ " count") (Array.length expected) (Array.length actual);
  Array.iteri
    (fun i hex ->
      check_bits_float
        (Printf.sprintf "%s[%d]" msg i)
        (float_of_string hex) actual.(i))
    expected

let test_fit_golden_history () =
  let config, surrogate, data = Lazy.force golden_fixture in
  let net = Pnn.Network.create (Rng.create 23) config surrogate ~inputs:3 ~outputs:2 in
  let res = Pnn.Training.fit (Rng.create 77) net data in
  check_golden_array "train loss" golden_train
    res.Pnn.Training.history.Nn.Train.train_losses;
  check_golden_array "val loss" golden_val
    res.Pnn.Training.history.Nn.Train.val_losses;
  let actual_params =
    Array.concat
      (List.map
         (fun p -> T.to_array (A.value p))
         (Pnn.Network.params_theta net @ Pnn.Network.params_omega net))
  in
  check_golden_array "final params" golden_params actual_params

let () =
  Alcotest.run "inplace"
    [
      ( "tensor",
        [
          Alcotest.test_case "elementwise into bitwise" `Quick
            test_elementwise_into_bitwise;
          Alcotest.test_case "rowvec into bitwise" `Quick test_rowvec_into_bitwise;
          Alcotest.test_case "linalg into bitwise" `Quick test_linalg_into_bitwise;
          Alcotest.test_case "reductions/structure into bitwise" `Quick
            test_reduction_structure_into_bitwise;
          Alcotest.test_case "equal treats NaN as unequal" `Quick
            test_equal_nan_regression;
        ] );
      ( "training",
        [
          Alcotest.test_case "adam in-place bit-identical" `Quick
            test_adam_in_place_bitwise;
          Alcotest.test_case "tape refresh vs fresh graph" `Quick
            test_tape_refresh_bitwise;
          Alcotest.test_case "replica cache vs alloc replica" `Quick
            test_replica_cache_vs_alloc;
          Alcotest.test_case "fit golden trajectory" `Quick test_fit_golden_history;
        ] );
    ]
