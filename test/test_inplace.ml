(* Regression tests for the allocation-free training hot path: in-place
   (destination-passing) tensor kernels, the reusable-gradient autodiff
   tape, the per-domain compiled graphs, and the Adam optimizer must all be
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
      check "neg" (T.neg a) (fun ~dst -> T.neg_into a ~dst);
      check "scale" (T.scale 0.3 a) (fun ~dst -> T.scale_into 0.3 a ~dst);
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
      check "mul_rowvec" (T.mul_rowvec m v) (fun ~dst -> T.mul_rowvec_into m v ~dst))
    shapes

let test_linalg_into_bitwise () =
  let rng = Rng.create 13 in
  let triples = [ (0, 0, 0); (1, 1, 1); (2, 3, 4); (5, 4, 3); (1, 7, 2); (8, 8, 8) ] in
  List.iter
    (fun (m, k, n) ->
      let a = T.uniform rng m k ~lo:(-2.0) ~hi:2.0 in
      let b = T.uniform rng k n ~lo:(-2.0) ~hi:2.0 in
      let label name = Printf.sprintf "%s %dx%dx%d" name m k n in
      let bt = garbage rng n k in
      T.transpose_into b ~dst:bt;
      check_bits_tensor (label "transpose") (T.init n k (fun j p -> T.get b p j)) bt;
      let dst = garbage rng m n in
      T.matmul_into a b ~dst;
      check_bits_tensor (label "matmul") (T.matmul a b) dst;
      let dst = garbage rng m n in
      T.matmul_nt_into a bt ~dst;
      check_bits_tensor (label "matmul_nt vs matmul") (T.matmul a b) dst)
    triples

let test_reduction_structure_into_bitwise () =
  let rng = Rng.create 14 in
  List.iter
    (fun (rows, cols) ->
      let t = T.uniform rng rows cols ~lo:(-2.0) ~hi:2.0 in
      let label name = Printf.sprintf "%s %dx%d" name rows cols in
      (* sum_rows_into accumulates into dst: it must clear it first *)
      let dst = garbage rng 1 cols and zeroed = T.zeros 1 cols in
      T.sum_rows_into t ~dst;
      T.sum_rows_into t ~dst:zeroed;
      check_bits_tensor (label "sum_rows") zeroed dst;
      let rlen = rows / 2 and rstart = rows / 4 in
      let dst = garbage rng rlen cols in
      T.slice_rows_into t rstart rlen ~dst;
      check_bits_tensor (label "slice_rows") (T.slice_rows t rstart rlen) dst;
      (* embed is the scatter adjoint of slice: slicing the embedding back
         out must recover the source, and everything else must be zero *)
      let src = T.uniform rng rlen cols ~lo:(-2.0) ~hi:2.0 in
      let dst = garbage rng rows cols in
      T.embed_rows_into src rstart ~dst;
      check_bits_tensor (label "embed_rows roundtrip") src
        (T.slice_rows dst rstart rlen);
      check_bits_float (label "embed_rows zeros") 0.0
        (T.sum (T.map Stdlib.abs_float dst)
        -. T.sum (T.map Stdlib.abs_float src));
      let u = T.uniform rng rows cols ~lo:(-2.0) ~hi:2.0 in
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
  (* both params draw the same seed's stream, so the in-place and
     allocating updates start from equal values *)
  let make () = A.param (T.uniform (Rng.create 15) 3 4 ~lo:(-1.0) ~hi:1.0) in
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
  let split = A.concat_rows (A.slice_rows h 0 2) (A.slice_rows h 2 4) in
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

(* A split tape: the parameter-only branch (tanh of w) sits in [fixed], the
   rest in [varying].  Refreshing [varying] alone is exact after an input
   change and stale after a parameter change; both halves in order always
   match a fresh graph, and backward on a split tape is unchanged. *)
let test_tape_split () =
  let rng = Rng.create 18 in
  let x0 = T.uniform rng 6 4 ~lo:(-1.0) ~hi:1.0 in
  let x1 = T.uniform rng 6 4 ~lo:(-1.0) ~hi:1.0 in
  let labels = T.init 6 3 (fun r c -> if (r mod 3) = c then 1.0 else 0.0) in
  let wt = T.uniform rng 4 3 ~lo:(-1.0) ~hi:1.0 in
  let vt = T.uniform rng 1 3 ~lo:(-1.0) ~hi:1.0 in
  let graph x w v = build_graph x (A.tanh w) v labels in
  let fresh x wt =
    let w = A.param (T.copy wt) and v = A.param (T.copy vt) in
    let root = graph (A.const x) w v in
    A.backward root;
    (A.value root, A.grad w)
  in
  let x_leaf = A.const (T.copy x0) in
  let w = A.param (T.copy wt) and v = A.param (T.copy vt) in
  let root = graph x_leaf w v in
  let tape = A.compile root in
  let fixed, varying = A.split tape ~input:x_leaf in
  A.set_value x_leaf x1;
  A.refresh varying;
  check_bits_tensor "input change, varying only" (fst (fresh x1 wt)) (A.value root);
  let wt' = T.scale 1.5 wt in
  A.set_value w wt';
  A.refresh varying;
  Alcotest.(check bool) "parameter change, varying only is stale" false
    (T.equal (fst (fresh x1 wt')) (A.value root));
  A.refresh fixed;
  A.refresh varying;
  check_bits_tensor "parameter change, both halves" (fst (fresh x1 wt')) (A.value root);
  A.backward_tape varying;
  check_bits_tensor "backward on a split tape" (snd (fresh x1 wt')) (A.grad w)

(* {1 Compiled-graph and golden-trajectory tests on a real printed network} *)

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

(* One draw through the batched path, on this domain's stage and loss
   graph (a one-worker pool runs every draw on the calling domain). *)
let draw_loss_and_grads net ~noise ~x ~labels =
  let pool = Parallel.Pool.create ~jobs:1 () in
  (Pnn.Network.draws_loss_and_grads pool net ~noises:[| noise |] ~x ~labels).(0)

(* One draw through the compiled logits path, copied out of the live root. *)
let one_draw_logits net ~noise x =
  let pool = Parallel.Pool.create ~jobs:1 () in
  (Pnn.Network.mc_logits pool net ~noises:[| noise |] x ~f:T.copy).(0)

let test_loss_graph_vs_alloc () =
  let config, surrogate, data = Lazy.force golden_fixture in
  let net = Pnn.Network.create (Rng.create 23) config surrogate ~inputs:3 ~outputs:2 in
  let shapes = Pnn.Network.theta_shapes net in
  let rng = Rng.create 31 in
  for _ = 1 to 3 do
    let noise = Pnn.Noise.draw rng ~epsilon:0.1 ~theta_shapes:shapes in
    let l_cached, g_cached =
      draw_loss_and_grads net ~noise ~x:data.Pnn.Training.x_train
        ~labels:data.Pnn.Training.y_train
    in
    let l_alloc, g_alloc =
      Net_oracle.draw_loss_and_grads_alloc net ~noise ~x:data.Pnn.Training.x_train
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
    "0x1.a12ecf4e9d9d2p-1"; "0x1.8b63f2a12bc7ap-1"; "0x1.6c2945feb22fap-1";
    "0x1.4d9a0750ad32dp-1"; "0x1.4159477a1052bp-1"; "0x1.39b5a6e74b328p-1";
    "0x1.29de42eb1b5b4p-1"; "0x1.30aad8b8ecd3ep-1"; "0x1.2ecadf8b4dbbep-1";
    "0x1.289104239f3abp-1"; "0x1.14345a742210ap-1"; "0x1.145844f27ab64p-1";
    "0x1.071d9d1157c25p-1"; "0x1.18ad22f6dfc05p-1"; "0x1.034dccb12bccap-1";
    "0x1.0d77cccdcb661p-1"; "0x1.04187f8179eacp-1"; "0x1.0b1c71412f2fp-1";
    "0x1.00800ca2bebdep-1"; "0x1.ec7199a420da4p-2"; "0x1.e08c4786a2c72p-2";
    "0x1.d204f5b66017p-2"; "0x1.d48626bc0858ap-2"; "0x1.dc8fc86fc4702p-2";
    "0x1.e95ec624ae103p-2";
  |]

let golden_val =
  [|
    "0x1.9490ddc19ca24p-1"; "0x1.21f7c6b23e2b2p-1"; "0x1.1048e0a617c65p-1";
    "0x1.0c7b7cbd01feep-1"; "0x1.e8b0b2656fe6dp-2";
  |]

let golden_params =
  [|
    "0x1.a7cabc9c54f74p-2"; "0x1.d57a82fac602ap-2"; "0x1.5681a896a3d9fp-2";
    "0x1.092c75a7ae9cdp+0"; "0x1.39335f583081p+0"; "-0x1.2560459da9f24p-1";
    "0x1.6386eefa08c6ep-4"; "0x1.f0ff8e456a431p-3"; "-0x1.d2f2e98bcecb2p-3";
    "-0x1.a7af0b6990bfcp-7"; "0x1.1c4a8bcd7f097p-1"; "-0x1.3a91d51a2ecf4p-3";
    "-0x1.1b3c20e2f718p-13"; "-0x1.14e61578b0becp-4"; "0x1.ec53608721911p-1";
    "-0x1.c386ccff917e3p-3"; "0x1.3770f6b238ee4p+0"; "-0x1.8cbedd6ef29ep-7";
    "0x1.9601c74352358p-1"; "0x1.156f19c2be2b5p-2"; "-0x1.ba2de128c350dp-7";
    "0x1.258a9d525335cp+0"; "0x1.9647f233384c8p-3"; "-0x1.f8d45cfe297dp-6";
    "0x1.34a66c1115c3p-1"; "-0x1.b86c873e1f04dp-8"; "-0x1.3bb66ce7caa04p-4";
    "-0x1.188f428f3dc3ap-4"; "0x1.2a3777f985713p-4"; "-0x1.6987bd5322521p-4";
    "0x1.a40472a46ed39p-6"; "0x1.ca4d5e63afa1dp-6"; "-0x1.b95d8696b2da2p-9";
    "0x1.504b9492dcfa8p-5"; "0x1.a25aa5b16262ap-5"; "-0x1.7e9e8c7101bc3p-9";
    "0x1.e103c01373b2fp-6"; "-0x1.d7a4f04aa9cf2p-7"; "-0x1.dd5f374595f73p-5";
    "0x1.195c66cdb62fap-7"; "-0x1.35a919e83cfb3p-8"; "0x1.016f875dd4e63p-10";
    "0x1.b8898a358b9b6p-8"; "-0x1.55714c68c4fefp-6"; "0x1.36bc56bcd43efp-10";
    "0x1.b9a9fe6fc171p-8"; "0x1.67363b0b024aap-4"; "-0x1.0067f45d4ee24p-4";
    "0x1.3e5cf95ec7ba8p-4"; "0x1.72b0ed5d5c78ap-4"; "-0x1.6e8e542b9f6d3p-4";
    "-0x1.355bc80abeabdp-4"; "-0x1.22e86ef0b0079p-4";
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

(* {1 Pinned digests of the printed layer}

   Logits, preactivations, losses and every parameter gradient of a whole
   printed network, digested bit-for-bit (FNV-1a over the bytes of
   [Int64.bits_of_float], every NaN hashed as [Float.nan])
   on the iris 4-3-3 and the serving 64-48-16 shapes, through every route a
   graph is run: a fresh graph, the cached loss graph (build, then a
   refreshed draw) and the cached logits graph (one-draw [mc_logits]).
   Inputs are finite, or carry ±0, NaN payloads and ±inf in the batch, in
   the noise draw or in the parameters themselves.  The finite rows were computed by the
   node-by-node graph of primitives that the printed layer's fused tape
   nodes replaced, so they hold the fused nodes to it. *)

let digest_specials =
  [|
    0.0; -0.0; Float.nan; Int64.float_of_bits 0x7ff8000000000abcL;
    Int64.float_of_bits 0xfff0000000000123L; Float.infinity; Float.neg_infinity;
  |]

(* FNV-1a over the bytes of every float: a sign flip anywhere shows, but
   not which NaN an output holds *)
let fnv_floats h a =
  Array.fold_left
    (fun h x ->
      let bits = Int64.bits_of_float (if Float.is_nan x then Float.nan else x) in
      let h = ref h in
      for i = 0 to 7 do
        let byte = Int64.logand (Int64.shift_right_logical bits (8 * i)) 0xffL in
        h := Int64.mul (Int64.logxor !h byte) 0x100000001b3L
      done;
      !h)
    h a

let fnv_tensors ts =
  Printf.sprintf "%016Lx"
    (List.fold_left (fun h t -> fnv_floats h (T.to_array t)) 0xcbf29ce484222325L ts)

(* Sprinkle the specials over [t] in place at a hash-chosen sparse set of
   indices (about one in [every]). *)
let sprinkle ?(values = digest_specials) ~every seed t =
  let cols = T.cols t in
  for r = 0 to T.rows t - 1 do
    for c = 0 to cols - 1 do
      let h = (((r * cols) + c + (seed * 7919)) * 2654435761) land 0xffff in
      if h mod every = 0 then
        T.set t r c values.(h / every mod Array.length values)
    done
  done

type digest_input = Finite | Special_x | Special_noise | Special_params

let digest_input_name = function
  | Finite -> "finite"
  | Special_x -> "special-x"
  | Special_noise -> "special-noise"
  | Special_params -> "special-params"

let network_digest ~sizes ~rows input =
  let config = { Pnn.Config.default with Pnn.Config.epsilon = 0.1 } in
  let net = Pnn.Network.create_deep (Rng.create 29) config (Fixtures.surrogate ()) ~sizes in
  let rng = Rng.create 37 in
  List.iter
    (fun p ->
      let v = A.value p in
      for c = 0 to T.cols v - 1 do
        T.set v 0 c (Rng.uniform rng ~lo:(-3.0) ~hi:3.0)
      done)
    (Pnn.Network.params_omega net);
  let n_in = List.hd sizes and n_out = List.nth sizes (List.length sizes - 1) in
  let x = T.uniform rng rows n_in ~lo:0.0 ~hi:1.0 in
  let labels = T.init rows n_out (fun r c -> if r mod n_out = c then 1.0 else 0.0) in
  let shapes = Pnn.Network.theta_shapes net in
  let draw () = Pnn.Noise.draw rng ~epsilon:0.1 ~theta_shapes:shapes in
  let noise1 = draw () and noise2 = draw () in
  (match input with
  | Finite -> ()
  | Special_x -> sprinkle ~every:5 1 x
  | Special_noise ->
      List.iteri
        (fun i (l : Pnn.Noise.layer_noise) ->
          sprinkle ~every:6 (i + 2) l.Pnn.Noise.theta;
          sprinkle ~every:5 (i + 3) (if i = 0 then l.Pnn.Noise.neg_omega else l.Pnn.Noise.act_omega))
        noise2
  | Special_params ->
      List.iteri (fun i p -> sprinkle ~every:6 (i + 4) (A.value p)) (Pnn.Network.params_theta net);
      (* a NaN raw ω would make its whole layer NaN (special-noise covers
         that); signed zeros and infinities saturate the sigmoid instead *)
      sprinkle ~values:[| 0.0; -0.0; Float.infinity; Float.neg_infinity |] ~every:2 9
        (A.value (List.nth (Pnn.Network.params_omega net) 1)));
  let loss_grads (l, gs) = T.scalar l :: gs in
  let logits = A.value (Pnn.Network.logits net ~noise:noise1 x) in
  let preact =
    A.value
      (Pnn.Layer.preactivation config (List.hd (Pnn.Network.layers net))
         ~noise:(List.hd noise2) (A.const x))
  in
  let fresh = loss_grads (Net_oracle.draw_loss_and_grads_alloc net ~noise:noise2 ~x ~labels) in
  let cached1 = loss_grads (draw_loss_and_grads net ~noise:noise1 ~x ~labels) in
  let cached2 = loss_grads (draw_loss_and_grads net ~noise:noise2 ~x ~labels) in
  let pred1 = one_draw_logits net ~noise:noise2 x in
  let pred2 = one_draw_logits net ~noise:(Pnn.Noise.none ~theta_shapes:shapes) x in
  let pred3 = one_draw_logits net ~noise:noise1 x in
  Printf.sprintf "logits %s preact %s fresh %s cached %s pred %s" (fnv_tensors [ logits ])
    (fnv_tensors [ preact ]) (fnv_tensors fresh)
    (fnv_tensors (cached1 @ cached2))
    (fnv_tensors [ pred1; pred2; pred3 ])

let digest_cases =
  List.concat_map
    (fun (shape, sizes, rows) ->
      List.map
        (fun input -> (shape, sizes, rows, input))
        [ Finite; Special_x; Special_noise; Special_params ])
    [ ("iris", [ 4; 3; 3 ], 90); ("64-48-16", [ 64; 48; 16 ], 64) ]

let network_digests () =
  List.map
    (fun (shape, sizes, rows, input) ->
      Printf.sprintf "%s %s: %s" shape (digest_input_name input)
        (network_digest ~sizes ~rows input))
    digest_cases

let expected_network_digests =
    [
      "iris finite: logits d00a01f64711da7e preact 6a6c41db75fd57a4 fresh 195f08161375a2fe cached 1dfc2487a0aafb5a pred ea30e4ccbd941e47";
      "iris special-x: logits 81a2f43c1658aff0 preact e48c2c7b836da15b fresh e19ae91629ca6ac5 cached 87a23d9e55ffa665 pred 62aa97970646ac44";
      "iris special-noise: logits d00a01f64711da7e preact 9e8b0946d80812df fresh e19ae91629ca6ac5 cached 7519d440230e01a9 pred 19cbdb496f0d8122";
      "iris special-params: logits 61f229ca0afeae91 preact eefedd982723bd08 fresh 1e8f1735149ee310 cached 3b387322c3e9d6cd pred 9ce6e2a958170381";
      "64-48-16 finite: logits aad65b41595536d0 preact c14c86df978faf0c fresh 525239535d7f0250 cached 671a902806018038 pred e86aa4cfd99b6de7";
      "64-48-16 special-x: logits 32bc04c7e6dbe325 preact fe2fd1cd4c4f6325 fresh f04b9c6539b641b1 cached 9e2862a11ac3bf05 pred fe2fd1cd4c4f6325";
      "64-48-16 special-noise: logits aad65b41595536d0 preact ef9af0534c3530d6 fresh f04b9c6539b641b1 cached ce1a854bd092e089 pred a409320cae7cbd51";
      "64-48-16 special-params: logits d4429256d0b5e4df preact 4829d0d1f6199e37 fresh 23809633dbb19021 cached 44b840a25b49d590 pred 564d0ec51691d05a";
    ]

let test_network_digests () =
  Alcotest.(check (list string)) "network digests" expected_network_digests (network_digests ())

(* {1 Compiled graphs are keyed by shape and fed by copy}

   One graph per (network, batch shape, loss or logits): every call copies
   the batch and labels in, so distinct tensors of one shape share a graph
   and an input mutated in place is seen.  Every call is checked against
   the throwaway-replica oracles. *)

let loss_fixture () =
  let config = { Pnn.Config.default with Pnn.Config.epsilon = 0.1 } in
  let net =
    Pnn.Network.create (Rng.create 41) config (Fixtures.surrogate ()) ~inputs:4 ~outputs:3
  in
  let rng = Rng.create 43 in
  let pair shift =
    ( T.uniform rng 12 4 ~lo:0.0 ~hi:1.0,
      T.init 12 3 (fun r c -> if (r + shift) mod 3 = c then 1.0 else 0.0) )
  in
  let theta_shapes = Pnn.Network.theta_shapes net in
  let draw () = Pnn.Noise.draw rng ~epsilon:0.1 ~theta_shapes in
  (net, draw, [| pair 0; pair 1 |])

let check_draw msg net ~noise ~x ~labels =
  let l_alloc, g_alloc = Net_oracle.draw_loss_and_grads_alloc net ~noise ~x ~labels in
  let l, g = draw_loss_and_grads net ~noise ~x ~labels in
  check_bits_float (msg ^ ": loss") l_alloc l;
  List.iter2 (check_bits_tensor (msg ^ ": grads")) g_alloc g

let check_value msg pool net ~noises ~x ~labels =
  check_bits_float msg
    (T.get (A.value (Net_oracle.mc_loss net ~noises ~x ~labels)) 0 0)
    (Pnn.Network.mc_loss_value pool net ~noises ~x ~labels)

let test_loss_graph_alternating_pairs () =
  let net, draw, pairs = loss_fixture () in
  let pool = Parallel.get_pool () in
  for i = 0 to 5 do
    let x, labels = pairs.(i mod 2) in
    let noise = draw () in
    check_draw (Printf.sprintf "draw %d" i) net ~noise ~x ~labels;
    check_value (Printf.sprintf "value %d" i) pool net ~noises:[ noise; draw () ] ~x ~labels
  done

(* The same tensors, the same noise, new contents: a graph that skipped the
   copy for an input it had seen would answer with the old batch. *)
let test_compiled_graph_sees_in_place_input () =
  let net, draw, pairs = loss_fixture () in
  let (x1, labels1), (x2, labels2) = (pairs.(0), pairs.(1)) in
  let x = T.copy x1 and labels = T.copy labels1 in
  let noise = draw () in
  let pool = Parallel.Pool.create ~jobs:1 () in
  let check msg =
    check_draw msg net ~noise ~x ~labels;
    check_value (msg ^ ": value") pool net ~noises:[ noise ] ~x ~labels;
    check_bits_tensor (msg ^ ": logits")
      (A.value (Pnn.Network.logits net ~noise x))
      (one_draw_logits net ~noise x)
  in
  check "as given";
  T.blit ~src:x2 ~dst:x;
  T.blit ~src:labels2 ~dst:labels;
  check "after mutating x and labels in place"

(* A refused call writes nothing.  The call after it uses the same noise
   (or, for a bad draw, its valid layer 0): had the refused call written a
   noise leaf, the next call would see no change there and keep stale
   parameter-only results.  The pool is sequential, so every call runs on
   this domain's one loss graph. *)
let test_loss_graph_rejects_before_writing () =
  let net, draw, pairs = loss_fixture () in
  let x, labels = pairs.(0) in
  let pool = Parallel.Pool.create ~jobs:1 () in
  let good = draw () and other = draw () in
  let mixed = [ List.hd other; List.nth good 1 ] in
  let l1 = List.nth other 1 in
  let with_layer1 l = [ List.hd other; l ] in
  let bad =
    [
      ("labels shape mismatch", mixed, T.zeros 12 4);
      ("labels shape mismatch", mixed, T.zeros 11 3);
      ("noise/layer count mismatch", [ List.hd other ], labels);
      ("noise/layer count mismatch", other @ other, labels);
      ( "layer 1 theta noise shape mismatch",
        with_layer1 { l1 with Pnn.Noise.theta = T.ones 2 2 },
        labels );
      ( "layer 1 omega noise shape mismatch",
        with_layer1 { l1 with Pnn.Noise.act_omega = T.ones 1 6 },
        labels );
    ]
  in
  List.iter
    (fun (msg, noise, bad_labels) ->
      check_draw (msg ^ ": valid call") net ~noise:good ~x ~labels;
      Alcotest.check_raises msg
        (Invalid_argument ("Network.draws_loss_and_grads: " ^ msg))
        (fun () -> ignore (draw_loss_and_grads net ~noise ~x ~labels:bad_labels));
      check_draw (msg ^ ": next call") net ~noise:mixed ~x ~labels;
      check_value (msg ^ ": valid value") pool net ~noises:[ good ] ~x ~labels;
      Alcotest.check_raises msg
        (Invalid_argument ("Network.mc_loss_value: " ^ msg))
        (fun () ->
          ignore (Pnn.Network.mc_loss_value pool net ~noises:[ noise ] ~x ~labels:bad_labels));
      check_value (msg ^ ": next value") pool net ~noises:[ mixed ] ~x ~labels)
    bad

(* {1 One η stage for every draw, rows independent}

   A stack of draws, one of them poisoned: its layer-0 activation-circuit
   ε_ω holds a NaN or an infinity, in a [Noise.t] record built directly
   (no [Noise.draw] would make one).  Through the batched path — one η
   stage for the whole stack, then the draw graphs — every other draw's
   loss, θ/𝔴 gradients, logits (also from a stage padded as serving pads
   it: 3 draws to 4, 5 to 8, 100 to 128) and accuracy
   must be bit-identical to its own solo run on the fresh-graph oracle,
   and the poisoned draw NaN exactly where its solo run is.  A stacked row
   that leaked into another would show as a NaN (or a moved bit) in a
   clean draw. *)

let poisoned_stack draw ~n ~poison value =
  Array.init n (fun d ->
      let noise = draw () in
      if d <> poison then noise
      else
        match noise with
        | l0 :: rest ->
            let om = T.copy l0.Pnn.Noise.act_omega in
            T.set om 0 (n mod 7) value;
            { l0 with Pnn.Noise.act_omega = om } :: rest
        | [] -> noise)

(* Bits equal, or both NaN. *)
let same_or_both_nan a b = bits a = bits b || (Float.is_nan a && Float.is_nan b)

let check_draw_against msg ~poisoned ~expected actual =
  let check = if poisoned then same_or_both_nan else fun a b -> bits a = bits b in
  let e = T.to_array expected and a = T.to_array actual in
  Array.iteri
    (fun i x ->
      if not (check x a.(i)) then
        Alcotest.failf "%s: element %d: %h (solo) vs %h (stacked)" msg i x a.(i))
    e

let accuracy_of ~y logits =
  let pred = T.argmax_rows logits in
  let hits = ref 0 in
  Array.iteri (fun i p -> if p = y.(i) then incr hits) pred;
  float_of_int !hits /. float_of_int (Array.length y)

let test_poisoned_draw_rows_independent () =
  let net, draw, pairs = loss_fixture () in
  let x, labels = pairs.(0) in
  let y = T.argmax_rows labels in
  let pool = Parallel.get_pool () in
  List.iter
    (fun (n, value) ->
      let poison = n / 2 in
      let noises = poisoned_stack draw ~n ~poison value in
      let stacked = Pnn.Network.draws_loss_and_grads pool net ~noises ~x ~labels in
      let logits = Pnn.Network.mc_logits pool net ~noises x ~f:T.copy in
      let padded = Pnn.Network.mc_logits ~pad:true pool net ~noises x ~f:T.copy in
      let accs = Pnn.Network.mc_logits pool net ~noises x ~f:(accuracy_of ~y) in
      Array.iteri
        (fun d noise ->
          let poisoned = d = poison in
          let msg what = Printf.sprintf "stack %d (%h at %d), draw %d: %s" n value poison d what in
          let l, grads = Net_oracle.draw_loss_and_grads_alloc net ~noise ~x ~labels in
          let l', grads' = stacked.(d) in
          check_draw_against (msg "loss") ~poisoned ~expected:(T.scalar l) (T.scalar l');
          List.iteri
            (fun i (g, g') -> check_draw_against (msg (Printf.sprintf "grad %d" i)) ~poisoned ~expected:g g')
            (List.combine grads grads');
          let solo = A.value (Pnn.Network.logits net ~noise x) in
          check_draw_against (msg "logits") ~poisoned ~expected:solo logits.(d);
          check_draw_against (msg "padded logits") ~poisoned ~expected:solo padded.(d);
          check_bits_float (msg "accuracy") (accuracy_of ~y solo) accs.(d))
        noises;
      (* the poison reaches the draw's logits, so the clean draws were
         checked next to a NaN draw *)
      Alcotest.(check bool) (Printf.sprintf "stack %d: poisoned logits are NaN" n) true
        (Array.for_all Float.is_nan (T.to_array logits.(poison))))
    [ (1, Float.nan); (3, Float.infinity); (5, Float.neg_infinity); (100, Float.nan) ]

(* A draw whose logits are NaN has a NaN cross-entropy (a NaN probability
   is not clamped), so a Monte-Carlo loss over it is NaN, never a finite
   number that early stopping could select. *)
let test_nan_draw_gives_nan_loss () =
  let net, draw, pairs = loss_fixture () in
  let x, labels = pairs.(0) in
  let pool = Parallel.get_pool () in
  let noises = Array.to_list (poisoned_stack draw ~n:3 ~poison:1 Float.nan) in
  let clean = List.filteri (fun d _ -> d <> 1) noises in
  let value noises = Pnn.Network.mc_loss_value pool net ~noises ~x ~labels in
  let v = value clean in
  if not (Float.is_finite v) then Alcotest.failf "loss over the clean draws: %h" v;
  let v = value noises in
  if not (Float.is_nan v) then Alcotest.failf "loss over a NaN draw: %h (expected NaN)" v

(* The pooled loss and its gradients are the solo draws' folded in draw
   order — sums from draw 0 on, each gradient a one-draw graph's — then
   scaled by 1/n: what training steps on. *)
let test_pooled_loss_folds_solo_draws () =
  let net, draw, pairs = loss_fixture () in
  let x, labels = pairs.(1) in
  let pool = Parallel.get_pool () in
  List.iter
    (fun n ->
      let noises = List.init n (fun _ -> draw ()) in
      let solo =
        List.map (fun noise -> Net_oracle.draw_loss_and_grads_alloc net ~noise ~x ~labels) noises
      in
      let inv_n = 1.0 /. float_of_int n in
      let loss = List.fold_left (fun acc (l, _) -> acc +. l) 0.0 solo *. inv_n in
      let grads =
        match solo with
        | (_, first) :: rest ->
            List.map2
              (fun g0 i ->
                let acc = T.copy g0 in
                List.iter (fun (_, gs) -> T.add_into acc (List.nth gs i) ~dst:acc) rest;
                T.scale inv_n acc)
              first
              (List.init (List.length first) Fun.id)
        | [] -> []
      in
      let pooled = Pnn.Network.mc_loss_pooled pool net ~noises ~x ~labels in
      A.backward pooled;
      check_bits_float (Printf.sprintf "%d draws: loss" n) loss (T.get (A.value pooled) 0 0);
      List.iter2
        (check_bits_tensor (Printf.sprintf "%d draws: grads" n))
        grads
        (List.map A.grad (Pnn.Network.params_theta net @ Pnn.Network.params_omega net)))
    [ 1; 3; 5; 9 ]

(* An aging curve scores each draw exactly as {!Network.predict} would,
   every life point drawing in order from one stream. *)
let test_lifetime_accuracy_vs_predict () =
  let net, _, pairs = loss_fixture () in
  let x, labels = pairs.(0) in
  let y = T.argmax_rows labels in
  let t_fracs = [ 0.0; 0.5; 1.0 ] and n = 4 in
  let model t_frac = Pnn.Variation.Aging { kappa_max = 0.2; beta = 0.5; t_frac = Some t_frac } in
  let ctx = Pnn.Variation.ctx_of_shapes (Pnn.Network.theta_shapes net) in
  let got = Rng.create 47 and rng = Rng.create 47 in
  List.iter
    (fun t_frac ->
      let r = Pnn.Evaluation.mc_accuracy got net ~model:(model t_frac) ~n ~x ~y in
      let want =
        Array.init n (fun _ ->
            let noise = Pnn.Variation.draw rng (model t_frac) ctx in
            let pred = Pnn.Network.predict net ~noise x in
            let hits = ref 0 in
            Array.iteri (fun i p -> if p = y.(i) then incr hits) pred;
            float_of_int !hits /. float_of_int (Array.length y))
      in
      Array.iteri
        (fun i a -> check_bits_float (Printf.sprintf "t=%g draw %d" t_frac i) a r.accuracies.(i))
        want;
      check_bits_float "mean" (Stats.mean want) r.mean;
      check_bits_float "std" (Stats.std want) r.std)
    t_fracs;
  Alcotest.check_raises "label count"
    (Invalid_argument "Evaluation.accuracy: label count mismatch") (fun () ->
      ignore
        (Pnn.Evaluation.mc_accuracy (Rng.create 47) net ~model:(model 0.5) ~n ~x
           ~y:(Array.append y [| 0 |])))

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
          Alcotest.test_case "split tape" `Quick test_tape_split;
          Alcotest.test_case "loss graph vs alloc replica" `Quick
            test_loss_graph_vs_alloc;
          Alcotest.test_case "fit golden trajectory" `Quick test_fit_golden_history;
          Alcotest.test_case "printed-network digests" `Quick test_network_digests;
        ] );
      ( "compiled graphs",
        [
          Alcotest.test_case "alternating same-shaped pairs" `Quick
            test_loss_graph_alternating_pairs;
          Alcotest.test_case "input mutated in place" `Quick
            test_compiled_graph_sees_in_place_input;
          Alcotest.test_case "loss graph rejects before writing" `Quick
            test_loss_graph_rejects_before_writing;
          Alcotest.test_case "lifetime accuracy vs predict" `Quick
            test_lifetime_accuracy_vs_predict;
          Alcotest.test_case "poisoned draw: stacked rows independent" `Quick
            test_poisoned_draw_rows_independent;
          Alcotest.test_case "a NaN draw gives a NaN Monte-Carlo loss" `Quick
            test_nan_draw_gives_nan_loss;
          Alcotest.test_case "pooled loss folds the solo draws" `Quick
            test_pooled_loss_folds_solo_draws;
        ] );
    ]
