(* Gradient checking for the reverse-mode autodiff engine.

   Strategy: for a scalar-valued graph f(p) built from a parameter tensor p,
   compare Autodiff gradients with central finite differences. *)

module A = Autodiff
module T = Tensor

(* Evaluate the graph builder at the parameter's current value and return
   (value, analytic gradient). *)
let grad_of build p =
  let root = build p in
  A.backward root;
  (T.get (A.value root) 0 0, T.copy (A.grad p))

let finite_diff build p =
  let v = A.value p in
  let rows = T.rows v and cols = T.cols v in
  let g = T.zeros rows cols in
  let h = 1e-5 in
  for r = 0 to rows - 1 do
    for c = 0 to cols - 1 do
      let orig = T.get v r c in
      T.set v r c (orig +. h);
      let fp = T.get (A.value (build p)) 0 0 in
      T.set v r c (orig -. h);
      let fm = T.get (A.value (build p)) 0 0 in
      T.set v r c orig;
      T.set g r c ((fp -. fm) /. (2.0 *. h))
    done
  done;
  g

let check_grad_leaf ?(tol = 1e-4) name build p =
  let _, analytic = grad_of build p in
  let numeric = finite_diff build p in
  let ok = ref true in
  for r = 0 to T.rows analytic - 1 do
    for c = 0 to T.cols analytic - 1 do
      let a = T.get analytic r c and n = T.get numeric r c in
      let scale = Stdlib.max 1.0 (Stdlib.max (Float.abs a) (Float.abs n)) in
      if Float.abs (a -. n) /. scale > tol then begin
        ok := false;
        Printf.printf "%s: grad mismatch at (%d,%d): analytic %.8f vs numeric %.8f\n" name
          r c a n
      end
    done
  done;
  if not !ok then Alcotest.failf "%s: gradient check failed" name

let check_grad ?tol name build init = check_grad_leaf ?tol name build (A.param init)

let rng = Rng.create 12345
let rand r c = T.uniform rng r c ~lo:0.3 ~hi:1.7
let rand_signed r c = T.uniform rng r c ~lo:(-1.5) ~hi:1.5

(* The gradient-check table.  Each case is a thunk whose constants are
   captured once (the finite-difference check re-invokes the builder, which
   must reconstruct the same graph).  Each builds a scalar via [Nodes.sum]
   so shapes collapse.  [t] checks the gradient of a fresh parameter;
   [leaf] of a parameter the case builds itself (inside a layer or
   circuit). *)
let t name mk = (name, fun () -> let build, init = mk () in check_grad name build init)
let leaf ?tol name mk = (name, fun () -> let build, p = mk () in check_grad_leaf ?tol name build p)

let cases table =
  List.map (fun (name, run) -> Alcotest.test_case name `Quick run) table

let unary_cases =
  [
    t "add self" (fun () -> ((fun p -> Nodes.sum (A.add p p)), rand_signed 3 4));
    t "neg" (fun () -> ((fun p -> Nodes.sum (A.neg p)), rand_signed 2 2));
    t "scale" (fun () -> ((fun p -> Nodes.sum (A.scale (-2.5) p)), rand_signed 2 5));
    t "tanh" (fun () -> ((fun p -> Nodes.sum (A.tanh p)), rand_signed 3 3));
    t "sigmoid" (fun () -> ((fun p -> Nodes.sum (A.sigmoid p)), rand_signed 3 3));
    t "relu" (fun () -> ((fun p -> Nodes.sum (A.relu p)), rand 2 3));
  ]

let const_case name mk init = t name (fun () -> (mk (), init ()))

let structural_cases =
  [
    const_case "matmul left" (fun () -> let c = rand 4 2 in fun p -> Nodes.sum (A.matmul p (A.const c)))
      (fun () -> rand_signed 3 4);
    const_case "matmul right" (fun () -> let c = rand 2 3 in fun p -> Nodes.sum (A.matmul (A.const c) p))
      (fun () -> rand_signed 3 4);
    const_case "matmul chain"
      (fun () ->
        let c33 = rand 3 3 and c32 = rand 3 2 in
        fun p -> Nodes.sum (A.matmul (A.matmul p (A.const c33)) (A.const c32)))
      (fun () -> rand_signed 2 3);
    const_case "add_rowvec m" (fun () -> let c = rand 1 4 in fun p -> Nodes.sum (A.add_rowvec p (A.const c)))
      (fun () -> rand_signed 3 4);
    const_case "add_rowvec v" (fun () -> let c = rand 3 4 in fun p -> Nodes.sum (A.add_rowvec (A.const c) p))
      (fun () -> rand_signed 1 4);
    const_case "mul_rowvec m" (fun () -> let c = rand 1 4 in fun p -> Nodes.sum (A.mul_rowvec p (A.const c)))
      (fun () -> rand_signed 3 4);
    const_case "mul_rowvec v" (fun () -> let c = rand 3 4 in fun p -> Nodes.sum (A.mul_rowvec (A.const c) p))
      (fun () -> rand_signed 1 4);
    const_case "concat_rows a"
      (fun () ->
        let c33 = rand 3 3 and c53 = rand 5 3 in
        fun p -> Nodes.sum (Nodes.mul (A.concat_rows p (A.const c33)) (A.const c53)))
      (fun () -> rand_signed 2 3);
    const_case "concat_rows b"
      (fun () ->
        let c23 = rand 2 3 and c53 = rand 5 3 in
        fun p -> Nodes.sum (Nodes.mul (A.concat_rows (A.const c23) p) (A.const c53)))
      (fun () -> rand_signed 3 3);
    t "slice_rows" (fun () -> ((fun p -> Nodes.sum (A.slice_rows p 1 2)), rand_signed 4 3));
    t "diamond graph" (fun () ->
        ((fun p -> Nodes.sum (Nodes.mul (A.tanh p) (A.sigmoid p))), rand_signed 3 3));
    t "reused node" (fun () ->
        ((fun p ->
           let a = Nodes.mul p p in
           Nodes.sum (A.add a a)),
         rand_signed 2 2));
  ]

(* The fused dense layer, with and without its nonlinearity, in each of
   its three inputs. *)
let dense_cases =
  List.concat_map
    (fun (op_name, op) ->
      let shapes () = (rand_signed 5 3, rand_signed 3 4, rand_signed 1 4, rand 5 4) in
      let case input =
        const_case
          (Printf.sprintf "dense %s %s" op_name input)
          (fun () ->
            let x, w, b, weights = shapes () in
            fun p ->
              let arg name v = if name = input then p else A.const v in
              Nodes.sum (Nodes.mul (A.dense ?op (arg "x" x) (arg "w" w) (arg "b" b)) (A.const weights)))
          (fun () ->
            match input with
            | "x" -> rand_signed 5 3
            | "w" -> rand_signed 3 4
            | _ -> rand_signed 1 4)
      in
      [ case "x"; case "w"; case "b" ])
    [ ("tanh", Some T.Tanh); ("plain", None) ]

let loss_cases =
  [
    t "softmax cross entropy" (fun () ->
        let labels = T.of_arrays [| [| 1.0; 0.0; 0.0 |]; [| 0.0; 0.0; 1.0 |] |] in
        ((fun p -> A.softmax_cross_entropy ~logits:p ~labels), rand_signed 2 3));
    t "mse" (fun () ->
        let target = rand 3 4 in
        ((fun p -> A.mse p target), rand_signed 3 4));
  ]

(* The printed layer's fused nodes.  Inputs keep clear of the
   straight-through estimators' kinks (conductances inside the printable
   band, R2/R4 inside their boxes), where finite differences and the
   estimator legitimately disagree. *)
let printed_cases =
  let eta () = T.of_array [| 0.1; 0.8; 0.3; 2.5 |] in
  let config = Pnn.Config.default in
  let layer () =
    let surrogate = Fixtures.surrogate () in
    let layer = Pnn.Layer.create (Rng.create 3) config surrogate ~inputs:3 ~outputs:2 in
    T.blit
      ~src:(T.init 5 2 (fun r c -> if (r + c) mod 2 = 0 then 0.4 +. (0.05 *. float_of_int r) else -0.6))
      ~dst:(A.value layer.Pnn.Layer.theta);
    List.iter
      (fun p -> T.blit ~src:(T.uniform rng 1 7 ~lo:(-0.3) ~hi:0.3) ~dst:(A.value p))
      (Pnn.Layer.params_omega layer);
    layer
  in
  let noise () = List.hd (Pnn.Noise.draw (Rng.create 5) ~epsilon:0.05 ~theta_shapes:[ (5, 2) ]) in
  let weighted out w = Nodes.sum (Nodes.mul out (A.const w)) in
  [
    const_case "ptanh eta, v const"
      (fun () ->
        let v = rand_signed 4 3 and w = rand 4 3 in
        fun p -> weighted (Pnn.Nonlinear.apply_eta p (A.const v)) w)
      eta;
    const_case "ptanh eta, v needing a gradient"
      (fun () ->
        let v = A.param (rand_signed 4 3) and w = rand 4 3 in
        fun p -> weighted (Pnn.Nonlinear.apply_eta p v) w)
      eta;
    const_case "ptanh v"
      (fun () ->
        let e = eta () and w = rand 4 3 in
        fun p -> weighted (Pnn.Nonlinear.apply_eta (A.const e) p) w)
      (fun () -> rand_signed 4 3);
    leaf "printable omega" (fun () ->
        let nl = Pnn.Nonlinear.create (Fixtures.surrogate ()) in
        let raw = Pnn.Nonlinear.raw_param nl in
        T.blit ~src:(T.uniform rng 1 7 ~lo:(-0.3) ~hi:0.3) ~dst:(A.value raw);
        let noise = T.uniform rng 1 7 ~lo:0.95 ~hi:1.05 and w = T.uniform rng 1 7 ~lo:1e-5 ~hi:2e-5 in
        ((fun _ -> weighted (Pnn.Nonlinear.printable_omega nl ~noise) w), raw));
    const_case "surrogate features"
      (fun () ->
        let model = Fixtures.surrogate () and w = rand 2 10 in
        fun p -> A.scale 1e3 (weighted (Surrogate.Model.features_ad model p) w))
      (fun () ->
        T.init 2 7 (fun _ c ->
            let module Ds = Surrogate.Design_space in
            Rng.uniform rng ~lo:(0.6 *. Ds.omega_lo.(c) +. 0.4 *. Ds.omega_hi.(c))
              ~hi:(0.4 *. Ds.omega_lo.(c) +. 0.6 *. Ds.omega_hi.(c))));
    leaf "crossbar theta" (fun () ->
        let layer = layer () and noise = noise () and x = rand 4 3 and w = rand 4 2 in
        ((fun _ -> weighted (Pnn.Layer.preactivation config layer ~noise (A.const x)) w),
         layer.Pnn.Layer.theta));
    const_case "crossbar x"
      (fun () ->
        let layer = layer () and noise = noise () and w = rand 4 2 in
        fun p -> weighted (Pnn.Layer.preactivation config layer ~noise p) w)
      (fun () -> rand 4 3);
    leaf "crossbar negative-weight circuit" (fun () ->
        let layer = layer () and noise = noise () and x = rand 4 3 and w = rand 4 2 in
        ((fun _ -> weighted (Pnn.Layer.preactivation config layer ~noise (A.const x)) w),
         Pnn.Nonlinear.raw_param layer.Pnn.Layer.neg));
    leaf "layer activation circuit" (fun () ->
        let layer = layer () and noise = noise () and x = rand 4 3 and w = rand 4 2 in
        ((fun _ -> weighted (Pnn.Layer.forward config layer ~noise (A.const x)) w),
         Pnn.Nonlinear.raw_param layer.Pnn.Layer.act));
  ]

(* non-gradient unit tests *)

let test_values () =
  let x = A.const (T.of_array [| 1.0; -2.0 |]) in
  let y = A.add (A.scale 2.0 x) (A.relu x) in
  Alcotest.(check (float 1e-12)) "2x+relu" 3.0 (T.get (A.value y) 0 0);
  Alcotest.(check (float 1e-12)) "2x+relu neg" (-4.0) (T.get (A.value y) 0 1)

let test_softmax_ce_value () =
  (* uniform logits -> loss = ln k *)
  let logits = A.const (T.zeros 4 3) in
  let labels = T.init 4 3 (fun _ c -> if c = 0 then 1.0 else 0.0) in
  let loss = A.softmax_cross_entropy ~logits ~labels in
  Alcotest.(check (float 1e-9)) "ln 3" (log 3.0) (T.get (A.value loss) 0 0)

let test_backward_requires_scalar () =
  let p = A.param (T.zeros 2 2) in
  Alcotest.check_raises "non-scalar root"
    (Invalid_argument "Autodiff.backward: root must be a 1x1 scalar") (fun () ->
      A.backward (A.add p p))

let test_grad_accumulation_reset () =
  let p = A.param (T.ones 1 1) in
  let build () = Nodes.sum (Nodes.mul p p) in
  A.backward (build ());
  let g1 = T.get (A.grad p) 0 0 in
  A.backward (build ());
  let g2 = T.get (A.grad p) 0 0 in
  Alcotest.(check (float 1e-12)) "no stale accumulation" g1 g2

let test_shape_errors () =
  let a = A.const (T.zeros 2 2) and b = A.const (T.zeros 2 3) in
  Alcotest.check_raises "mse mismatch" (Invalid_argument "Autodiff.mse: shape mismatch")
    (fun () -> ignore (A.mse a (T.zeros 3 2)));
  match A.add a b with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "expected shape error"

let qcheck_chain_rule =
  QCheck.Test.make ~name:"scale chain rule" ~count:100
    QCheck.(pair (float_range (-3.0) 3.0) (float_range (-2.0) 2.0))
    (fun (k, x0) ->
      let p = A.param (T.scalar x0) in
      let root = Nodes.sum (A.scale k (A.tanh p)) in
      A.backward root;
      let g = T.get (A.grad p) 0 0 in
      let expected = k *. (1.0 -. (Float.tanh x0 *. Float.tanh x0)) in
      Float.abs (g -. expected) < 1e-9)

let () =
  Alcotest.run "autodiff"
    [
      ("unary gradients", cases unary_cases);
      ("structural gradients", cases structural_cases);
      ("dense gradients", cases dense_cases);
      ("losses", cases loss_cases);
      ("printed-layer gradients", cases printed_cases);
      ( "semantics",
        [
          Alcotest.test_case "values" `Quick test_values;
          Alcotest.test_case "softmax value" `Quick test_softmax_ce_value;
          Alcotest.test_case "backward scalar only" `Quick test_backward_requires_scalar;
          Alcotest.test_case "grad reset" `Quick test_grad_accumulation_reset;
          Alcotest.test_case "shape errors" `Quick test_shape_errors;
          QCheck_alcotest.to_alcotest qcheck_chain_rule;
        ] );
    ]
