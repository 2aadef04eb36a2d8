(* The printed layer's fused tape nodes against the node-by-node graphs
   they replaced.

   Each fused node (ptanh, the printable-ω map, the surrogate's feature
   step, the two crossbar halves) promises the bits of the graph of
   primitives it stands for, values and every input's gradient, signed
   zeros included, wherever the graph's output is not NaN, and a NaN
   exactly where it is NaN (of any payload or sign).  The old graphs are
   rebuilt here from the library's primitives, the copies in nodes.ml of
   the ones it no longer exports, and test-local copies of the retired
   broadcast-scalar and straight-through nodes, and both are run on inputs
   and upstream gradients full of NaNs with distinct payloads (quiet and
   signalling, both signs), infinities and signed zeros. *)

module T = Tensor
module A = Autodiff
module Ds = Surrogate.Design_space

let bits = Int64.bits_of_float

(* Equal bits, or both NaN. *)
let check_bits what a b =
  let a = T.to_array a and b = T.to_array b in
  if Array.length a <> Array.length b then Alcotest.failf "%s: sizes differ" what;
  Array.iteri
    (fun i x ->
      if bits x <> bits b.(i) && not (Float.is_nan x && Float.is_nan b.(i)) then
        Alcotest.failf "%s: element %d: %016Lx (old graph) vs %016Lx (fused)" what i (bits x)
          (bits b.(i)))
    a

(* {1 Inputs} *)

(* A NaN with a random payload and sign; every other one signalling. *)
let random_nan rng =
  let payload = Int64.of_int (1 + Rng.int rng 0xfffff) in
  let quiet = if Rng.int rng 2 = 0 then 0x0008000000000000L else 0L in
  let sign = if Rng.int rng 2 = 0 then Int64.min_int else 0L in
  Int64.float_of_bits
    (Int64.logor sign (Int64.logor 0x7ff0000000000000L (Int64.logor quiet payload)))

(* Mostly ordinary values in [lo, hi], with [special] of them replaced by
   NaNs, infinities and signed zeros. *)
let tensor ?(special = 0.3) rng rows cols ~lo ~hi =
  T.init rows cols (fun _ _ ->
      if Rng.float rng >= special then Rng.uniform rng ~lo ~hi
      else
        match Rng.int rng 6 with
        | 0 | 1 | 2 -> random_nan rng
        | 3 -> if Rng.int rng 2 = 0 then Float.infinity else Float.neg_infinity
        | 4 -> -0.0
        | _ -> 0.0)

(* Run [build] on fresh param leaves holding [inputs] and seed the
   backward pass with [seed] (root = Σ out ⊙ seed, so the output's gradient
   is [seed] itself); return the output and every input's gradient. *)
let run build inputs seed =
  let leaves = List.map (fun t -> A.param (T.copy t)) inputs in
  let out = build leaves in
  A.backward (Nodes.sum (Nodes.mul out (A.const seed)));
  (T.copy (A.value out), List.map (fun p -> T.copy (A.grad p)) leaves)

let against_old what ~old ~fused inputs seed =
  let v_old, g_old = run old inputs seed and v_new, g_new = run fused inputs seed in
  check_bits (what ^ " value") v_old v_new;
  List.iteri (fun i (a, b) -> check_bits (Printf.sprintf "%s grad %d" what i) a b)
    (List.combine g_old g_new)

(* {1 The retired primitives, as they were} *)

(* [k + x] elementwise. *)
let add_scalar k x = T.map (fun v -> k +. v) x

let badd s m =
  A.fused
    (add_scalar (T.get (A.value s) 0 0) (A.value m))
    [ s; m ]
    ~recompute:(fun dst -> T.blit ~src:(add_scalar (T.get (A.value s) 0 0) (A.value m)) ~dst)
    ~backward:(fun g ->
      A.accumulate m g;
      A.accumulate s (T.scalar (T.sum g)))

let bmul s m =
  A.fused
    (T.scale (T.get (A.value s) 0 0) (A.value m))
    [ s; m ]
    ~recompute:(fun dst -> T.scale_into (T.get (A.value s) 0 0) (A.value m) ~dst)
    ~backward:(fun g ->
      A.accumulate m (T.scale (T.get (A.value s) 0 0) g);
      A.accumulate s (T.scalar (T.sum (T.mul g (A.value m)))))

let map_ste f a =
  A.fused (T.map f (A.value a)) [ a ]
    ~recompute:(fun dst -> T.blit ~src:(T.map f (A.value a)) ~dst)
    ~backward:(fun g -> A.accumulate a g)

let clamp_ste ~lo ~hi = map_ste (fun x -> if x < lo then lo else if x > hi then hi else x)

(* {1 The replaced graphs} *)

let old_ptanh eta v =
  let e i = Nodes.slice_cols eta i 1 in
  let shifted = badd (A.neg (e 2)) v in
  badd (e 0) (bmul (e 1) (A.tanh (bmul (e 3) shifted)))

let w_scaler = Surrogate.Scaler.of_bounds ~lo:Ds.learnable_lo ~hi:Ds.learnable_hi

let old_omega raw noise =
  let w = Surrogate.Scaler.inverse_ad w_scaler (A.sigmoid raw) in
  let field i = Nodes.slice_cols w i 1 in
  let r1 = field 0 and r3 = field 1 and r5 = field 2 in
  let wd = field 3 and ld = field 4 and k1 = field 5 and k2 = field 6 in
  let r2 = clamp_ste ~lo:Ds.omega_lo.(1) ~hi:Ds.omega_hi.(1) (Nodes.mul r1 k1) in
  let r4 = clamp_ste ~lo:Ds.omega_lo.(3) ~hi:Ds.omega_hi.(3) (Nodes.mul r3 k2) in
  Nodes.mul (List.fold_left Nodes.concat_cols r1 [ r2; r3; r4; r5; wd; ld ]) noise

let old_features (model : Surrogate.Model.t) x =
  let col i = Nodes.slice_cols x i 1 in
  let k1 = Nodes.div (col 1) (col 0) and k2 = Nodes.div (col 3) (col 2) in
  let k3 = Nodes.div (col 5) (col 6) in
  let ext = Nodes.concat_cols (Nodes.concat_cols (Nodes.concat_cols x k1) k2) k3 in
  let sc = model.Surrogate.Model.omega_scaler in
  let inv_range = T.of_array (Array.map (fun r -> 1.0 /. r) (Surrogate.Scaler.range sc)) in
  let neg_lo = T.of_array (Array.map (fun l -> -.l) (Surrogate.Scaler.lo sc)) in
  A.mul_rowvec (A.add_rowvec ext (A.const neg_lo)) (A.const inv_range)

let project (config : Pnn.Config.t) v =
  let g_min = config.Pnn.Config.g_min and g_max = config.Pnn.Config.g_max in
  let mag = Float.abs v in
  let s = if v < 0.0 then -1.0 else 1.0 in
  if mag < g_min /. 2.0 then 0.0
  else if mag < g_min then s *. g_min
  else if mag > g_max then s *. g_max
  else v

let old_preactivation config theta theta_n neg_eta x =
  let x_aug = Nodes.concat_cols x (A.const (T.ones (T.rows (A.value x)) 1)) in
  let inv_x = A.neg (old_ptanh neg_eta x_aug) in
  let theta = Nodes.mul (map_ste (project config) theta) theta_n in
  let pos = A.relu theta and neg_part = A.relu (A.neg theta) in
  let k = T.cols (A.value x) + 1 in
  let numerator =
    A.add
      (A.matmul x_aug (A.slice_rows pos 0 k))
      (A.matmul inv_x (A.slice_rows neg_part 0 k))
  in
  Nodes.div_rowvec numerator (Nodes.sum_rows (A.add pos neg_part))

(* {1 Tests} *)

let test_ptanh () =
  let rng = Rng.create 3 in
  for trial = 0 to 11 do
    let v = tensor rng 9 5 ~lo:(-2.0) ~hi:2.0 in
    (* a third of the trials keep η finite, so the element-wise NaN
       paths are reached as well as the all-NaN ones *)
    let special = if trial mod 3 = 0 then 0.0 else 0.3 in
    let eta = tensor ~special rng 1 4 ~lo:(-1.0) ~hi:3.0 in
    let seed = tensor rng 9 5 ~lo:(-1.0) ~hi:1.0 in
    let what = Printf.sprintf "ptanh trial %d" trial in
    against_old what
      ~old:(function [ e; v ] -> old_ptanh e v | _ -> assert false)
      ~fused:(function [ e; v ] -> Pnn.Nonlinear.apply_eta e v | _ -> assert false)
      [ eta; v ] seed;
    (* v as a const: only η needs a gradient *)
    against_old (what ^ " const v")
      ~old:(function [ e ] -> old_ptanh e (A.const v) | _ -> assert false)
      ~fused:(function [ e ] -> Pnn.Nonlinear.apply_eta e (A.const v) | _ -> assert false)
      [ eta ] seed
  done

let test_omega () =
  let surrogate = Fixtures.surrogate () in
  let rng = Rng.create 4 in
  for trial = 0 to 19 do
    let nl = Pnn.Nonlinear.create surrogate in
    let raw = Pnn.Nonlinear.raw_param nl in
    T.blit ~src:(tensor rng 1 7 ~lo:(-6.0) ~hi:6.0) ~dst:(A.value raw);
    let noise = tensor ~special:0.2 rng 1 7 ~lo:0.9 ~hi:1.1 in
    let seed = A.const (tensor rng 1 7 ~lo:(-1.0) ~hi:1.0) in
    let run out =
      A.backward (Nodes.sum (Nodes.mul out seed));
      (T.copy (A.value out), T.copy (A.grad raw))
    in
    let v_old, g_old = run (old_omega raw (A.const noise)) in
    let v_new, g_new = run (Pnn.Nonlinear.printable_omega nl ~noise) in
    let what = Printf.sprintf "printable omega trial %d" trial in
    check_bits (what ^ " value") v_old v_new;
    check_bits (what ^ " grad") g_old g_new
  done

let test_features () =
  let surrogate = Fixtures.surrogate () in
  let rng = Rng.create 5 in
  for trial = 0 to 19 do
    let om =
      T.init 2 7 (fun _ c -> Rng.uniform rng ~lo:Ds.omega_lo.(c) ~hi:Ds.omega_hi.(c))
    in
    let specials = tensor ~special:0.4 rng 2 7 ~lo:1.0 ~hi:1.0 in
    let om = T.mul om specials in
    let seed = tensor rng 2 10 ~lo:(-1.0) ~hi:1.0 in
    against_old
      (Printf.sprintf "features trial %d" trial)
      ~old:(function [ x ] -> old_features surrogate x | _ -> assert false)
      ~fused:(function [ x ] -> Surrogate.Model.features_ad surrogate x | _ -> assert false)
      [ om ] seed
  done

(* One crossbar case: a layer with random θ and circuits, a noise draw
   with specials in ε_θ, and [rows] inputs, run through the old graph and
   the fused nodes.  With [const_x] the input is a const leaf, as in a
   network's first layer, so the crossbar skips x's gradient. *)
let crossbar_case config surrogate rng ~rows ~inputs ~outputs ~trial ~const_x =
  let layer = Pnn.Layer.create (Rng.create trial) config surrogate ~inputs ~outputs in
  List.iter
    (fun p -> T.blit ~src:(tensor rng 1 7 ~lo:(-3.0) ~hi:3.0) ~dst:(A.value p))
    (Pnn.Layer.params_omega layer);
  let theta = tensor rng (inputs + 2) outputs ~lo:(-1.2) ~hi:1.2 in
  T.blit ~src:theta ~dst:(A.value layer.Pnn.Layer.theta);
  let ones7 = T.ones 1 7 in
  let noise =
    {
      Pnn.Noise.theta = tensor ~special:0.15 rng (inputs + 2) outputs ~lo:0.9 ~hi:1.1;
      act_omega = ones7;
      neg_omega = ones7;
    }
  in
  let x = tensor rng rows inputs ~lo:0.0 ~hi:1.0 in
  let seed = tensor rng rows outputs ~lo:(-1.0) ~hi:1.0 in
  let grads out =
    A.backward (Nodes.sum (Nodes.mul out (A.const seed)));
    List.map
      (fun p -> T.copy (A.grad p))
      (Pnn.Layer.params_theta layer @ Pnn.Layer.params_omega layer)
  in
  let leaf () = if const_x then A.const (T.copy x) else A.param (T.copy x) in
  let xo = leaf () in
  let neg_eta = Pnn.Nonlinear.eta layer.Pnn.Layer.neg ~noise:noise.Pnn.Noise.neg_omega in
  let theta_n = A.const noise.Pnn.Noise.theta in
  let old = old_preactivation config layer.Pnn.Layer.theta theta_n neg_eta xo in
  let g_old = grads old in
  let xn = leaf () in
  let fused = Pnn.Layer.preactivation config layer ~noise xn in
  let g_new = grads fused in
  let what =
    Printf.sprintf "crossbar %d rows %dx%d%s trial %d" rows inputs outputs
      (if const_x then " const x" else "")
      trial
  in
  check_bits (what ^ " value") (A.value old) (A.value fused);
  if not const_x then check_bits (what ^ " x grad") (A.grad xo) (A.grad xn);
  List.iteri
    (fun i (a, b) -> check_bits (Printf.sprintf "%s param grad %d" what i) a b)
    (List.combine g_old g_new)

let test_preactivation () =
  let surrogate = Fixtures.surrogate () in
  let config = Pnn.Config.default in
  let rng = Rng.create 6 in
  List.iter
    (fun (inputs, outputs) ->
      for trial = 0 to 5 do
        List.iter
          (fun const_x ->
            crossbar_case config surrogate rng ~rows:7 ~inputs ~outputs ~trial ~const_x)
          [ false; true ]
      done)
    [ (4, 3); (3, 5); (9, 2) ];
  (* shapes straddling the C stub's four-row blocks (rows 1..9) and its
     8-wide column tiles (n_out 1, 3, 7 | 8 | 9, 17) *)
  for rows = 1 to 9 do
    List.iter
      (fun outputs ->
        List.iter
          (fun const_x ->
            crossbar_case config surrogate rng ~rows ~inputs:(2 + (rows mod 3)) ~outputs
              ~trial:rows ~const_x)
          [ false; true ])
      [ 1; 3; 7; 8; 9; 17 ]
  done

let () =
  Alcotest.run "fused"
    [
      ( "old graph",
        [
          Alcotest.test_case "ptanh" `Quick test_ptanh;
          Alcotest.test_case "printable omega" `Quick test_omega;
          Alcotest.test_case "surrogate features" `Quick test_features;
          Alcotest.test_case "crossbar" `Quick test_preactivation;
        ] );
    ]
