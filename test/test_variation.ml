(* Tests for the composable variation-model subsystem: per-family semantics,
   bit-identity with the uniform Noise draw, the one nominal rule, the Rng
   split convention, and pool-size-independent Monte-Carlo
   evaluation and training under every family. *)

module T = Tensor
module V = Pnn.Variation
module C = Pnn.Config

let surrogate =
  lazy
    (let dataset = Surrogate.Pipeline.generate_dataset ~n:250 () in
     let model, _ =
       Surrogate.Pipeline.train_surrogate ~arch:[ 10; 8; 6; 4 ] ~max_epochs:300
         (Rng.create 42) dataset
     in
     model)

let config = C.default

let make_net ?(seed = 1) ?(config = config) ~inputs ~outputs () =
  Pnn.Network.create (Rng.create seed) config (Lazy.force surrogate) ~inputs ~outputs

let shapes = [ (7, 3); (5, 3) ]
let ctx = V.ctx_of_shapes shapes

let noise_tensors (n : Pnn.Noise.t) =
  List.concat_map
    (fun ln -> [ ln.Pnn.Noise.theta; ln.Pnn.Noise.act_omega; ln.Pnn.Noise.neg_omega ])
    n

let noise_bits n =
  List.concat_map
    (fun t -> Array.to_list (Array.map Int64.bits_of_float (T.to_array t)))
    (noise_tensors n)

let check_noise_equal msg a b =
  Alcotest.(check (list int64)) msg (noise_bits a) (noise_bits b)

let iter_values f n = List.iter (fun t -> Array.iter f (T.to_array t)) (noise_tensors n)

(* {1 Uniform: bit-identity with Noise.draw} *)

let test_uniform_stream_identity () =
  let rng_a = Rng.create 11 and rng_b = Rng.create 11 in
  let legacy = Pnn.Noise.draw rng_a ~epsilon:0.1 ~theta_shapes:shapes in
  let model = V.draw rng_b (V.Uniform 0.1) ctx in
  check_noise_equal "same multipliers" legacy model;
  (* identical stream consumption: the generators stay in lock-step *)
  Alcotest.(check int64) "same rng state after draw" (Rng.uint64 rng_a) (Rng.uint64 rng_b)

let test_uniform_zero_is_ones () =
  iter_values
    (fun v -> Alcotest.(check (float 0.0)) "exact one" 1.0 v)
    (V.draw (Rng.create 1) (V.Uniform 0.0) ctx)

(* {1 Gaussian} *)

let test_gaussian_bounds_and_mean () =
  let sigma = 0.1 in
  let n = V.draw (Rng.create 5) (V.Gaussian sigma) (V.ctx_of_shapes [ (40, 25) ]) in
  let lo = exp ((-3.0 *. sigma) -. (0.5 *. sigma *. sigma)) in
  let hi = exp ((3.0 *. sigma) -. (0.5 *. sigma *. sigma)) in
  let sum = ref 0.0 and count = ref 0 in
  iter_values
    (fun v ->
      if v < lo -. 1e-12 || v > hi +. 1e-12 then
        Alcotest.failf "multiplier %f outside clamp band [%f, %f]" v lo hi;
      sum := !sum +. v;
      incr count)
    n;
  let mean = !sum /. float_of_int !count in
  Alcotest.(check bool)
    (Printf.sprintf "mean %.4f close to 1" mean)
    true
    (Float.abs (mean -. 1.0) < 0.02)

let test_gaussian_zero_sigma_is_ones () =
  iter_values
    (fun v -> Alcotest.(check (float 0.0)) "exact one" 1.0 v)
    (V.draw (Rng.create 2) (V.Gaussian 0.0) ctx)

(* {1 Correlated} *)

let test_correlated_local_zero_constant_per_tensor () =
  let n =
    V.draw (Rng.create 7) (V.Correlated { global = 0.2; local = 0.0 }) ctx
  in
  let firsts =
    List.map
      (fun t ->
        let a = T.to_array t in
        Array.iter
          (fun v ->
            Alcotest.(check (float 0.0)) "constant within tensor" a.(0) v)
          a;
        a.(0))
      (noise_tensors n)
  in
  (* shared factors are drawn independently per tensor *)
  let distinct = List.sort_uniq Float.compare firsts in
  Alcotest.(check bool) "factors differ across tensors" true (List.length distinct > 1)

let test_correlated_zero_is_ones () =
  iter_values
    (fun v -> Alcotest.(check (float 0.0)) "exact one" 1.0 v)
    (V.draw (Rng.create 3) (V.Correlated { global = 0.0; local = 0.0 }) ctx)

(* {1 Defects} *)

let test_defects_need_network_ctx () =
  Alcotest.check_raises "shape-only ctx"
    (Invalid_argument "Variation.draw: Defects requires a network-backed ctx")
    (fun () ->
      ignore (V.draw (Rng.create 1) (V.Defects { p_open = 0.1; p_short = 0.0 }) ctx))

let test_defects_zero_rate_is_ones () =
  let net = make_net ~inputs:4 ~outputs:3 () in
  iter_values
    (fun v -> Alcotest.(check (float 0.0)) "exact one" 1.0 v)
    (V.draw (Rng.create 1)
       (V.Defects { p_open = 0.0; p_short = 0.0 })
       (V.ctx_of_network net))

let check_all_stuck ~p_open ~p_short ~rail () =
  let net = make_net ~inputs:4 ~outputs:3 () in
  let noise = V.draw (Rng.create 9) (V.Defects { p_open; p_short }) (V.ctx_of_network net) in
  let r_rail = if Float.equal p_open 1.0 then Surrogate.Design_space.omega_hi
               else Surrogate.Design_space.omega_lo in
  List.iter2
    (fun layer ln ->
      let printed = Pnn.Layer.printed_theta config layer in
      let mult = ln.Pnn.Noise.theta in
      for r = 0 to T.rows printed - 1 do
        for c = 0 to T.cols printed - 1 do
          let g = T.get printed r c and m = T.get mult r c in
          (* pnnlint:allow R5 mirrors Variation.draw's IEEE exact-zero
             unprinted test, -0.0 included *)
          if g = 0.0 then
            Alcotest.(check (float 0.0)) "unprinted cannot fail" 1.0 m
          else begin
            Alcotest.(check (float 1e-12)) "magnitude forced to rail" rail
              (Float.abs (g *. m));
            Alcotest.(check bool) "sign kept" true (g *. m *. g > 0.0)
          end
        done
      done;
      List.iter2
        (fun circuit omega_mult ->
          let values = Pnn.Nonlinear.omega_values circuit in
          Array.iteri
            (fun j m ->
              if j >= 5 then
                Alcotest.(check (float 0.0)) "geometry untouched" 1.0 m
              else if
                Float.abs ((values.(j) *. m) -. r_rail.(j)) /. r_rail.(j) > 1e-9
              then
                Alcotest.failf "resistance not on rail: %f * %f vs %f" values.(j)
                  m r_rail.(j))
            (T.to_array omega_mult))
        [ layer.Pnn.Layer.act; layer.Pnn.Layer.neg ]
        [ ln.Pnn.Noise.act_omega; ln.Pnn.Noise.neg_omega ])
    (Pnn.Network.layers net) noise

let test_defects_all_open () =
  check_all_stuck ~p_open:1.0 ~p_short:0.0 ~rail:config.C.g_min ()

let test_defects_all_short () =
  check_all_stuck ~p_open:0.0 ~p_short:1.0 ~rail:config.C.g_max ()

(* {1 Compose} *)

let test_compose_is_sequential_product () =
  let m1 = V.Uniform 0.1 and m2 = V.Gaussian 0.05 in
  let composed = V.draw (Rng.create 21) (V.Compose [ m1; m2 ]) ctx in
  let rng = Rng.create 21 in
  let a = V.draw rng m1 ctx in
  let b = V.draw rng m2 ctx in
  let manual =
    List.map2
      (fun (x : Pnn.Noise.layer_noise) (y : Pnn.Noise.layer_noise) ->
        {
          Pnn.Noise.theta = T.mul x.Pnn.Noise.theta y.Pnn.Noise.theta;
          act_omega = T.mul x.Pnn.Noise.act_omega y.Pnn.Noise.act_omega;
          neg_omega = T.mul x.Pnn.Noise.neg_omega y.Pnn.Noise.neg_omega;
        })
      a b
  in
  check_noise_equal "compose = product of in-order draws" manual composed

let test_compose_empty_is_ones () =
  iter_values
    (fun v -> Alcotest.(check (float 0.0)) "exact one" 1.0 v)
    (V.draw (Rng.create 1) (V.Compose []) ctx)

(* {1 Aging} *)

let aging t_frac = V.Aging { kappa_max = 0.2; beta = 0.5; t_frac }

(* A lifetime draw ([t_frac = None]) first draws its life fraction, then
   draws exactly what a fixed-t draw at that fraction would. *)
let test_aging_lifetime_draws_t_first () =
  let rng = Rng.create 4 in
  let t = Rng.float rng in
  check_noise_equal "same draw" (V.draw rng (aging (Some t)) ctx)
    (V.draw (Rng.create 4) (aging None) ctx)

let test_aging_t_zero_is_ones () =
  iter_values
    (fun v -> Alcotest.(check (float 0.0)) "exact one" 1.0 v)
    (V.draw (Rng.create 5)
       (V.Aging { kappa_max = 0.2; beta = 0.5; t_frac = Some 0.0 })
       ctx)

(* {1 Validation} *)

let test_validate_rejects () =
  let invalid =
    [
      ("uniform high", V.Uniform 1.0);
      ("uniform negative", V.Uniform (-0.1));
      ("gaussian negative", V.Gaussian (-1.0));
      ("gaussian nan", V.Gaussian Float.nan);
      ("correlated high", V.Correlated { global = 1.0; local = 0.0 });
      ("defects sum", V.Defects { p_open = 0.7; p_short = 0.5 });
      ("defects negative", V.Defects { p_open = -0.1; p_short = 0.0 });
      ("aging kappa", V.Aging { kappa_max = 1.0; beta = 0.5; t_frac = None });
      ("aging beta", V.Aging { kappa_max = 0.2; beta = 0.0; t_frac = None });
      ("aging t", V.Aging { kappa_max = 0.2; beta = 0.5; t_frac = Some 1.5 });
      ("nested in compose", V.Compose [ V.Uniform 0.1; V.Uniform 2.0 ]);
    ]
  in
  List.iter
    (fun (label, model) ->
      match V.validate model with
      | exception Invalid_argument _ -> ()
      | () -> Alcotest.failf "%s: expected Invalid_argument" label)
    invalid

(* One NaN per field: every range check must reject it. *)
let test_validate_rejects_nan () =
  let nan = Float.nan in
  List.iter
    (fun (label, model) ->
      match V.validate model with
      | exception Invalid_argument _ -> ()
      | () -> Alcotest.failf "%s: NaN accepted" label)
    [
      ("uniform epsilon", V.Uniform nan);
      ("gaussian sigma", V.Gaussian nan);
      ("correlated global", V.Correlated { global = nan; local = 0.1 });
      ("correlated local", V.Correlated { global = 0.1; local = nan });
      ("defects p_open", V.Defects { p_open = nan; p_short = 0.1 });
      ("defects p_short", V.Defects { p_open = 0.1; p_short = nan });
      ("aging kappa_max", V.Aging { kappa_max = nan; beta = 0.5; t_frac = None });
      ("aging beta", V.Aging { kappa_max = 0.2; beta = nan; t_frac = None });
      ("aging t_frac", V.Aging { kappa_max = 0.2; beta = 0.5; t_frac = Some nan });
      ("inside compose", V.Compose [ V.Uniform 0.1; V.Uniform nan ]);
    ];
  Alcotest.check_raises "Noise.draw" (Invalid_argument "Noise.draw: epsilon outside [0,1)")
    (fun () -> ignore (Pnn.Noise.draw (Rng.create 1) ~epsilon:nan ~theta_shapes:shapes))

(* Each documented range edge is accepted, and the next float past it is
   rejected: open bounds at 1 for ε, the correlated magnitudes and κ_max,
   closed bounds at 0 and at 1 for the defect sum and t_frac, σ finite. *)
let test_validate_range_edges () =
  let below_one = Float.pred 1.0 in
  let accepted =
    [
      ("uniform 0", V.Uniform 0.0);
      ("uniform -0", V.Uniform (-0.0));
      ("uniform below 1", V.Uniform below_one);
      ("gaussian 0", V.Gaussian 0.0);
      ("gaussian max_float", V.Gaussian Float.max_float);
      ("correlated 0", V.Correlated { global = 0.0; local = 0.0 });
      ("correlated below 1", V.Correlated { global = below_one; local = below_one });
      ("defects sum 1", V.Defects { p_open = 0.5; p_short = 0.5 });
      ("defects all open", V.Defects { p_open = 1.0; p_short = 0.0 });
      ("defects all short", V.Defects { p_open = 0.0; p_short = 1.0 });
      ("aging kappa 0", V.Aging { kappa_max = 0.0; beta = 0.5; t_frac = None });
      ("aging kappa below 1", V.Aging { kappa_max = below_one; beta = 0.5; t_frac = None });
      ("aging tiny beta", V.Aging { kappa_max = 0.2; beta = Float.min_float; t_frac = None });
      ("aging t 0", aging (Some 0.0));
      ("aging t 1", aging (Some 1.0));
      ("empty compose", V.Compose []);
      ("nested compose", V.Compose [ V.Compose [ V.Uniform 0.1 ]; V.Gaussian 0.0 ]);
    ]
  in
  List.iter
    (fun (label, model) ->
      match V.validate model with
      | () -> ()
      | exception Invalid_argument msg -> Alcotest.failf "%s: rejected (%s)" label msg)
    accepted;
  let rejected =
    [
      ("uniform below -0", V.Uniform (-.Float.min_float));
      ("gaussian inf", V.Gaussian Float.infinity);
      ("correlated local 1", V.Correlated { global = 0.0; local = 1.0 });
      ("correlated local below 0", V.Correlated { global = 0.0; local = -.Float.min_float });
      (* the sum is the float after 1, exactly *)
      ("defects sum above 1", V.Defects { p_open = Float.succ 0.5; p_short = Float.succ 0.5 });
      ("defects open above 1", V.Defects { p_open = Float.succ 1.0; p_short = 0.0 });
      ("aging kappa below 0", V.Aging { kappa_max = -.Float.min_float; beta = 0.5; t_frac = None });
      ("aging beta -0", V.Aging { kappa_max = 0.2; beta = -0.0; t_frac = None });
      ("aging beta -inf", V.Aging { kappa_max = 0.2; beta = Float.neg_infinity; t_frac = None });
      ("aging t above 1", aging (Some (Float.succ 1.0)));
      ("aging t below 0", aging (Some (-.Float.min_float)));
    ]
  in
  List.iter
    (fun (label, model) ->
      match V.validate model with
      | exception Invalid_argument _ -> ()
      | () -> Alcotest.failf "%s: expected Invalid_argument" label)
    rejected

(* [draw], [draw_many] and [mc_draws] validate the whole model before they
   draw, so an invalid model raises with the caller's stream untouched —
   also when a composition's invalid part comes after a valid one that
   would otherwise have drawn first. *)
let test_invalid_model_consumes_nothing () =
  let invalid =
    [
      ("uniform 1", V.Uniform 1.0);
      ("bad second component", V.Compose [ V.Uniform 0.1; V.Gaussian (-1.0) ]);
      ("bad nested t", V.Compose [ V.Gaussian 0.05; V.Compose [ aging (Some 2.0) ] ]);
    ]
  in
  let entry_points =
    [
      ("draw", fun rng model -> ignore (V.draw rng model ctx));
      ("draw_many", fun rng model -> ignore (V.draw_many rng model ctx ~n:3));
      ("draw_many 0", fun rng model -> ignore (V.draw_many rng model ctx ~n:0));
      ("mc_draws", fun rng model -> ignore (V.mc_draws rng model ctx ~n:3));
    ]
  in
  List.iter
    (fun (entry, run) ->
      List.iter
        (fun (label, model) ->
          let rng = Rng.create 21 in
          (match run rng model with
          | exception Invalid_argument _ -> ()
          | () -> Alcotest.failf "%s %s: expected Invalid_argument" entry label);
          Alcotest.(check int64)
            (Printf.sprintf "%s %s: stream untouched" entry label)
            (Rng.uint64 (Rng.create 21)) (Rng.uint64 rng))
        invalid)
    entry_points

(* {1 Rng convention: split}

   Regression for the aging-aware training bug where the training stream
   aliased the caller's: a derived stream must not replay the caller's
   continuation. *)

let test_split_does_not_alias () =
  let rng = Rng.create 7 in
  let derived = Rng.split rng in
  Alcotest.(check bool) "split stream differs from caller continuation" false
    (Rng.uint64 derived = Rng.uint64 rng)

let tiny_data () =
  let data =
    Datasets.Synth.generate
      {
        Datasets.Synth.name = "blob";
        features = 3;
        classes = 2;
        samples = 80;
        modes_per_class = 1;
        class_sep = 0.3;
        spread = 0.06;
        label_noise = 0.0;
        priors = None;
        seed = 31;
      }
  in
  let split = Datasets.Synth.split (Rng.create 8) data in
  (split, Pnn.Training.of_split ~n_classes:2 split)

let tiny_config =
  { config with C.max_epochs = 5; patience = 5; n_mc_train = 2; n_mc_val = 2 }

let test_fit_model_consumes_two_splits () =
  let _, tdata = tiny_data () in
  let net =
    Pnn.Network.create (Rng.create 4) tiny_config (Lazy.force surrogate) ~inputs:3
      ~outputs:2
  in
  let rng = Rng.create 99 in
  let _ = Pnn.Training.fit ~model:(aging None) rng net tdata in
  (* the caller's generator must have advanced by exactly two splits — its
     continuation is independent of the training/validation noise streams *)
  let reference = Rng.create 99 in
  ignore (Rng.split reference);
  ignore (Rng.split reference);
  Alcotest.(check int64) "rng advanced by exactly two splits" (Rng.uint64 reference)
    (Rng.uint64 rng)

let test_model_streams_not_aliased () =
  let rng = Rng.create 99 in
  let train_rng = Rng.split rng in
  let val_rng = Rng.split rng in
  let caller_next = Rng.uint64 rng in
  Alcotest.(check bool) "train stream independent of caller" false
    (Rng.uint64 train_rng = caller_next);
  Alcotest.(check bool) "val stream independent of caller" false
    (Rng.uint64 val_rng = caller_next)

(* {1 Monte-Carlo evaluation under a model} *)

let eval_fixture () =
  let net = make_net ~inputs:3 ~outputs:2 () in
  let x = T.uniform (Rng.create 2) 12 3 ~lo:0.0 ~hi:1.0 in
  let y = Array.init 12 (fun i -> i mod 2) in
  (net, x, y)

let test_mc_accuracy_stats () =
  let net, x, y = eval_fixture () in
  let r = Pnn.Evaluation.mc_accuracy (Rng.create 5) net ~model:(V.Uniform 0.05) ~n:12 ~x ~y in
  Alcotest.(check int) "12 draws" 12 (Array.length r.Pnn.Evaluation.accuracies);
  let open Pnn.Evaluation in
  Alcotest.(check bool) "quantiles ordered" true
    (r.min <= r.q05 && r.q05 <= r.median && r.median <= r.q95);
  Alcotest.(check bool) "mean within range" true (r.mean >= r.min && r.mean <= 1.0);
  Alcotest.(check bool) "std >= 0" true (r.std >= 0.0)

let test_mc_accuracy_invalid () =
  let net, x, y = eval_fixture () in
  Alcotest.check_raises "n" (Invalid_argument "Evaluation.mc_accuracy: n < 1")
    (fun () ->
      ignore (Pnn.Evaluation.mc_accuracy (Rng.create 1) net ~model:(V.Uniform 0.1) ~n:0 ~x ~y));
  Alcotest.check_raises "model" (Invalid_argument "Variation: Uniform epsilon outside [0,1)")
    (fun () ->
      ignore (Pnn.Evaluation.mc_accuracy (Rng.create 1) net ~model:(V.Uniform 1.5) ~n:4 ~x ~y))

(* {1 The nominal rule}

   [Uniform 0.] — and only it — is nominal: one all-ones draw, nothing
   consumed.  Models whose draws merely come out all ones still draw [n]
   times from their stream. *)

let zero_draw_models =
  [
    ("gaussian 0", V.Gaussian 0.0);
    ("defects at rate 0", V.Defects { p_open = 0.0; p_short = 0.0 });
    ("aging at t=0", aging (Some 0.0));
    ("empty compose", V.Compose []);
  ]

let test_nominal_single_draw () =
  let net, x, y = eval_fixture () in
  List.iter
    (fun epsilon ->
      let rng = Rng.create 5 in
      let r = Pnn.Evaluation.mc_accuracy rng net ~model:(V.Uniform epsilon) ~n:9 ~x ~y in
      Alcotest.(check int) "one accuracy" 1 (Array.length r.Pnn.Evaluation.accuracies);
      Alcotest.(check int64) "stream untouched" (Rng.uint64 (Rng.create 5)) (Rng.uint64 rng);
      Alcotest.(check bool) "nominal" true (V.nominal (V.Uniform epsilon)))
    [ 0.0; -0.0 ]

let test_zero_draw_models_keep_n () =
  let net, x, y = eval_fixture () in
  let vctx = V.ctx_of_network net in
  List.iter
    (fun (label, model) ->
      Alcotest.(check bool) (label ^ " not nominal") false (V.nominal model);
      let r = Pnn.Evaluation.mc_accuracy (Rng.create 5) net ~model ~n:9 ~x ~y in
      Alcotest.(check int) (label ^ " n accuracies") 9 (Array.length r.Pnn.Evaluation.accuracies);
      Alcotest.(check int) (label ^ " n draws") 3
        (List.length (V.mc_draws (Rng.create 5) model vctx ~n:3)))
    zero_draw_models;
  (* the draws consume the stream (the empty compose has nothing to draw) *)
  List.iter
    (fun (label, model) ->
      let rng = Rng.create 5 in
      ignore (V.mc_draws rng model vctx ~n:3);
      Alcotest.(check bool) (label ^ " consumes its stream") false
        (Int64.equal (Rng.uint64 (Rng.create 5)) (Rng.uint64 rng)))
    (List.filter (fun (l, _) -> l <> "empty compose") zero_draw_models)

(* [fit ~model:(Uniform 0.)] trains exactly as nominal training does: one
   all-ones draw per epoch and one for validation, however large
   [n_mc_train] and [n_mc_val] are. *)
let test_fit_nominal_model_one_draw () =
  let _, tdata = tiny_data () in
  let config = { tiny_config with C.n_mc_train = 3; n_mc_val = 3 } in
  let run ?model () =
    let net =
      Pnn.Network.create (Rng.create 4) config (Lazy.force surrogate) ~inputs:3 ~outputs:2
    in
    let rng = Rng.create 6 in
    let result = Pnn.Training.fit ?model rng net tdata in
    (Pnn.Training.result_lines result, Rng.uint64 rng)
  in
  let nominal_lines, nominal_next = run () in
  let model_lines, _ = run ~model:(V.Uniform 0.0) () in
  Alcotest.(check (list string)) "same run as nominal training" nominal_lines model_lines;
  Alcotest.(check int64) "nominal fit takes no split" (Rng.uint64 (Rng.create 6)) nominal_next

(* {1 Determinism: 1 worker vs 4 workers, bit-identical, all families} *)

let family_models =
  [
    ("uniform", V.Uniform 0.08);
    ("gaussian", V.Gaussian 0.05);
    ("correlated", V.Correlated { global = 0.05; local = 0.05 });
    ("defects", V.Defects { p_open = 0.05; p_short = 0.02 });
  ]

let test_pool_size_bit_identity () =
  let net, x, y = eval_fixture () in
  let pool1 = Parallel.Pool.create ~jobs:1 () in
  let pool4 = Parallel.Pool.create ~jobs:4 () in
  Fun.protect
    ~finally:(fun () ->
      Parallel.Pool.shutdown pool1;
      Parallel.Pool.shutdown pool4)
    (fun () ->
      List.iter
        (fun (label, model) ->
          let run pool =
            Pnn.Evaluation.mc_accuracy ~pool (Rng.create 77) net ~model ~n:8 ~x ~y
          in
          let r1 = run pool1 and r4 = run pool4 in
          Alcotest.(check (array int64))
            (label ^ " bit-identical across pool sizes")
            (Array.map Int64.bits_of_float r1.Pnn.Evaluation.accuracies)
            (Array.map Int64.bits_of_float r4.Pnn.Evaluation.accuracies))
        family_models)

(* {1 Variation-aware training under every family} *)

let test_fit_all_families () =
  let _, tdata = tiny_data () in
  List.iter
    (fun (label, model) ->
      let net =
        Pnn.Network.create (Rng.create 4) tiny_config (Lazy.force surrogate) ~inputs:3
          ~outputs:2
      in
      let result = Pnn.Training.fit ~model (Rng.create 6) net tdata in
      Alcotest.(check bool) (label ^ " finite val loss") true
        (Float.is_finite result.Pnn.Training.val_loss))
    family_models

(* {1 draw_many is n draws in order} *)

(* [draw_many ~n] yields exactly the draws of [n] successive [draw] calls on
   the same stream, for every family (Defects against a network context),
   and leaves the stream where they leave it; [n = 0] draws nothing. *)
let test_draw_many_is_sequential () =
  let net, _, _ = eval_fixture () in
  let vctx = V.ctx_of_network net in
  List.iter
    (fun (label, model) ->
      let rng_many = Rng.create 31 and rng_one = Rng.create 31 in
      let many = V.draw_many rng_many model vctx ~n:3 in
      let d0 = V.draw rng_one model vctx in
      let d1 = V.draw rng_one model vctx in
      let d2 = V.draw rng_one model vctx in
      Alcotest.(check int) (label ^ " three draws") 3 (List.length many);
      List.iteri
        (fun i (a, b) -> check_noise_equal (Printf.sprintf "%s draw %d" label i) b a)
        (List.combine many [ d0; d1; d2 ]);
      Alcotest.(check int64) (label ^ " same stream after") (Rng.uint64 rng_one)
        (Rng.uint64 rng_many);
      let rng_none = Rng.create 31 in
      Alcotest.(check int) (label ^ " n=0 is empty") 0
        (List.length (V.draw_many rng_none model vctx ~n:0));
      Alcotest.(check int64) (label ^ " n=0 consumes nothing") (Rng.uint64 (Rng.create 31))
        (Rng.uint64 rng_none))
    (family_models
    @ [
        ("aging lifetime", aging None);
        ("compose", V.Compose [ V.Uniform 0.05; V.Defects { p_open = 0.02; p_short = 0.0 } ]);
      ])

(* {1 Faults experiment (micro scale)} *)

let test_faults_experiment_smoke () =
  let scale =
    {
      Experiments.Setup.seeds = [ 1 ];
      test_epsilons = [ 0.1 ];
      n_mc_test = 4;
      config = tiny_config;
      init = `Centered;
      surrogate_samples = 0;
      surrogate_epochs = 0;
    }
  in
  let t = Experiments.Faults.run ~epsilon:0.1 scale (Lazy.force surrogate) in
  Alcotest.(check int) "5 train arms" 5 (List.length t.Experiments.Faults.train_arms);
  Alcotest.(check int) "grid = 5 arms x 4 families" 20
    (List.length t.Experiments.Faults.grid);
  let header, rows = Experiments.Faults.to_csv_rows t in
  Alcotest.(check int) "csv columns" 10 (List.length header);
  Alcotest.(check int) "csv rows: grid + two sweeps" (20 + 25 + 25) (List.length rows);
  let rendered = Experiments.Faults.render t in
  Alcotest.(check bool) "render mentions defects" true
    (let needle = "defects" in
     let nl = String.length needle and hl = String.length rendered in
     let rec go i = i + nl <= hl && (String.sub rendered i nl = needle || go (i + 1)) in
     go 0)

(* {1 Pins}

   [%h] digests of the Monte-Carlo evaluator and the variation-aware
   training entry, written before the two evaluators and the two training
   entries were merged.  The adapters below are the only lines that name
   the API. *)

let with_temp_dir f =
  let dir = Filename.temp_file "pnnvar" "" in
  Sys.remove dir;
  Fun.protect
    ~finally:(fun () -> ignore (Sys.command ("rm -rf " ^ Filename.quote dir)))
    (fun () -> f dir)

let hex_digest floats = Cache.digest_lines (List.map (Printf.sprintf "%h") floats)

(* mean, std and the per-draw accuracies of a uniform-ε evaluation *)
let pin_mc ?cache rng net ~epsilon ~n ~x ~y =
  let r = Pnn.Evaluation.mc_accuracy ?cache rng net ~model:(V.Uniform epsilon) ~n ~x ~y in
  Pnn.Evaluation.(r.mean :: r.std :: Array.to_list r.accuracies)

(* every summary field, then the per-draw accuracies *)
let pin_mc_model rng net ~model ~n ~x ~y =
  let r = Pnn.Evaluation.mc_accuracy rng net ~model ~n ~x ~y in
  Pnn.Evaluation.([ r.mean; r.std; r.min; r.q05; r.median; r.q95 ] @ Array.to_list r.accuracies)

let pin_fit ?checkpoint ?model rng net data = Pnn.Training.fit ?checkpoint ?model rng net data

let pin_aging t_frac = V.Aging { kappa_max = 0.2; beta = 0.5; t_frac }

(* A network trained on three overlapping classes: its accuracy moves from
   draw to draw, so the digests see every draw. *)
let pin_fixture =
  lazy
    (let data =
       Datasets.Synth.generate
         {
           Datasets.Synth.name = "overlap";
           features = 3;
           classes = 3;
           samples = 150;
           modes_per_class = 1;
           class_sep = 0.12;
           spread = 0.12;
           label_noise = 0.0;
           priors = None;
           seed = 32;
         }
     in
     let split = Datasets.Synth.split (Rng.create 8) data in
     let tdata = Pnn.Training.of_split ~n_classes:3 split in
     let net =
       Pnn.Network.create (Rng.create 4) { tiny_config with C.max_epochs = 40; patience = 40 }
         (Lazy.force surrogate) ~inputs:3 ~outputs:3
     in
     ignore (Pnn.Training.fit (Rng.create 6) net tdata);
     (net, split.Datasets.Synth.x_train, split.Datasets.Synth.y_train))

let test_pin_mc_uniform () =
  let net, x, y = Lazy.force pin_fixture in
  List.iter
    (fun (epsilon, expect) ->
      with_temp_dir (fun dir ->
          let cache = (Cache.create ~dir, "pin") in
          let run () = hex_digest (pin_mc ~cache (Rng.create 5) net ~epsilon ~n:12 ~x ~y) in
          let label = Printf.sprintf "eps %g" epsilon in
          Alcotest.(check string) (label ^ " cold") expect (run ());
          Alcotest.(check string) (label ^ " cache hit") expect (run ());
          Alcotest.(check string) (label ^ " no cache") expect
            (hex_digest (pin_mc (Rng.create 5) net ~epsilon ~n:12 ~x ~y))))
    [
      (0.0, "d1073e124a3bec058c3764537c999753");
      (0.05, "4cddc47e2cb6394fb77d9eb8bdf126b9");
    ]

let test_pin_mc_model () =
  let net, x, y = Lazy.force pin_fixture in
  List.iter
    (fun (label, model, expect) ->
      Alcotest.(check string) label expect
        (hex_digest (pin_mc_model (Rng.create 77) net ~model ~n:8 ~x ~y)))
    [
      ("uniform", V.Uniform 0.08, "27617bef035564a294e0f2b05a457757");
      ("gaussian", V.Gaussian 0.05, "b679c3708ed327999b9aaac423761973");
      ("gaussian 0", V.Gaussian 0.0, "eda781b7130b58ce63087851000a1bd5");
      ( "correlated",
        V.Correlated { global = 0.05; local = 0.05 },
        "f93d302aeb42bc17c93333ee75deb937" );
      ( "defects",
        V.Defects { p_open = 0.05; p_short = 0.02 },
        "3d5b21bd9aa7b9a9674e83d22618c2a7" );
      ( "defects 0",
        V.Defects { p_open = 0.0; p_short = 0.0 },
        "eda781b7130b58ce63087851000a1bd5" );
      ("aging t=0.5", pin_aging (Some 0.5), "d02bd7219c0a26db83db5a172cc1a96b");
      ("aging t=0", pin_aging (Some 0.0), "eda781b7130b58ce63087851000a1bd5");
      ( "compose",
        V.Compose [ V.Uniform 0.05; V.Defects { p_open = 0.02; p_short = 0.01 } ],
        "483773f00426bcd269c40afee3452afc" );
    ]

(* The result lines and the checkpoint written after the last epoch. *)
let pin_fit_digests ?model config =
  let _, tdata = tiny_data () in
  let net =
    Pnn.Network.create (Rng.create 4) config (Lazy.force surrogate) ~inputs:3 ~outputs:2
  in
  with_temp_dir (fun dir ->
      Sys.mkdir dir 0o755;
      let ckpt_path = Filename.concat dir "ck.pce" in
      let checkpoint =
        { Pnn.Training.ckpt_path; every = 1; interrupt_after = None }
      in
      let rng = Rng.create 6 in
      let result = pin_fit ~checkpoint ?model rng net tdata in
      let ckpt =
        match Cache.Blob.read ~tag:"ckpt" ckpt_path with
        | Cache.Blob.Valid lines -> lines
        | Cache.Blob.Corrupt | Cache.Blob.Missing -> Alcotest.fail "no checkpoint written"
      in
      ( Cache.digest_lines (Pnn.Training.result_lines result),
        Cache.digest_lines ckpt,
        List.nth ckpt 1,
        Rng.uint64 rng ))

let check_fit_pin label ?model config (result, ckpt, rng_line, next) =
  let r, c, l, n = pin_fit_digests ?model config in
  Alcotest.(check string) (label ^ " result") result r;
  Alcotest.(check string) (label ^ " checkpoint") ckpt c;
  Alcotest.(check string) (label ^ " saved rng") rng_line l;
  Alcotest.(check int64) (label ^ " caller rng after") next n

let test_pin_fit () =
  check_fit_pin "nominal fit" tiny_config
    ( "0a4ca66394223291d7ff46d832114fac",
      "2edb0c53e533800c9acc1b01ca3974ff",
      "rng bd64a5d9adefe000 72419db23951df99 e6c7d0372aa2f46 1b049812edd0da90",
      -4297513723286326395L );
  check_fit_pin "eps 0.05 fit" { tiny_config with C.epsilon = 0.05 }
    ( "a51793faa70f4967d96730794d539636",
      "bf944c3781bb67411352c63849f8a003",
      "rng fbff4b05d69cdf9 8b5215cfa59cacb9 d00c2e9ea396c7b7 d7dace724f95b2ea",
      -5266185646733638212L );
  check_fit_pin "aging fit" ~model:(pin_aging None) tiny_config
    ( "6beff0bf695e3a2476f32f0688a5b641",
      "c953fa6171acfa07e1d89ae2878371bb",
      "rng 41e55e0a3792cd60 6c639c8274c029a e5016d342cda7e75 e4785db35550bbe2",
      -2235269297760524216L );
  check_fit_pin "compose fit"
    ~model:(V.Compose [ V.Uniform 0.05; V.Defects { p_open = 0.02; p_short = 0.01 } ])
    tiny_config
    ( "19f165842d256262ed4801f1ac6cd43d",
      "2037795800c55b0158b7952237f91334",
      "rng 77a327e5b9e6398a 79aa2a2eff2b8389 4a72b3c3b4ee60d8 1aed38e8ef56b77a",
      -2235269297760524216L )

let () =
  Alcotest.run "variation"
    [
      ( "uniform",
        [
          Alcotest.test_case "stream identity with Noise.draw" `Quick
            test_uniform_stream_identity;
          Alcotest.test_case "eps=0 exact ones" `Quick test_uniform_zero_is_ones;
        ] );
      ( "gaussian",
        [
          Alcotest.test_case "bounds and mean" `Quick test_gaussian_bounds_and_mean;
          Alcotest.test_case "sigma=0 exact ones" `Quick test_gaussian_zero_sigma_is_ones;
        ] );
      ( "correlated",
        [
          Alcotest.test_case "local=0 constant per tensor" `Quick
            test_correlated_local_zero_constant_per_tensor;
          Alcotest.test_case "zero magnitudes exact ones" `Quick test_correlated_zero_is_ones;
        ] );
      ( "defects",
        [
          Alcotest.test_case "requires network ctx" `Quick test_defects_need_network_ctx;
          Alcotest.test_case "zero rate is ones" `Quick test_defects_zero_rate_is_ones;
          Alcotest.test_case "all open -> g_min rail" `Quick test_defects_all_open;
          Alcotest.test_case "all short -> g_max rail" `Quick test_defects_all_short;
        ] );
      ( "compose",
        [
          Alcotest.test_case "sequential product" `Quick test_compose_is_sequential_product;
          Alcotest.test_case "empty is ones" `Quick test_compose_empty_is_ones;
        ] );
      ( "aging",
        [
          Alcotest.test_case "lifetime draws t first" `Quick
            test_aging_lifetime_draws_t_first;
          Alcotest.test_case "t=0 exact ones" `Quick test_aging_t_zero_is_ones;
        ] );
      ( "validation",
        [
          Alcotest.test_case "rejects bad parameters" `Quick test_validate_rejects;
          Alcotest.test_case "rejects NaN in every field" `Quick test_validate_rejects_nan;
          Alcotest.test_case "range edges" `Quick test_validate_range_edges;
          Alcotest.test_case "invalid model consumes nothing" `Quick
            test_invalid_model_consumes_nothing;
        ] );
      ( "nominal",
        [
          Alcotest.test_case "Uniform 0 takes one draw" `Quick test_nominal_single_draw;
          Alcotest.test_case "all-ones models keep n draws" `Quick
            test_zero_draw_models_keep_n;
          Alcotest.test_case "fit ~model:(Uniform 0) is nominal training" `Quick
            test_fit_nominal_model_one_draw;
        ] );
      ( "rng-convention",
        [
          Alcotest.test_case "split does not alias" `Quick test_split_does_not_alias;
          Alcotest.test_case "fit ~model consumes two splits" `Quick
            test_fit_model_consumes_two_splits;
          Alcotest.test_case "derived streams not aliased" `Quick
            test_model_streams_not_aliased;
        ] );
      ( "evaluation",
        [
          Alcotest.test_case "mc_accuracy stats" `Quick test_mc_accuracy_stats;
          Alcotest.test_case "mc_accuracy invalid" `Quick test_mc_accuracy_invalid;
          Alcotest.test_case "pool-size bit-identity (all families)" `Quick
            test_pool_size_bit_identity;
        ] );
      ( "training",
        [
          Alcotest.test_case "fit ~model all families" `Quick test_fit_all_families;
        ] );
      ( "draws",
        [
          Alcotest.test_case "draw_many is n draws in order" `Quick
            test_draw_many_is_sequential;
        ] );
      ( "pins",
        [
          Alcotest.test_case "mc uniform cold and cached" `Quick test_pin_mc_uniform;
          Alcotest.test_case "mc every family" `Quick test_pin_mc_model;
          Alcotest.test_case "fit with checkpoint" `Quick test_pin_fit;
        ] );
      ( "experiment",
        [
          Alcotest.test_case "faults smoke" `Quick test_faults_experiment_smoke;
        ] );
    ]
