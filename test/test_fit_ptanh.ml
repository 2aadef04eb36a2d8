(* Tests for ptanh curve fitting (paper Eq. 2 / Eq. 3). *)

open Fit

let linspace lo hi n =
  Array.init n (fun i -> lo +. ((hi -. lo) *. float_of_int i /. float_of_int (n - 1)))

let eta a b c d = { Ptanh.eta1 = a; eta2 = b; eta3 = c; eta4 = d }

let test_eval () =
  let e = eta 0.5 0.4 0.3 6.0 in
  Alcotest.(check (float 1e-12)) "at center" 0.5 (Ptanh.eval e 0.3)

let test_eta_array_roundtrip () =
  let e = eta 0.1 0.2 0.3 0.4 in
  Alcotest.(check (array (float 0.0)))
    "roundtrip" [| 0.1; 0.2; 0.3; 0.4 |]
    (Ptanh.eta_to_array (Ptanh.eta_of_array (Ptanh.eta_to_array e)))

let test_eta_of_array_invalid () =
  Alcotest.check_raises "len" (Invalid_argument "Ptanh.eta_of_array: need 4 values")
    (fun () -> ignore (Ptanh.eta_of_array [| 1.0 |]))

let recover_exact e =
  let vin = linspace 0.0 1.0 41 in
  let vout = Array.map (Ptanh.eval e) vin in
  let r = Ptanh.fit ~vin ~vout in
  Alcotest.(check bool)
    (Printf.sprintf "rmse tiny for eta=[%.2f %.2f %.2f %.2f]" e.Ptanh.eta1 e.Ptanh.eta2
       e.Ptanh.eta3 e.Ptanh.eta4)
    true (r.Ptanh.rmse < 1e-6);
  (* the recovered curve must match pointwise even if the parameterization is
     ambiguous (tanh has a sign symmetry) *)
  Array.iteri
    (fun i v ->
      let fitted = Ptanh.eval r.Ptanh.eta v in
      if Float.abs (fitted -. vout.(i)) > 1e-5 then
        Alcotest.failf "pointwise mismatch at %f: %f vs %f" v fitted vout.(i))
    vin

let test_recover_known_curves () =
  List.iter recover_exact
    [
      eta 0.5 0.4 0.3 6.0;
      eta 0.55 0.35 0.5 3.0;
      eta 0.4 0.3 0.7 10.0;
      eta 0.6 (-0.3) 0.4 5.0;
      (* falling curve *)
      eta 0.9 0.05 0.2 2.0;
      (* small amplitude *)
    ]

let test_recover_with_noise () =
  let e = eta 0.5 0.4 0.35 7.0 in
  let rng = Rng.create 5 in
  let vin = linspace 0.0 1.0 41 in
  let vout = Array.map (fun v -> Ptanh.eval e v +. Rng.gaussian rng ~mu:0.0 ~sigma:0.005) vin in
  let r = Ptanh.fit ~vin ~vout in
  Alcotest.(check bool) "rmse near noise floor" true (r.Ptanh.rmse < 0.01);
  Alcotest.(check bool) "eta4 in range" true (Float.abs (r.Ptanh.eta.Ptanh.eta4) < 20.0)

let test_fit_validations () =
  Alcotest.check_raises "length mismatch" (Invalid_argument "Ptanh.fit: length mismatch")
    (fun () -> ignore (Ptanh.fit ~vin:[| 0.0; 1.0 |] ~vout:[| 0.0 |]));
  Alcotest.check_raises "too few points"
    (Invalid_argument "Ptanh.fit: need at least 5 points") (fun () ->
      ignore (Ptanh.fit ~vin:[| 0.0; 0.5; 1.0 |] ~vout:[| 0.0; 0.5; 1.0 |]))

let test_fit_simulated_circuit () =
  (* integration: the design-space centre circuit fits with a small residual *)
  let omega = [| 255.0; 127.0; 255e3; 127e3; 255e3; 500.0; 40.0 |] in
  let vin, vout = Circuit.Ptanh_circuit.transfer (Circuit.Ptanh_circuit.omega_of_array omega) in
  let r = Ptanh.fit ~vin ~vout in
  Alcotest.(check bool) "rmse < 10 mV" true (r.Ptanh.rmse < 0.01);
  Alcotest.(check bool) "rising fit" true (r.Ptanh.eta.Ptanh.eta2 *. r.Ptanh.eta.Ptanh.eta4 > 0.0)

(* The ptanh residuals and Jacobian rows as the callbacks of the generic
   solver in test/lm.ml, the oracle [Ptanh.fit] is compared with below. *)
let oracle_problem ~vin ~vout =
  let n = Array.length vin in
  Lm.problem ~n_params:4 ~n_residuals:n
    ~residuals:(fun p r th ->
      for i = 0 to n - 1 do
        let t = Fmath.tanh ((vin.(i) -. p.(2)) *. p.(3)) in
        th.(i) <- t;
        r.(i) <- p.(0) +. (p.(1) *. t) -. vout.(i)
      done)
    ~jacobian_row:(fun p th i row ->
      let t = th.(i) in
      let sech2 = 1.0 -. (t *. t) in
      row.(0) <- 1.0;
      row.(1) <- t;
      row.(2) <- -.(p.(1) *. sech2 *. p.(3));
      row.(3) <- p.(1) *. sech2 *. (vin.(i) -. p.(2)))

let test_jacobian_matches_finite_differences () =
  (* Two copies of the analytic rows against central differences of the
     residuals at random η: [Ptanh.jacobian], which recomputes each tanh,
     and the oracle's rows built from the residual pass's cached tanh
     values.  [Ptanh.fit] streams the oracle's rows inline (it never
     materialises J), and the oracle tests below pin it to them bit for
     bit. *)
  let rng = Rng.create 17 in
  let vin = linspace 0.0 1.0 41 in
  let vout = Array.map (Ptanh.eval (eta 0.5 0.4 0.3 6.0)) vin in
  for trial = 1 to 25 do
    let p =
      [|
        Rng.uniform rng ~lo:(-1.0) ~hi:1.0;
        Rng.uniform rng ~lo:(-1.0) ~hi:1.0;
        Rng.uniform rng ~lo:0.0 ~hi:1.0;
        Rng.uniform rng ~lo:0.5 ~hi:15.0;
      |]
    in
    let numeric =
      Lm.numerical_jacobian ~n_residuals:(Array.length vin)
        (fun p -> Ptanh.residuals ~vin ~vout (Ptanh.eta_of_array p))
        p
    in
    List.iter
      (fun (which, analytic) ->
        Array.iteri
          (fun i row ->
            Array.iteri
              (fun j a ->
                let d = numeric.(i).(j) in
                if Float.abs (a -. d) > 1e-6 *. Float.max 1.0 (Float.abs a) then
                  Alcotest.failf "trial %d, %s: dr_%d/dη%d analytic %g vs finite difference %g"
                    trial which i (j + 1) a d)
              row)
          analytic)
      [
        ("Ptanh.jacobian", Ptanh.jacobian ~vin (Ptanh.eta_of_array p));
        ("oracle rows", Lm.jacobian (oracle_problem ~vin ~vout) p);
      ]
  done

let qcheck_fit_recovers_function =
  QCheck.Test.make ~name:"fit reproduces arbitrary tanh-like curves" ~count:60
    QCheck.(
      quad (float_range 0.3 0.7) (float_range 0.1 0.45) (float_range 0.1 0.9)
        (float_range 1.0 12.0))
    (fun (a, b, c, d) ->
      let e = eta a b c d in
      let vin = linspace 0.0 1.0 41 in
      let vout = Array.map (Ptanh.eval e) vin in
      let r = Ptanh.fit ~vin ~vout in
      r.Ptanh.rmse < 1e-4)


(* {2 Golden sweep + fit digests}

   The DC transfer sweep and the LM fit are the surrogate dataset's inner
   step; their outputs feed [Pipeline]'s chunk cache, whose schema stays
   "surchunk-2" only while every bit of them is unchanged.  FNV-1a 64 over
   the IEEE bit patterns of each output, in order.  The expected digests
   were captured before the sweep/fit internals were made allocation-free;
   a mismatch means a refactor moved a bit of the dataset.  Never edit the
   digests to make this test pass. *)

let fnv_floats h a =
  Array.fold_left
    (fun h x ->
      let bits = Int64.bits_of_float x in
      let h = ref h in
      for i = 0 to 7 do
        let byte = Int64.logand (Int64.shift_right_logical bits (8 * i)) 0xffL in
        h := Int64.mul (Int64.logxor !h byte) 0x100000001b3L
      done;
      !h)
    h a

let fnv_offset = 0xcbf29ce484222325L

(* The LHS set: 256 design points from seed 1.  It holds curves whose LM
   starts run all [max_iterations] (the p95 tail of the sweep workload) as
   well as degenerate corners where Newton gives up. *)
let golden_omegas = lazy (Surrogate.Design_space.sample_lhs (Rng.create 1) ~n:256)

let sweep_fit_digests () =
  let transfer_h = ref fnv_offset and fit_h = ref fnv_offset in
  Array.iter
    (fun omega ->
      match Circuit.Ptanh_circuit.transfer (Circuit.Ptanh_circuit.omega_of_array omega) with
      | exception Circuit.Mna.No_convergence _ ->
          transfer_h := fnv_floats !transfer_h [| infinity |]
      | vin, vout ->
          transfer_h := fnv_floats (fnv_floats !transfer_h vin) vout;
          let r = Ptanh.fit ~vin ~vout in
          fit_h :=
            fnv_floats !fit_h
              (Array.append (Ptanh.eta_to_array r.Ptanh.eta)
                 [| r.Ptanh.rmse; (if r.Ptanh.converged then 1.0 else 0.0) |]))
    (Lazy.force golden_omegas);
  (Printf.sprintf "%016Lx" !transfer_h, Printf.sprintf "%016Lx" !fit_h)

let test_golden_sweep_fit () =
  let transfer_d, fit_d = sweep_fit_digests () in
  Alcotest.(check string) "transfer digest" "0705cf6011119e8e" transfer_d;
  Alcotest.(check string) "fit digest" "36d71508ee2604b3" fit_d

let test_golden_dataset () =
  let d = Surrogate.Pipeline.generate_dataset ~n:64 () in
  let h = Array.fold_left fnv_floats fnv_offset d.Surrogate.Pipeline.omegas in
  let h = Array.fold_left fnv_floats h d.Surrogate.Pipeline.etas in
  let h = fnv_floats h d.Surrogate.Pipeline.fit_rmses in
  let h = fnv_floats h [| float_of_int d.Surrogate.Pipeline.rejected |] in
  Alcotest.(check string) "generate_dataset ~n:64 digest" "36091485e8ab66c8" (Printf.sprintf "%016Lx" h)


(* {2 Allocation does not scale with LM iterations}

   Two curves from the golden LHS set: design point 2's three starts
   converge in 6, 8 and 10 iterations, design point 5's all run the full
   200.  A fit allocates its problem scratch, start vectors and results
   once, so both stay under one bound that a per-iteration allocation
   (a Jacobian, a JᵀJ copy, a residual array) would exceed on the long
   curve by two orders of magnitude. *)

let fit_minor_words index =
  let omega = (Lazy.force golden_omegas).(index) in
  let vin, vout = Circuit.Ptanh_circuit.transfer (Circuit.Ptanh_circuit.omega_of_array omega) in
  let before = Gc.minor_words () in
  let r = Ptanh.fit ~vin ~vout in
  (Gc.minor_words () -. before, r.Ptanh.converged)

let fit_word_bound = 2048.0

let test_fit_allocation_flat () =
  List.iter
    (fun (index, long, what) ->
      let words, converged = fit_minor_words index in
      (* the best start of a long curve ran out of iterations unconverged *)
      Alcotest.(check bool) (Printf.sprintf "LHS point %d converged" index) (not long) converged;
      if words > fit_word_bound then
        Alcotest.failf "fit of LHS point %d (%s) allocated %.0f minor words (bound %.0f)"
          index what words fit_word_bound)
    [
      (2, false, "starts converge in about 10 iterations");
      (5, true, "starts hit max_iterations");
    ]

(* {2 The fit against its oracle}

   [Ptanh.fit] runs a Levenberg–Marquardt solver written for the four ptanh
   parameters.  test/lm.ml is the generic solver it replaced, and
   [oracle_fit] is the fit as it was built on it: the ptanh residuals and
   Jacobian rows as callbacks ([oracle_problem]), the same three starts and the same rule
   for picking the best.  The two must agree in every bit of η and rmse,
   and in [converged] once the oracle's flag is put through the rule that
   a fit with a non-finite cost never converged. *)

let oracle_initial_guess vin vout =
  let n = Array.length vin in
  let lo = Array.fold_left Stdlib.min vout.(0) vout in
  let hi = Array.fold_left Stdlib.max vout.(0) vout in
  let amp2 = Stdlib.max ((hi -. lo) /. 2.0) 1e-3 in
  let mid = (hi +. lo) /. 2.0 in
  let best_slope = ref 0.0 and best_center = ref vin.(n / 2) in
  for i = 0 to n - 2 do
    let dv = vin.(i + 1) -. vin.(i) in
    if dv > 1e-12 then begin
      let s = (vout.(i + 1) -. vout.(i)) /. dv in
      if Float.abs s > Float.abs !best_slope then begin
        best_slope := s;
        best_center := (vin.(i) +. vin.(i + 1)) /. 2.0
      end
    end
  done;
  let sign = if !best_slope >= 0.0 then 1.0 else -1.0 in
  let eta4 = Stdlib.max (Float.abs !best_slope /. amp2) 0.5 in
  [| mid; sign *. amp2; !best_center; eta4 |]

(* η, rmse, the solver's own [converged] and the final cost *)
let oracle_fit ~vin ~vout =
  let problem = oracle_problem ~vin ~vout in
  let g0 = oracle_initial_guess vin vout in
  let best =
    List.fold_left
      (fun acc g ->
        let r = Lm.solve problem g in
        match acc with
        | Some (best : Lm.result) when best.Lm.cost <= r.Lm.cost -> acc
        | _ -> Some r)
      None
      [ g0; [| g0.(0); g0.(1); g0.(2); g0.(3) *. 4.0 |]; [| g0.(0); g0.(1); 0.5; 2.0 |] ]
  in
  let r = Option.get best in
  ( r.Lm.params,
    sqrt (2.0 *. r.Lm.cost /. float_of_int (Array.length vin)),
    r.Lm.converged,
    r.Lm.cost )

let same_bits a b = Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b)

let check_against_oracle what ~vin ~vout =
  let r = Ptanh.fit ~vin ~vout in
  let params, rmse, converged, cost = oracle_fit ~vin ~vout in
  let eta = Ptanh.eta_to_array r.Ptanh.eta in
  Array.iteri
    (fun j x ->
      if not (same_bits x eta.(j)) then
        Alcotest.failf "%s: η%d is %h, the oracle's %h" what (j + 1) eta.(j) x)
    params;
  if not (same_bits rmse r.Ptanh.rmse) then
    Alcotest.failf "%s: rmse is %h, the oracle's %h" what r.Ptanh.rmse rmse;
  let expected = converged && Float.is_finite cost in
  if r.Ptanh.converged <> expected then
    Alcotest.failf "%s: converged is %b, the oracle's %b (cost %g)" what r.Ptanh.converged
      expected cost

let test_fit_equals_oracle_lhs () =
  (* seed 2: not the golden set's seed 1 *)
  let omegas = Surrogate.Design_space.sample_lhs (Rng.create 2) ~n:4096 in
  let fitted = ref 0 in
  Array.iteri
    (fun k omega ->
      match Circuit.Ptanh_circuit.transfer (Circuit.Ptanh_circuit.omega_of_array omega) with
      | exception Circuit.Mna.No_convergence _ -> ()
      | vin, vout ->
          incr fitted;
          check_against_oracle (Printf.sprintf "LHS point %d" k) ~vin ~vout)
    omegas;
  (* the transfer sweep converges on most of the design space *)
  if !fitted < 3000 then Alcotest.failf "only %d of 4096 design points were fitted" !fitted

(* 41-point curves the pipeline never produces: one bad sample in a clean
   sigmoid, a constant, a step, overflowing residuals, bad inputs *)
let hostile_curves =
  let vin = linspace 0.0 1.0 41 in
  let clean = Array.map (Ptanh.eval (eta 0.5 0.4 0.3 6.0)) vin in
  let with_sample i x =
    let v = Array.copy clean in
    v.(i) <- x;
    v
  in
  [
    ("one NaN sample", vin, with_sample 20 Float.nan);
    ("one +inf sample", vin, with_sample 20 infinity);
    ("one -inf sample", vin, with_sample 7 neg_infinity);
    ("first sample NaN", vin, with_sample 0 Float.nan);
    ("all NaN", vin, Array.make 41 Float.nan);
    ("constant", vin, Array.make 41 0.5);
    ("zero", vin, Array.make 41 0.0);
    ("step", vin, Array.map (fun v -> if v < 0.5 then 0.1 else 0.9) vin);
    ("overflowing residual", vin, with_sample 20 1e200);
    ("NaN input voltage", Array.mapi (fun i v -> if i = 10 then Float.nan else v) vin, clean);
  ]

let test_fit_equals_oracle_hostile () =
  List.iter (fun (what, vin, vout) -> check_against_oracle what ~vin ~vout) hostile_curves

(* A curve with a NaN or infinite sample, or whose squared residuals
   overflow, has no finite cost and is never converged; a constant curve
   has a finite cost and converges. *)
let test_non_finite_never_converged () =
  List.iter
    (fun (what, finite) ->
      let _, vin, vout = List.find (fun (w, _, _) -> String.equal w what) hostile_curves in
      let r = Ptanh.fit ~vin ~vout in
      Alcotest.(check bool) (what ^ ": finite rmse") finite (Float.is_finite r.Ptanh.rmse);
      Alcotest.(check bool) (what ^ ": converged") finite r.Ptanh.converged)
    [
      ("one NaN sample", false);
      ("one +inf sample", false);
      ("one -inf sample", false);
      ("all NaN", false);
      ("overflowing residual", false);
      ("constant", true);
    ]

let () =
  Alcotest.run "fit_ptanh"
    [
      ( "model",
        [
          Alcotest.test_case "eval" `Quick test_eval;
          Alcotest.test_case "eta roundtrip" `Quick test_eta_array_roundtrip;
          Alcotest.test_case "eta invalid" `Quick test_eta_of_array_invalid;
        ] );
      ( "fitting",
        [
          Alcotest.test_case "recover known" `Quick test_recover_known_curves;
          Alcotest.test_case "recover noisy" `Quick test_recover_with_noise;
          Alcotest.test_case "validations" `Quick test_fit_validations;
          Alcotest.test_case "simulated circuit" `Quick test_fit_simulated_circuit;
          QCheck_alcotest.to_alcotest qcheck_fit_recovers_function;
          Alcotest.test_case "jacobian vs finite differences" `Quick
            test_jacobian_matches_finite_differences;
        ] );
      ( "golden",
        [
          Alcotest.test_case "sweep + fit digests" `Quick test_golden_sweep_fit;
          Alcotest.test_case "dataset digest" `Quick test_golden_dataset;
          Alcotest.test_case "fit allocation flat" `Quick test_fit_allocation_flat;
        ] );
      ( "oracle",
        [
          Alcotest.test_case "4096 LHS curves" `Quick test_fit_equals_oracle_lhs;
          Alcotest.test_case "hostile curves" `Quick test_fit_equals_oracle_hostile;
          Alcotest.test_case "non-finite never converged" `Quick test_non_finite_never_converged;
        ] );
    ]
