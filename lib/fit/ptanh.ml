type eta = { eta1 : float; eta2 : float; eta3 : float; eta4 : float }

let eval e v = e.eta1 +. (e.eta2 *. Fmath.tanh ((v -. e.eta3) *. e.eta4))
let eval_inv e v = -.eval e v
let eta_to_array e = [| e.eta1; e.eta2; e.eta3; e.eta4 |]

let eta_of_array a =
  if Array.length a <> 4 then invalid_arg "Ptanh.eta_of_array: need 4 values";
  { eta1 = a.(0); eta2 = a.(1); eta3 = a.(2); eta4 = a.(3) }

type fit_result = { eta : eta; rmse : float; converged : bool }

(* {1 Residuals and Jacobian}

   The residual pass caches each point's tanh((v − η3)·η4) in [th]; the
   Jacobian rows of the accepted point read it back instead of recomputing
   it.  Both passes evaluate the same expression on the same η, so the
   cached value is the one a fresh [Fmath.tanh] would return: the pass
   writes the arguments into [th] and runs Fmath's array body over them,
   which gives the scalar body's bits. *)
let residuals_into vin vout p r th =
  let p0 = p.(0) and p1 = p.(1) and p2 = p.(2) and p3 = p.(3) in
  let n = Array.length vin in
  for i = 0 to n - 1 do
    th.(i) <- (vin.(i) -. p2) *. p3
  done;
  Fmath.tanh_array th;
  for i = 0 to n - 1 do
    r.(i) <- p0 +. (p1 *. th.(i)) -. vout.(i)
  done

(* ½·Σ r², summed in row order from 0.0 *)
let[@inline] half_sum_squares r =
  let s = ref 0.0 in
  for i = 0 to Array.length r - 1 do
    s := !s +. (r.(i) *. r.(i))
  done;
  0.5 *. !s

let residuals ~vin ~vout e =
  let n = Array.length vin in
  if Array.length vout <> n then invalid_arg "Ptanh.residuals: length mismatch";
  let r = Array.make n 0.0 in
  residuals_into vin vout (eta_to_array e) r (Array.make n 0.0);
  r

(* Row i of J is [1; t; −(η2·sech²·η4); η2·sech²·(v − η3)], t the row's
   tanh and sech² = 1 − t². *)
let jacobian ~vin e =
  Array.map
    (fun v ->
      let t = Fmath.tanh ((v -. e.eta3) *. e.eta4) in
      let sech2 = 1.0 -. (t *. t) in
      [| 1.0; t; -.(e.eta2 *. sech2 *. e.eta4); e.eta2 *. sech2 *. (v -. e.eta3) |])
    vin

(* {1 Levenberg–Marquardt}

   The solver is written for the four ptanh parameters.  It damps the
   Gauss–Newton normal equations with λ·diag(JᵀJ), grows λ ×10 on a
   rejected step and shrinks it ÷10 (floor 1e-12) on an accepted one, tries
   at most [attempts] steps per iteration, and stops after [max_iterations]
   iterations, on a relative cost decrease below [tolerance], or when no
   attempt lowers the cost.  It performs the floating-point operations of
   the generic solver it replaced (test/lm.ml, the oracle test_fit_ptanh
   compares it with) in the same order, so every bit of a fit is that
   solver's. *)

let max_iterations = 200
let tolerance = 1e-12
let lambda0 = 1e-3
let attempts = 8

(* Every buffer of a fit, allocated once and shared by its starts: two
   (r, th) pairs — the accepted point's and the trial's; accepting a step
   flips which pair is current — the damped 4×4 system and the trial
   point. *)
type scratch = {
  vin : float array;
  vout : float array;
  r : float array array;
  th : float array array;
  m : float array array;
  rhs : float array;
  p_trial : float array;
}

type start = { params : float array; cost : float; converged : bool }

(* Every float accumulator below is a local [ref] that no closure captures,
   so the compiler keeps it unboxed: an iteration allocates nothing.  J is
   never materialised; its rows stream into the ten entries of the upper
   triangle of JᵀJ and the four of Jᵀr, each summed in row order from 0.0.
   Products with J's constant column 1.0 are left out: x·1.0 is x for
   every value reaching them. *)
let solve s p0 =
  let vin = s.vin and vout = s.vout and m = s.m and rhs = s.rhs and p_trial = s.p_trial in
  let n = Array.length vin in
  let p = Array.copy p0 in
  let cur = ref 0 in
  residuals_into vin vout p s.r.(0) s.th.(0);
  let cost = ref (half_sum_squares s.r.(0)) in
  let lambda = ref lambda0 in
  let converged = ref false and stop = ref false in
  let iters = ref 0 in
  (* Σ 1.0·1.0 over the rows, which is exact *)
  let j00 = float_of_int n in
  while (not !stop) && !iters < max_iterations do
    incr iters;
    let r = s.r.(!cur) and th = s.th.(!cur) in
    let p1 = p.(1) and p2 = p.(2) and p3 = p.(3) in
    let j01 = ref 0.0 and j02 = ref 0.0 and j03 = ref 0.0 in
    let j11 = ref 0.0 and j12 = ref 0.0 and j13 = ref 0.0 in
    let j22 = ref 0.0 and j23 = ref 0.0 and j33 = ref 0.0 in
    let g0 = ref 0.0 and g1 = ref 0.0 and g2 = ref 0.0 and g3 = ref 0.0 in
    for i = 0 to n - 1 do
      let t = th.(i) and ri = r.(i) in
      let sech2 = 1.0 -. (t *. t) in
      let d2 = -.(p1 *. sech2 *. p3) and d3 = p1 *. sech2 *. (vin.(i) -. p2) in
      g0 := !g0 +. ri;
      j01 := !j01 +. t;
      j02 := !j02 +. d2;
      j03 := !j03 +. d3;
      g1 := !g1 +. (t *. ri);
      j11 := !j11 +. (t *. t);
      j12 := !j12 +. (t *. d2);
      j13 := !j13 +. (t *. d3);
      g2 := !g2 +. (d2 *. ri);
      j22 := !j22 +. (d2 *. d2);
      j23 := !j23 +. (d2 *. d3);
      g3 := !g3 +. (d3 *. ri);
      j33 := !j33 +. (d3 *. d3)
    done;
    let left = ref attempts and progressed = ref false in
    while (not !progressed) && !left > 0 do
      decr left;
      (* [Linalg.solve_in_place] destroys the system and permutes its
         rows, so each attempt rebuilds every row by index: the symmetric
         JᵀJ with its diagonal scaled by 1 + λ and kept at least 1e-30
         (flat directions), and −Jᵀr *)
      let scale = 1.0 +. !lambda in
      let d00 = j00 *. scale and d11 = !j11 *. scale in
      let d22 = !j22 *. scale and d33 = !j33 *. scale in
      let m0 = m.(0) and m1 = m.(1) and m2 = m.(2) and m3 = m.(3) in
      m0.(0) <- (if d00 < 1e-30 then 1e-30 else d00);
      m0.(1) <- !j01;
      m0.(2) <- !j02;
      m0.(3) <- !j03;
      m1.(0) <- !j01;
      m1.(1) <- (if d11 < 1e-30 then 1e-30 else d11);
      m1.(2) <- !j12;
      m1.(3) <- !j13;
      m2.(0) <- !j02;
      m2.(1) <- !j12;
      m2.(2) <- (if d22 < 1e-30 then 1e-30 else d22);
      m2.(3) <- !j23;
      m3.(0) <- !j03;
      m3.(1) <- !j13;
      m3.(2) <- !j23;
      m3.(3) <- (if d33 < 1e-30 then 1e-30 else d33);
      rhs.(0) <- -. !g0;
      rhs.(1) <- -. !g1;
      rhs.(2) <- -. !g2;
      rhs.(3) <- -. !g3;
      match Circuit.Linalg.solve_in_place m rhs with
      | exception Failure _ -> lambda := !lambda *. 10.0
      | dp ->
          for i = 0 to 3 do
            p_trial.(i) <- p.(i) +. dp.(i)
          done;
          let next = 1 - !cur in
          residuals_into vin vout p_trial s.r.(next) s.th.(next);
          let cost' = half_sum_squares s.r.(next) in
          if cost' < !cost then begin
            Array.blit p_trial 0 p 0 4;
            let rel = (!cost -. cost') /. if !cost >= 1e-300 then !cost else 1e-300 in
            cur := next;
            cost := cost';
            let shrunk = !lambda /. 10.0 in
            lambda := if shrunk >= 1e-12 then shrunk else 1e-12;
            if rel < tolerance then converged := true;
            progressed := true
          end
          else lambda := !lambda *. 10.0
    done;
    if (not !progressed) || !converged then begin
      if not !progressed then converged := true;
      stop := true
    end
  done;
  { params = p; cost = !cost; converged = !converged }

(* {1 The fit} *)

(* Initial guess: midpoint/amplitude from the curve range, center at the
   steepest secant, slope from the maximum secant slope (d/dv at center of
   a1 + a2 tanh((v-a3) a4) is a2*a4). *)
let initial_guess vin vout =
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

let fit ~vin ~vout =
  let n = Array.length vin in
  if Array.length vout <> n then invalid_arg "Ptanh.fit: length mismatch";
  if n < 5 then invalid_arg "Ptanh.fit: need at least 5 points";
  let pair () = [| Array.make n 0.0; Array.make n 0.0 |] in
  let s =
    {
      vin;
      vout;
      r = pair ();
      th = pair ();
      m = Array.make_matrix 4 4 0.0;
      rhs = Array.make 4 0.0;
      p_trial = Array.make 4 0.0;
    }
  in
  let g0 = initial_guess vin vout in
  (* three starts; a later start replaces the best unless the best's cost
     is [<=] its own *)
  let best =
    List.fold_left
      (fun best g ->
        let r = solve s g in
        if best.cost <= r.cost then best else r)
      (solve s g0)
      [ [| g0.(0); g0.(1); g0.(2); g0.(3) *. 4.0 |]; [| g0.(0); g0.(1); 0.5; 2.0 |] ]
  in
  {
    eta = eta_of_array best.params;
    rmse = sqrt (2.0 *. best.cost /. float_of_int n);
    converged = best.converged && Float.is_finite best.cost;
  }

let fit_inv ~vin ~vout =
  (* Eq. 3: vout ≈ −(η1 + η2 tanh((v−η3)η4)); fit the negated data with Eq. 2. *)
  fit ~vin ~vout:(Array.map (fun v -> -.v) vout)
