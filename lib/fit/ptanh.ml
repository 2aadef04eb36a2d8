type eta = { eta1 : float; eta2 : float; eta3 : float; eta4 : float }

let eval e v = e.eta1 +. (e.eta2 *. tanh ((v -. e.eta3) *. e.eta4))
let eval_inv e v = -.eval e v
let eta_to_array e = [| e.eta1; e.eta2; e.eta3; e.eta4 |]

let eta_of_array a =
  if Array.length a <> 4 then invalid_arg "Ptanh.eta_of_array: need 4 values";
  { eta1 = a.(0); eta2 = a.(1); eta3 = a.(2); eta4 = a.(3) }

type fit_result = { eta : eta; rmse : float; converged : bool }

(* The residual pass caches each point's tanh((v − η3)·η4) in [th]; the
   Jacobian rows of the accepted point read it back instead of recomputing
   it.  Both passes evaluate the same expression on the same η, so the
   cached value is the one a fresh [tanh] would return. *)
let problem ~vin ~vout =
  let n = Array.length vin in
  if Array.length vout <> n then invalid_arg "Ptanh.problem: length mismatch";
  Lm.problem ~n_params:4 ~n_residuals:n
    ~residuals:(fun p r th ->
      for i = 0 to n - 1 do
        let t = tanh ((vin.(i) -. p.(2)) *. p.(3)) in
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
  let problem = problem ~vin ~vout in
  let guesses =
    let g0 = initial_guess vin vout in
    [
      g0;
      [| g0.(0); g0.(1); g0.(2); g0.(3) *. 4.0 |];
      [| g0.(0); g0.(1); 0.5; 2.0 |];
    ]
  in
  let best =
    List.fold_left
      (fun acc g ->
        let r = Lm.solve problem g in
        match acc with
        | Some (best : Lm.result) when best.cost <= r.cost -> acc
        | _ -> Some r)
      None guesses
  in
  match best with
  | None -> assert false
  | Some r ->
      {
        eta = eta_of_array r.params;
        rmse = sqrt (2.0 *. r.cost /. float_of_int n);
        converged = r.converged;
      }

let fit_inv ~vin ~vout =
  (* Eq. 3: vout ≈ −(η1 + η2 tanh((v−η3)η4)); fit the negated data with Eq. 2. *)
  fit ~vin ~vout:(Array.map (fun v -> -.v) vout)
