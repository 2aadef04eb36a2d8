(** Fitting the behavioural ptanh model (paper Eq. 2/3) to simulated transfer
    curves:

      ptanh_η(v) = η1 + η2 · tanh((v − η3) · η4)

    The negative-weight circuit model (Eq. 3) is [inv(v) = −ptanh_η(v)] with η
    fitted against the negated curve; {!fit_inv} returns that η. *)

type eta = { eta1 : float; eta2 : float; eta3 : float; eta4 : float }

val eval : eta -> float -> float
val eval_inv : eta -> float -> float
(** [eval_inv eta v = -. eval eta v]. *)

val eta_to_array : eta -> float array
val eta_of_array : float array -> eta

val problem : vin:float array -> vout:float array -> Lm.problem
(** Eq. 2 as a least-squares problem in η = [|η1; η2; η3; η4|]: residuals
    [ptanh_η(vin.(i)) − vout.(i)] with their analytic Jacobian.  {!fit}
    solves one of these per curve.  Raises [Invalid_argument] on length
    mismatch. *)

type fit_result = { eta : eta; rmse : float; converged : bool }

val fit : vin:float array -> vout:float array -> fit_result
(** Least-squares fit of Eq. 2 with a heuristic initial guess derived from the
    curve's range and steepest slope, refined by Levenberg–Marquardt with a
    small multi-start.  Raises [Invalid_argument] on length mismatch or fewer
    than 5 points. *)

val fit_inv : vin:float array -> vout:float array -> fit_result
(** Fit of Eq. 3: finds η such that [−ptanh_η] matches the data. *)
