(** Fitting the behavioural ptanh model (paper Eq. 2/3) to simulated transfer
    curves:

      ptanh_η(v) = η1 + η2 · tanh((v − η3) · η4)

    The negative-weight circuit model (Eq. 3) is [inv(v) = −ptanh_η(v)]. *)

type eta = { eta1 : float; eta2 : float; eta3 : float; eta4 : float }

val eval : eta -> float -> float

val eta_to_array : eta -> float array
val eta_of_array : float array -> eta

(* [residuals] and [jacobian] are reserved for the ROADMAP item "Surrogate
   fidelity, measured in volts against the simulator" (its adjoint check). *)
val residuals : vin:float array -> vout:float array -> eta -> float array
(** [residuals ~vin ~vout eta] is Eq. 2's residual vector,
    [ptanh_η(vin.(i)) − vout.(i)], computed by the expression {!fit}
    evaluates.  Raises [Invalid_argument] on length mismatch. *)

val jacobian : vin:float array -> eta -> float array array
(** [jacobian ~vin eta] is the analytic Jacobian of {!residuals} in
    η = [|η1; η2; η3; η4|], one row per point ([J.(i).(j) = ∂r_i/∂η_(j+1)]),
    with the expressions {!fit} streams into its normal equations. *)

type fit_result = { eta : eta; rmse : float; converged : bool }

val fit : vin:float array -> vout:float array -> fit_result
(** Least-squares fit of Eq. 2 with a heuristic initial guess derived from the
    curve's range and steepest slope, refined by Levenberg–Marquardt with a
    small multi-start.  [rmse] is [sqrt (2·cost / n)] for the final ½·Σ r².
    [converged] is [true] when the best start stopped on a relative cost
    decrease below 1e-12 or on a step no damping could improve, and its
    cost is finite: a curve with a NaN or infinite sample (or any fit whose
    cost is not finite) is never converged.  A fit allocates its scratch
    once, whatever its iteration count.  Raises [Invalid_argument] on
    length mismatch or fewer than 5 points. *)
