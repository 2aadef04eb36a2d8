(** Levenberg–Marquardt nonlinear least squares: the test oracle of the
    ptanh fit.

    This is the generic solver [Fit.Ptanh.fit] was built on before it got
    a solver of its own, written for the four ptanh parameters (see
    docs/INTERNALS.md, "Levenberg–Marquardt and the ptanh fit").  The
    library no longer calls it: test_fit_ptanh runs it as the reference
    that every bit of [Ptanh.fit] must match, and test_lm checks it on
    problems with known solutions.  Its constants and rules are the ones
    [Ptanh.fit] keeps, except that [Ptanh.fit] never reports a fit whose
    cost is not finite as converged; this solver does, when no step can
    lower a NaN cost.

    Minimizes [Σ_i r_i(p)²] for a user-supplied residual function with
    analytic Jacobian.  The solver never materialises J: each iteration
    streams its rows straight into JᵀJ and Jᵀr.  A residual pass may leave
    per-residual values in an [aux] cache (ptanh keeps its [tanh] values
    there) that the Jacobian rows of the same point reuse; the solver
    double-buffers [(r, aux)] and swaps the buffers when a step is
    accepted.  All scratch lives in the {!problem}, so a solve allocates
    only its result. *)

type problem
(** Residual and Jacobian callbacks plus the solver's scratch.  Sequential
    solves of one problem (a multi-start) share the scratch; a problem is
    {e not} safe to solve from two domains at once. *)

val problem :
  n_params:int ->
  n_residuals:int ->
  residuals:(float array -> float array -> float array -> unit) ->
  jacobian_row:(float array -> float array -> int -> float array -> unit) ->
  problem
(** [residuals p r aux] writes [r.(i) = r_i(p)] for every
    [i < n_residuals], and may write into [aux.(i)] whatever the Jacobian
    row [i] at the same [p] can reuse.  [jacobian_row p aux i row] writes
    [row.(j) = ∂r_i/∂p_j] for every [j < n_params], where [aux] is the
    cache [residuals p] filled.  Both callbacks write in place and must
    not keep the arrays they are passed: the solver reuses them. *)

type result = {
  params : float array;
  cost : float;  (** final ½·Σ r² *)
  iterations : int;
  converged : bool;
}

val solve :
  ?max_iterations:int ->
  ?tolerance:float ->
  ?lambda0:float ->
  problem ->
  float array ->
  result
(** [solve problem p0] from the initial guess. [tolerance] bounds the relative
    cost decrease used as the convergence test (default 1e-12).  Raises
    [Invalid_argument] when [p0] does not have [n_params] entries. *)

val residuals : problem -> float array -> float array
(** [residuals problem p] runs the residual callback into fresh arrays and
    returns [r]: the materialising view, for tests and diagnostics. *)

val jacobian : problem -> float array -> float array array
(** [jacobian problem p] is the [n_residuals × n_params] Jacobian the
    solver would stream at [p], materialised ([J.(i).(j) = ∂r_i/∂p_j]). *)

val numerical_jacobian :
  n_residuals:int -> (float array -> float array) -> float array -> float array array
(** Central-difference Jacobian, exposed for tests of analytic Jacobians. *)
