(** Composable variation models — fault injection beyond the paper's noise.

    The paper stress-tests one non-ideality: i.i.d. multiplicative
    U[1−ε, 1+ε] printing error ({!Noise}).  Real printed circuits also suffer
    Gaussian process spread, correlated within-crossbar mismatch, hard
    defects (stuck resistors) and lifetime drift.  A {!model} describes any
    of these — or any composition of them — as a recipe for drawing
    multiplicative {!Noise.t} records, so the whole existing machinery
    (variation-aware training, Monte-Carlo evaluation, compiled graphs,
    the deterministic pool) applies to every family unchanged.

    {b Determinism contract.}  A draw consumes the [Rng.t] on the calling
    domain only, in a fixed per-layer order (θ row-major, then the
    activation circuit's ω, then the negative-weight circuit's ω; composed
    models draw in list order).  Callers that fan out Monte-Carlo work
    pre-draw sequentially and parallelize the pure forward passes, exactly
    as {!Evaluation.mc_accuracy} does, so results are bit-identical for any
    worker count.  [Uniform ε] reproduces {!Noise.draw} {e bit-identically}
    (same stream, same consumption). *)

type model =
  | Uniform of float
      (** The paper's family: every multiplier i.i.d. U[1−ε, 1+ε].
          Bit-identical to {!Noise.draw} with the same [Rng.t] state. *)
  | Gaussian of float
      (** Lognormal multiplicative spread: each multiplier is
          [exp(σ·z − σ²/2)] with [z] standard normal clamped to [±3]
          (mean-one up to the tail clamp, always positive).  [Gaussian 0.]
          gives exact all-ones multipliers. *)
  | Correlated of { global : float; local : float }
      (** Within-crossbar mismatch: one shared factor U[1−global, 1+global]
          per tensor (the whole θ crossbar, or one circuit's ω vector),
          multiplied by element-wise U[1−local, 1+local] noise. *)
  | Defects of { p_open : float; p_short : float }
      (** Per-resistor stuck-at faults.  Each printed θ entry independently
          goes stuck-open with probability [p_open] (magnitude forced to the
          [g_min] rail, sign kept) or stuck-short with probability [p_short]
          (forced to [g_max]); unprinted entries (θ = 0) cannot fail.  Each
          nonlinear-circuit resistance R1..R5 is forced to its Table-I
          {e high} rail on open and {e low} rail on short; transistor
          geometry (W, L) has no resistor to fail and is untouched.
          Requires a network-backed {!ctx} (the fault targets depend on the
          current printed values). *)
  | Aging of { kappa_max : float; beta : float; t_frac : float option }
      (** Lifetime drift δ = κ·t^β, κ ~ U[0, κ_max] per component:
          conductances decay by (1 − δ), circuit resistances grow by
          (1 + δ), geometry does not age — the aging model of the paper's
          reference [5] (Zhao et al., ICCAD 2022).  [t_frac = None] samples
          t ~ U[0,1] per draw (aging-aware training over the whole
          lifetime); [Some t] fixes the life fraction (one point of an
          aging curve). *)
  | Compose of model list
      (** Element-wise product of the component draws, drawn in list order
          from the same stream.  [Compose []] draws all ones. *)

type ctx
(** What a draw needs to know about the target network: the per-layer θ
    shapes always; the printable rails and current printed values only for
    [Defects]. *)

val ctx_of_shapes : (int * int) list -> ctx
(** Shape-only context.  Sufficient for every family except [Defects]
    (which raises [Invalid_argument] when drawn against it). *)

val ctx_of_network : Network.t -> ctx
(** Full context: shapes, the config's [g_min]/[g_max] rails, and thunks
    reading the {e current} printed θ and circuit ω values at draw time —
    so a training-loop sampler tracks the moving parameters. *)

val validate : model -> unit
(** Raises [Invalid_argument] on out-of-range parameters: Uniform/Correlated
    magnitudes outside [0, 1), negative or infinite σ, defect probabilities
    outside [0, 1] or summing above 1, κ_max outside [0, 1), β ≤ 0, t_frac
    outside [0, 1].  A NaN in any field is out of range. *)

val nominal : model -> bool
(** [true] exactly for [Uniform 0.] (either zero): the one model whose
    draws are all ones without touching the stream, so Monte-Carlo callers
    take a single draw for it ({!mc_draws}).  Every other model draws, even
    where its draws come out all ones ([Gaussian 0.], [Defects] at rate 0,
    [Aging] at t = 0, [Compose []]). *)

val draw : Rng.t -> model -> ctx -> Noise.t
(** One realization.  Validates the model first. *)

val draw_many : Rng.t -> model -> ctx -> n:int -> Noise.t list
(** [n] realizations, drawn in order.  Validates the model first. *)

val mc_draws : Rng.t -> model -> ctx -> n:int -> Noise.t list
(** The draws of one Monte-Carlo estimate: {!draw_many}, except that a
    {!nominal} model gives one all-ones draw and consumes nothing. *)
