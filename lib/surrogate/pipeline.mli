(** The modelling pipeline of the paper's Fig. 3:

    design space → QMC sampling → SPICE (our MNA solver) → ptanh fitting
    → dataset (ω, η) → surrogate MLP training.

    Dataset points whose LM fit is poor (the paper constrains the space to
    tanh-like curves by sweep analysis; our space has a small fraction of
    degenerate corners) are filtered out; the fraction kept is reported. *)

type dataset = {
  omegas : float array array;  (** raw 7-dim ω per sample *)
  etas : float array array;  (** fitted 4-dim η per sample *)
  fit_rmses : float array;
  rejected : int;  (** samples dropped by the fit-quality filter *)
}

val dataset_of_omegas :
  ?pool:Parallel.Pool.t ->
  ?cache:Cache.t ->
  ?sweep_points:int ->
  ?max_fit_rmse:float ->
  float array array ->
  dataset
(** The sweep-fit-filter step over given candidate ω: each candidate's DC
    sweep ([sweep_points], default 41) and LM fit fan out over [pool]
    (default: the shared {!Parallel.get_pool}), and a candidate is kept when
    its sweep converges, its fit rmse is at most [max_fit_rmse] (default
    0.02 V) and its η lies in the sanity box.  Acceptance keeps candidate
    order, so the dataset is bit-identical for any worker count.

    [cache] (default: disabled) memoizes sweep+fit outcomes in fixed-size
    chunks keyed by chunk content and every sweep/fit/filter knob, and
    returns a bit-identical dataset. *)

val generate_dataset :
  ?pool:Parallel.Pool.t ->
  ?cache:Cache.t ->
  ?n:int ->
  ?sweep_points:int ->
  ?max_fit_rmse:float ->
  ?sampler:[ `Sobol | `Lhs of Rng.t ] ->
  unit ->
  dataset
(** [n] candidates (default 10_000, the paper's) sampled sequentially by
    [sampler] (default Sobol), then {!dataset_of_omegas}.  Candidates are
    sampled before the cache is consulted, so a warm run leaves all RNG
    streams exactly where a cold one would. *)

val chunk_of_lines :
  float array array -> string list -> (float array * float array * float) option array
(** The decoder of a ["surchunk"] cache payload: per candidate ω of the
    chunk, [Some (ω, η, fit rmse)] if kept, [None] if rejected.  Raises
    [Failure] on malformed input. *)

type split = { train : int array; validation : int array; test : int array }

val split_dataset : Rng.t -> dataset -> split
(** Random 70 / 20 / 10 split (paper §III-A). *)

type report = {
  train_mse : float;
  val_mse : float;
  test_mse : float;
  train_r2 : float;
  val_r2 : float;
  test_r2 : float;
  epochs_run : int;
  kept_samples : int;
  rejected_samples : int;
}

val train_surrogate :
  ?arch:int list ->
  ?max_epochs:int ->
  ?patience:int ->
  ?lr:float ->
  Rng.t ->
  dataset ->
  Model.t * report
(** Trains the surrogate MLP (default: {!Model.paper_arch}) with Adam + early
    stopping on the validation MSE; reports per-split metrics of the best
    model. *)

val parity_rows :
  Model.t -> dataset -> split -> (string * float * float) list
(** Normalized (true η̃, predicted η̃) pairs tagged ["train"], ["val"],
    ["test"] — the data behind the paper's Fig. 4 (right). *)

val ensure :
  ?dir:string ->
  ?cache:Cache.t ->
  ?n:int ->
  ?arch:int list ->
  ?max_epochs:int ->
  seed:int ->
  unit ->
  Model.t
(** Loads the cached surrogate artifact from [dir] (default ["_artifacts"],
    relative to the working directory), or runs the full pipeline and
    saves the artifact there; the pipeline memoizes its sweep+fit chunks
    in [cache] (default: disabled), as {!generate_dataset} does.  The
    artifact's name includes [n], the architecture and the seed.
    A miss always prints one stderr line naming the absolute path it looked
    for, whatever the log level: the new surrogate is not the committed one,
    so every number that depends on it moves. *)
