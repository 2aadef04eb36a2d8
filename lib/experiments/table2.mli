(** Reproduction of Table II: accuracy ± std on the 13 benchmark datasets for
    {non-learnable, learnable} × {nominal, variation-aware} training, tested
    under 5 % and 10 % component variation.

    Per (dataset, arm): one pNN is trained per seed, {!Seeds.train} chooses
    the one with the best validation loss (paper §IV-C), and the chosen model
    is evaluated with [n_mc_test] Monte-Carlo variation draws on the test
    set; the cell reports the mean ± std over those draws.  Nominal arms are
    trained once and tested at every ε; variation-aware arms are trained at
    each ε and tested at the same ε. *)

type cell = { mean : float; std : float }

type dataset_row = {
  dataset : string;
  cells : ((Setup.arm * float) * cell) list;  (** keyed by (arm, test ε) *)
}

type t = {
  rows : dataset_row list;
  average : ((Setup.arm * float) * cell) list;  (** column averages *)
}

val run :
  ?pool:Parallel.Pool.t ->
  ?cache:Cache.t ->
  ?checkpoints:bool ->
  ?progress:(string -> unit) ->
  ?datasets:Datasets.Synth.t list ->
  Setup.scale ->
  Surrogate.Model.t ->
  t
(** Defaults to all 13 benchmark datasets.

    Per-seed trainings fan out over [pool] (default: the shared
    {!Parallel.get_pool}) and every reduction is in fixed seed/draw order, so
    the table is bit-identical for any worker count.

    [cache] (default {!Cache.get_default}) memoizes each (dataset, seed, arm)
    training cell and each Monte-Carlo evaluation; hits are bit-identical to
    the computes they replace, so a warm run reproduces the cold table
    exactly.  With [checkpoints = true] (and an enabled cache) each in-flight
    training writes periodic {!Pnn.Training.checkpoint}s inside the cache
    tree and resumes from them after an interruption; a cell's checkpoint is
    deleted once its result lands in the cache. *)

(** {1 Cell-level building blocks}

    The orchestrator distributes Table II work one training cell at a time, so
    the key derivation, the per-seed split and the memoized training step are
    exposed as pure functions of their named inputs: any process computing the
    same cell arrives at the same cache entry. *)

val config_for : Setup.scale -> Setup.arm -> float -> Pnn.Config.t
(** The resolved training config of one (arm, train ε) column. *)

val cell_key :
  surrogate_digest:string ->
  config:Pnn.Config.t ->
  dataset:string ->
  dataset_seed:int ->
  seed:int ->
  init:[ `Centered | `Random_sign ] ->
  string
(** The content address of one (dataset, seed, arm) training cell — exactly
    the key {!run} uses, so externally computed cells are cache hits.
    [surrogate_digest] is {!Setup.surrogate_digest}. *)

val split_for : Datasets.Synth.t -> seed:int -> Datasets.Synth.split
(** The per-seed train/validation/test split shared by every arm. *)

val train_cell :
  ?pool:Parallel.Pool.t ->
  ?cache:Cache.t ->
  ?checkpoints:bool ->
  ?checkpoint_every:int ->
  ?interrupt_after:int ->
  digest:string ->
  scale:Setup.scale ->
  surrogate:Surrogate.Model.t ->
  dataset:string ->
  dataset_seed:int ->
  n_classes:int ->
  seed:int ->
  split:Datasets.Synth.split ->
  arm:Setup.arm ->
  eps:float ->
  unit ->
  Pnn.Training.result
(** One memoized training cell ({!Seeds.cell}), keyed with {!cell_key}.
    [checkpoint_every] (default 50 epochs) sets the checkpoint cadence when
    [checkpoints] is on; [interrupt_after] raises
    {!Pnn.Training.Interrupted} once that many epochs have completed (after
    any due checkpoint write) — the crash-injection hook the orchestrator's
    kill-recovery tests use. *)

val cell_of : t -> dataset:string -> arm:Setup.arm -> epsilon:float -> cell
(** Raises [Not_found]. *)

val average_of : t -> arm:Setup.arm -> epsilon:float -> cell

val render : t -> string
(** The paper's Table II layout (8 result columns). *)

val to_csv_rows : t -> string list * string list list
(** (header, rows) for CSV export. *)
