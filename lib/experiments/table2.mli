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

    [cache] (default {!Cache.disabled}) memoizes each (dataset, seed, arm)
    training cell and each Monte-Carlo evaluation; hits are bit-identical to
    the computes they replace, so a warm run reproduces the cold table
    exactly.  With [checkpoints = true] (and an enabled cache) each in-flight
    training writes a {!Pnn.Training.checkpoint} every 50 epochs inside the
    cache tree and resumes from it after an interruption; a cell's
    checkpoint is deleted once its result lands in the cache. *)

val average_of : t -> arm:Setup.arm -> epsilon:float -> cell

val render : t -> string
(** The paper's Table II layout (8 result columns). *)

val to_csv_rows : t -> string list * string list list
(** (header, rows) for CSV export. *)
