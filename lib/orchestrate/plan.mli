(** The orchestrator's work list.

    A {!ctx} freezes everything a training cell depends on — the scale, the
    surrogate, the dataset list, the optional fault-table block and the
    cache — so {!units} is a pure function from ctx to the content-addressed
    work list, and any process holding an equal ctx expands an identical
    list.  That is the whole sharding contract: workers never exchange
    results, they meet in the cache. *)

type ctx = {
  scale : Experiments.Setup.scale;
  surrogate : Surrogate.Model.t;
  datasets : Datasets.Synth.t list;
  faults : (string * float) option;
      (** fault-table (benchmark dataset, ε) block *)
  cache : Cache.t;
  checkpoint_every : int;
}

val create :
  ?datasets:Datasets.Synth.t list ->
  ?faults:string * float ->
  ?checkpoint_every:int ->
  cache:Cache.t ->
  Experiments.Setup.scale ->
  Surrogate.Model.t ->
  ctx
(** Defaults: no datasets, no fault block, [checkpoint_every = 50].  Units
    always checkpoint (workers can be killed, so mid-training state should
    survive). *)

val units : ctx -> Experiments.Seeds.job list
(** The runners' own job lists: {!Experiments.Table2.jobs} followed by
    {!Experiments.Faults.jobs} when the plan has a fault block.  A unit's
    queue id is its job's cache key, so completing a unit anywhere makes the
    assembly pass hit the cache, and a duplicate execution republishes the
    identical entry.  Raises [Invalid_argument] when the fault block's ε
    makes a family ill-formed. *)
