(** What every experiment runner does per seed: train the seeds of one cell,
    pick the network the paper reports (§IV-C: the best validation loss over
    the seeds), memoize each training in the cache, and key each Monte-Carlo
    evaluation. *)

val select : float list -> int
(** [select losses] is the index of the chosen validation loss: the first
    strictly smallest one.  Ties keep the earlier seed, a NaN never beats a
    number (+∞ included), and an all-NaN list picks index 0.  Raises
    [Invalid_argument] on the empty list. *)

type 'a t = {
  runs : (Pnn.Training.result * 'a) list;  (** every seed, in seed order *)
  chosen : int;  (** index into [runs], by {!select} on [val_loss] *)
}

val train :
  ?pool:Parallel.Pool.t -> ('s -> Pnn.Training.result * 'a) -> 's list -> 'a t
(** [train f seeds] runs [f] on every seed — fanned out over [pool] (default:
    the shared {!Parallel.get_pool}), each seed deriving its own RNG stream —
    and selects over the results in seed order, so the choice is identical
    for any worker count.  Raises [Invalid_argument] when [seeds] is empty. *)

val chosen : 'a t -> Pnn.Training.result * 'a

type job = {
  key : string;  (** the cache key the result is stored under *)
  kind : string;  (** the cache kind: ["t2cell"] or ["faultcell"] *)
  label : string;  (** a one-line human-readable name *)
  train : ?interrupt_after:int -> unit -> Pnn.Training.result;
      (** the cached result, or the training run and stored;
          [interrupt_after] is {!Pnn.Training.checkpoint}'s crash-injection
          hook, so it acts only on a job with checkpoints *)
}
(** One memoized training cell.  A runner's job list is the cells its [run]
    trains, in order; any process holding the list can train any job and
    land on exactly the entry [run] reads back. *)

val job :
  cache:Cache.t ->
  ?checkpoint_every:int ->
  kind:string ->
  key:string ->
  label:string ->
  Surrogate.Model.t ->
  (Pnn.Training.checkpoint option -> Pnn.Training.result) ->
  job
(** [job ~cache ~kind ~key ~label surrogate fit] trains with [fit] on a cache
    miss and stores the result with the {!Pnn.Training.result_lines} codec.
    With [checkpoint_every] and an enabled cache, [fit] gets a resumable
    checkpoint at the ["ckpt"] member path of [key], written every
    [checkpoint_every] epochs and deleted once the result lands. *)

val eval_cache :
  Cache.t ->
  Pnn.Network.t ->
  string list ->
  Datasets.Synth.split ->
  (Cache.t * string) option
(** [eval_cache cache network parts split] is the ["mceval"] cache argument
    of {!Pnn.Evaluation}: [None] when [cache] is disabled, else the key over
    the network's digest, then [parts] (the caller's stream and draw-count
    inputs), then the digests of the test split's x and y. *)
