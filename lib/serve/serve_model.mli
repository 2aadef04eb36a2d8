(** The serve-time view of a trained network — the train-time / serve-time
    API split.

    A [Serve_model.t] treats its {!Pnn.Network.t} as strictly read-only: no
    optimizer, no loss graphs, no weight mutation goes through this module.
    Answers depend only on (model file, request payload): batch composition
    cannot change an answer (row-independent forward pass), Monte-Carlo
    draws are pre-drawn sequentially from a request-seeded stream and
    reduced in draw order, so results are bit-identical for any pool size
    and any batching schedule. *)

type t

val load : ?expect_digest:string -> Surrogate.Model.t -> string -> t
(** Load a saved network ({!Serialize} v2).  Raises [Failure] with a clear
    message on a missing/truncated/corrupt file, or when the loaded model's
    digest differs from [expect_digest] — a server refuses to start rather
    than serving a model it cannot vouch for. *)

val of_network : Pnn.Network.t -> t
(** Wrap an in-memory network (tests, in-process benches). *)

val network : t -> Pnn.Network.t
val inputs : t -> int
val outputs : t -> int

val digest : t -> string
(** {!Serialize.digest} of the wrapped network. *)

val padded_rows : int -> int
(** The row count a [k]-request batch is padded to (next power of two) —
    exposed so tests can pin the compiled-graph working set. *)

val predict_batch : t -> float array array -> int array
(** Classify a batch of feature vectors under nominal variation.  Each
    answer is bit-identical to {!Pnn.Network.predict} on that row alone.
    Raises [Invalid_argument] on an empty batch or a feature-width
    mismatch. *)

type mc_summary = { cls : int; mean_p : float; q05 : float; q95 : float }
(** [cls] = argmax of the draw-mean softmax probabilities; [mean_p]/[q05]/
    [q95] describe that class's probability across draws. *)

val predict_mc :
  t ->
  pool:Parallel.Pool.t ->
  model:Pnn.Variation.model ->
  draws:int ->
  seed:int ->
  float array ->
  mc_summary
(** Monte-Carlo uncertainty for one feature vector: [draws] realizations of
    [model] from [Rng.create seed], fanned over the pool, reduced in draw
    order — bit-identical for any pool size.  When a draw's probability of
    the class is NaN (a NaN feature), [q05] and [q95] are NaN. *)
