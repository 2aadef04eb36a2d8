(** Deterministic multicore execution for Monte-Carlo and experiment fan-out.

    A fixed-size pool of worker domains (OCaml 5 [Domain]s) with map
    combinators.  The design contract is {b determinism}: for pure
    per-element work, every entry point returns bit-identical results for
    any worker count, including [jobs = 1] (which never spawns a domain and
    runs plain sequential loops).

    How the contract is kept: element [i]'s result is always stored at slot
    [i], so scheduling order is irrelevant to the output.  A caller that
    reduces the results folds them itself, in index order, after the map
    returns (as the Monte-Carlo loss and gradient sums do), so the
    reduction order never depends on the worker count.

    Callers are responsible for the "pure per-element work" part: pre-draw
    RNG streams before fanning out and do not mutate shared state inside the
    mapped function.

    The worker count of the shared pool is controlled by the [REPRO_JOBS]
    environment variable (default: [Domain.recommended_domain_count ()];
    [REPRO_JOBS=1] forces today's sequential path). *)

module Pool : sig
  type t

  val create : ?jobs:int -> unit -> t
  (** [create ~jobs ()] spawns [jobs - 1] worker domains (the caller
      participates in every parallel region, so [jobs] is the total
      parallelism).  [jobs] defaults to {!default_jobs}; values [< 1] are
      clamped to [1]. *)

  val jobs : t -> int

  val parallel_for : t -> n:int -> (int -> unit) -> unit
  (** [parallel_for pool ~n body] runs [body i] for [i = 0 .. n - 1] across
      the pool; the caller works too and the call returns only after every
      index completed.  Work is claimed index-by-index (dynamic scheduling),
      so [body] must not depend on execution order.  If any [body] raises,
      the first exception observed is re-raised in the caller after all
      claimed work finished.  Safe to nest: a worker may open an inner
      parallel region. *)

  val map_array : t -> ('a -> 'b) -> 'a array -> 'b array
  (** Parallel [Array.map]; element order preserved, bit-identical to the
      sequential map for pure [f] regardless of worker count. *)

  val mapi_array : t -> (int -> 'a -> 'b) -> 'a array -> 'b array

  val map_list : t -> ('a -> 'b) -> 'a list -> 'b list
  (** Parallel [List.map] (via an intermediate array). *)

  val shutdown : t -> unit
  (** Joins all worker domains.  Idempotent; after shutdown the pool remains
      usable but every call degrades to the sequential path. *)
end

val default_jobs : unit -> int
(** [REPRO_JOBS] if set to a positive integer, else
    [Domain.recommended_domain_count ()]. *)

val get_pool : unit -> Pool.t
(** The shared process-wide pool, created on first use with
    {!default_jobs} workers and shut down automatically at exit.  All
    library entry points taking [?pool] default to this. *)

val require_sequential : unit -> bool
(** Pin the shared pool to the sequential path: if it does not exist yet it
    is created with [jobs = 1] (spawning no domains), otherwise it is shut
    down (degrading it to sequential but leaving it usable).

    This is the fork-safety latch: OCaml 5 permanently refuses [Unix.fork]
    in any process that has {e ever} spawned a domain, so a process that
    intends to fork (perfbench's serve workload forks its server) calls this
    before any pool work.  Returns [true] iff the pool layer has never spawned a domain
    — i.e. the process is still fork-safe as far as this module knows.  By
    the pool's determinism contract, results are unaffected. *)
