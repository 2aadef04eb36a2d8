(** Forked-worker pool over the directory queue, plus table assembly.

    {!run} expands the plan, initializes (or resumes) the queue and drives
    [workers] processes to completion.  [workers <= 1] runs the worker loop
    in-process and domain-free; [workers > 1] forks, which requires that the
    process has never spawned a domain (OCaml 5's permanent fork guard) —
    {!Parallel.require_sequential} is used as the latch and a
    {!Workers_failed} is raised if it is already open.  Workers that exit
    abnormally — crash, [kill -9], injected chaos — are respawned (at most
    [2 × workers + 2] times); their half-done unit is recovered through
    lease expiry, stealing, and checkpoint resume, losing at most one
    checkpoint interval of training progress.

    Because units are keyed by cache content address, the assembled tables
    ({!table2} / {!fault_table}) are byte-identical to a single-process run
    at {e any} worker count, including after crashes. *)

type report = { units : int; workers : int; respawns : int; completed : int }
(** [completed] counts in-process completions when [workers <= 1]; for
    forked runs it equals [units] on success (children cannot report counts
    back through exit statuses). *)

exception Workers_failed of string
(** Raised when units remain unfinished after the respawn budget is spent. *)

val run :
  ?workers:int ->
  ?lease:float ->
  ?chaos:(int -> Worker.chaos option) ->
  queue_root:string ->
  Plan.ctx ->
  report
(** [chaos index] configures fault injection per initial worker index
    (respawned workers always run clean).  [lease] defaults to 30 s —
    crash-recovery latency is bounded by it, so tests use much shorter
    leases.  Re-running with the same [queue_root] resumes: done units are
    skipped, stale claims are stolen. *)

val table2 : Plan.ctx -> Experiments.Table2.t
(** Assemble Table II from the warm cache (pure reader after {!run}). *)

val fault_table : Plan.ctx -> Experiments.Faults.t option
(** Assemble the fault tables when the plan has a fault block. *)
