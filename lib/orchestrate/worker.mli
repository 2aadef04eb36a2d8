(** The claim–execute–publish loop one worker process runs.

    A worker repeatedly {!Work_queue.acquire}s the first claimable unit
    (stealing expired leases), trains its job ({!Experiments.Seeds.job}) while
    a ticker domain renews the lease, publishes the done marker and releases
    the claim.  It exits when no pending units remain.

    Crash discipline: on any exception the claim is {e not} released — the
    unit recovers through lease expiry and stealing, exactly as after a real
    [kill -9] — and the exception propagates so the process exits
    nonzero. *)

type chaos = {
  interrupt_after : int option;
      (** inject {!Pnn.Training.Interrupted} into every executed unit after
          this many epochs — the deterministic stand-in for [kill -9] used
          by the crash-recovery tests *)
}

val no_chaos : chaos

val run :
  ?chaos:chaos ->
  ?ticker:bool ->
  Work_queue.t ->
  units:Experiments.Seeds.job list ->
  owner:string ->
  lease:float ->
  unit ->
  int
(** Returns the number of units this worker completed.  [units] is
    {!Plan.units}; the queue's keys are their cache keys.  [owner] must be
    unique among live workers; [lease] is the claim lease in seconds —
    longer than the renewal cadence ([lease / 3]) by construction, and it
    bounds how long a dead worker's unit stays unstealable.

    [ticker] (default true) renews the lease from a spawned domain while a
    unit computes.  The coordinator disables it for the in-process
    single-worker mode: with no contending workers renewal is pointless, and
    staying domain-free keeps the process able to [Unix.fork] later (OCaml 5
    permanently refuses fork once any domain was ever spawned). *)
