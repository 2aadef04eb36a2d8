(** The long-running inference server: a single-domain [Unix.select] event
    loop speaking {!Protocol} over a unix-domain or TCP socket, coalescing
    predict requests through {!Batcher} into batched forward passes on
    {!Serve_model}'s compiled graphs, and fanning Monte-Carlo draws over
    the shared {!Parallel} pool.

    The clock only schedules (linger deadlines, select timeouts) and counts
    (latency-free occupancy/served counters); every response payload is
    produced by the wall-clock-free {!Protocol}/{!Batcher}/{!Serve_model}
    layer, so identical request streams get bit-identical responses
    regardless of timing, batching schedule, or pool size. *)

type config = {
  max_batch : int;  (** batch releases when this many requests coalesce *)
  linger : float;  (** seconds the oldest request may wait for company *)
  mc_model : Pnn.Variation.model;  (** variation family for [Predict_mc] draws *)
}

val default_config : config
(** 64-request batches, 1 ms linger, [Uniform 0.1] variation. *)

type t

val create : ?config:config -> Serve_model.t -> Unix.sockaddr -> t
(** Bind and listen (unix-domain paths are unlinked first and on close).
    After [create] returns, clients may connect — the backlog holds them
    until {!run} starts accepting.  Raises [Invalid_argument] on a bad
    config and [Unix.Unix_error] on bind failures. *)

val run : t -> unit
(** The event loop.  Blocks until a [Shutdown] request arrives or {!stop}
    is called, drains pending batches, flushes every connection, closes the
    socket, and returns.  The Monte-Carlo seed from the wire is masked to a
    non-negative int before reaching [Rng.create].  A model that raises
    answers each request it was serving with an [Error] (counted in
    [errors]) and the loop keeps serving. *)

val stop : t -> unit
(** Request a graceful stop; safe to call from any domain (atomic flag +
    self-pipe wakeup). *)

val stats : t -> Protocol.server_stats
(** Counter snapshot.  Only meaningful on the loop's own domain (a protocol
    [Stats] request) or after {!run} has returned. *)
