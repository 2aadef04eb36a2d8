(** Request coalescing for the inference server: a batch releases when it
    fills ([max_batch]) or when its oldest item has waited [linger] seconds.

    The module never reads a clock — callers pass [now] in.  Time may
    schedule work; it must never produce results (pnnlint R2), and a clock
    taken as data makes the policy testable with synthetic timestamps. *)

type 'a t

val create : max_batch:int -> linger:float -> 'a t
(** Raises [Invalid_argument] on [max_batch < 1] or a negative/non-finite
    [linger] (seconds). *)

val pending : 'a t -> int

val push : 'a t -> now:float -> 'a -> unit

val next_deadline : 'a t -> float option
(** Absolute time the front item's linger expires; [None] when empty.  The
    server's [select] timeout. *)

val pop_ready : 'a t -> now:float -> 'a list
(** At most one batch, in admission order: [max_batch] items if full,
    everything pending if the front item's deadline has passed, [[]]
    otherwise.  Loop while full batches keep coming. *)

val drain : 'a t -> 'a list list
(** Unconditional drain (shutdown): all pending items in admission order,
    chunked at [max_batch]. *)
