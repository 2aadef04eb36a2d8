(** Directory-based work queue for multi-process experiment sharding.

    State is three sibling directories under a queue root — [units/]
    (one file per work unit), [claims/] (exclusive leases) and [done/]
    (completion markers) — mutated exclusively through the cache layer's
    atomic-publish discipline ({!Cache.publish_exclusive} /
    {!Cache.replace_file}), so any number of worker processes can claim,
    renew, steal and complete units with no other coordination than the
    filesystem.

    Claims are {e leases}: a claim expires [lease] seconds after its last
    renewal, and an expired claim may be stolen by any worker
    ({!steal_expired}, or {!acquire} which folds the steal in).  A stolen
    unit may still be computed by its original (slow, not dead) owner; that
    is safe by construction because unit ids are cache content addresses —
    duplicate execution republishes the identical entry.

    The module never reads a clock: every time-dependent operation takes
    [~now], so the protocol is deterministic under test. *)

type t

val init : root:string -> units:(string * string) list -> t
(** [init ~root ~units] creates the queue directories and publishes one unit
    file per [(key, description)].  Idempotent: existing unit files (and any
    claims / done markers) are left untouched, so re-running an interrupted
    orchestration resumes it. *)

val load : root:string -> t
(** Attach to a queue without adding units (creates empty directories if
    missing). *)

val unit_keys : t -> string list
(** All unit keys, sorted (deterministic scan order). *)

val pending : t -> string list
(** Sorted unit keys without a done marker (claimed-but-unfinished units are
    still pending). *)

val is_done : t -> string -> bool

type claim = { owner : string; expires : float }

val read_claim : t -> string -> claim option
(** [None] if unclaimed or the claim file is unreadable/corrupt, a
    non-finite expiry included (a corrupt claim reads as unclaimed, so a
    torn write degrades to a re-claim). *)

val claim : t -> owner:string -> now:float -> lease:float -> string -> bool
(** Atomically take the unit's claim file; [true] iff this caller created
    it.  [false] when already claimed, already done, or not a known unit. *)

val renew : t -> owner:string -> now:float -> lease:float -> string -> bool
(** Extend own lease to [now +. lease]; [false] (no write) when the claim is
    gone or owned by someone else — the signal that the unit was stolen. *)

val steal_expired : t -> now:float -> string -> bool
(** Remove the unit's claim iff it is stealable: expired ([expires <= now])
    or unparseable (a torn claim belongs to nobody and must not wedge its
    unit).  Of any number of concurrent stealers exactly one returns [true]
    (arbitrated by an atomic rename); the winner still has to {!claim}
    normally. *)

val release : t -> owner:string -> string -> unit
(** Drop own claim (no-op if stolen meanwhile). *)

val mark_done : t -> string -> unit
(** Publish the completion marker.  Idempotent. *)

val acquire : t -> owner:string -> now:float -> lease:float -> string option
(** First claimable pending unit in sorted order: unclaimed, or expired (in
    which case it is stolen first).  [None] when nothing is claimable right
    now — the caller should wait for leases to expire or workers to finish. *)
