(** Content-addressed on-disk experiment cache.

    An entry is a list of text lines stored under
    [dir/<kind>/<key>.pce], where [key] is the MD5 of a canonical
    serialization of everything the artifact depends on (config, dataset id,
    seed, variation arm, schema version, ...).  Entries are self-verifying:
    each file carries a header with a magic string, a format version, its
    kind and a checksum of the body, so truncation, bit rot and schema drift
    all degrade to a {e miss} — never a misparse.  Writes go through a
    temp-file-plus-rename, so concurrent writers (pool workers racing on the
    same key) can only ever publish complete entries.

    The store is purely an optimization layer: every caller wraps a
    deterministic computation with {!memoize}, so a hit returns a value
    bit-identical to a fresh compute and a corrupted entry is silently
    recomputed and rewritten. *)

val mkdir_p : string -> unit
(** Recursive, EEXIST-tolerant directory creation: safe against the
    create/create race (two processes may call it on the same path
    concurrently and both succeed).  The shared helper for every module that
    materializes directories other processes may be creating too — ad-hoc
    [if not (Sys.file_exists d) then Sys.mkdir d] sequences are exactly the
    TOCTOU this exists to replace. *)

(** {1 Checksummed atomic blob files}

    The file layer under the keyed store; also used directly by training
    checkpoints, which are addressed by path rather than by content key. *)
module Blob : sig
  type read_result = Valid of string list | Corrupt | Missing

  val write : tag:string -> string -> string list -> int
  (** [write ~tag path lines] atomically writes a checksummed blob (temp file
      + rename; parent directories are created).  [tag] must not contain
      spaces or newlines; it is verified on read.  Returns the body byte
      count. *)

  val read : tag:string -> string -> read_result
  (** Verifies magic, format version, [tag] and the body checksum; any
      mismatch (including a newer format version: schema drift) is
      [Corrupt]. *)
end

(** {1 The keyed store} *)

type t

val create : dir:string -> t
(** An enabled cache rooted at [dir] (created lazily on first write). *)

val disabled : unit -> t
(** A no-op cache: {!find} always misses and {!store} does nothing.  Stats
    still count the misses. *)

val enabled : t -> bool
val dir : t -> string option

val key : schema:string -> kind:string -> string list -> string
(** [key ~schema ~kind parts] is the content address: the MD5 hex digest of
    the canonical concatenation of [schema], [kind] and [parts].  [schema]
    is the serialization-format tag (bumped with [Serialize]), so any format
    change re-keys the whole store instead of misparsing old entries. *)

val digest_lines : string list -> string
(** MD5 hex of a canonical line list — the helper for content-hashing inputs
    (networks, tensors, candidate chunks) into {!key} parts. *)

(** {1 Stats} *)

type stats = {
  hits : int Atomic.t;
  misses : int Atomic.t;
  corrupt : int Atomic.t;  (** entries found damaged and degraded to a miss *)
  bytes_read : int Atomic.t;
  bytes_written : int Atomic.t;
}

val stats : t -> stats
val summary : t -> string
(** One-line human-readable stats, e.g.
    ["cache _cache: 12 hits, 3 misses (1 corrupt), 1.2 MiB read, 0.4 MiB written"]. *)

(** {1 Entry operations} *)

val find : t -> kind:string -> key:string -> string list option
(** [Some lines] on a verified hit; [None] on a miss.  A corrupt entry is
    deleted, counted, and reported as a miss. *)

val store : t -> kind:string -> key:string -> string list -> unit
(** Atomic publish; no-op when disabled. *)

val memoize :
  t ->
  kind:string ->
  key:string ->
  encode:('a -> string list) ->
  decode:(string list -> 'a) ->
  (unit -> 'a) ->
  'a
(** [memoize t ~kind ~key ~encode ~decode f] returns the cached value when a
    verified entry decodes, else runs [f], stores [encode (f ())] and returns
    it.  A decode failure counts as corruption and falls back to recompute +
    rewrite.  When [t] is disabled this is exactly [f ()]. *)

val member_path : t -> kind:string -> key:string -> string option
(** The on-disk path an entry for this key would use — the hook for
    path-addressed artifacts living inside the cache tree (training
    checkpoints).  [None] when disabled. *)

(** {1 Maintenance (cache_tool)} *)

type entry = {
  path : string;
  kind : string;
  key : string;
  bytes : int;
  mtime : float;
  valid : bool;
}

val entries : ?check:bool -> dir:string -> unit -> entry list
(** Every [*.pce] entry under [dir], sorted by kind then key.  With
    [check:true] (default false) each entry's checksum is verified into
    [valid]. *)

val default_tmp_stale_age : float
(** Seconds a writer temp file must sit untouched before {!gc} may reclaim
    it (600 s).  Far longer than any single atomic publish, far shorter than
    a human-scale gc cadence. *)

val stale_tmp_files :
  ?stale_age:float -> now:float -> dir:string -> unit -> string list
(** Writer temp files ([<key>.pce.tmp.<pid>.<domain>.<counter>], matched by
    an exact filename parse — an entry whose {e key} merely contains the
    marker is never misclassified) whose mtime is more than [stale_age]
    (default {!default_tmp_stale_age}) before [now].  Younger temp files
    belong to potentially live writers and are left alone so their
    publishing rename cannot be broken. *)

val gc :
  ?max_age_days:float ->
  ?tmp_stale_age:float ->
  ?all:bool ->
  dir:string -> unit -> int * int
(** [gc ~dir ()] deletes invalid entries and writer temp files older than
    [tmp_stale_age] (see {!stale_tmp_files}; a concurrent writer's in-flight
    temp is younger than that and survives, so gc can run while writers are
    publishing); with [max_age_days] also entries older than that; with
    [all:true] every entry and every temp file regardless of age.  Returns
    [(removed, kept)]. *)

(** {1 Exclusive publish (claim files)} *)

val publish_exclusive : string -> string -> bool
(** [publish_exclusive path content] atomically creates [path] with
    [content] and returns [true] iff no file existed there — the same
    temp-file write discipline as {!Blob.write}, published with a hard link
    (which fails on an existing destination) instead of a rename (which
    silently replaces).  The test-and-set primitive for directory-based
    claim files: of any number of concurrent callers exactly one wins.
    Returns [false] to the losers; the temp file is always cleaned up. *)

val replace_file : string -> string -> unit
(** Atomic unconditional overwrite (temp + rename; parent directories are
    created) — the companion of {!publish_exclusive} for refreshing a file
    the caller already owns (renewing a claim's lease) and for publishing
    an artifact other processes may be loading (a saved pNN or surrogate,
    a result CSV): a reader sees the old bytes or the new, never a partial
    write. *)
