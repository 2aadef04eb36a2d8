(** Persistence for trained printed neural networks.

    A saved pNN bundles the θ matrices, both nonlinear circuits' raw 𝔴 per
    layer and the training configuration — everything needed to re-evaluate
    or print the design later.  The frozen surrogate is {e not} embedded (it
    is a shared artifact with its own cache); [load] takes it as an input and
    checks the architecture matches.

    Files written since format version 2 start with a ["pnn-save <version>"]
    header line; {!of_lines} also accepts the original headerless layout
    (whose first line is the ["pnn <n>"] layer count) and rejects unknown or
    future versions with [Failure] rather than misparsing them. *)

val schema_tag : string
(** Canonical name of the current on-disk format (["pnn-save-2"]).  Cache
    keys fold this in so any format bump re-keys the store. *)

val cache_schema : unit -> string
(** {!schema_tag} plus the numerics tag (["pnn-save-2+fmath-1"]) — the
    schema string experiment cache keys must use.  The tag names the
    numerics of the tensor kernels, held to the oracle in test/oracle.ml,
    and of their tanh ({!Fmath}); a change to any kernel's bits must change
    it. *)

val config_line : Config.t -> string
val config_of_line : string -> Config.t
(** Config line codec.  [config_of_line] accepts both the current 12-field
    format and pre-[val_every] 11-field lines (defaulting [val_every] to 5).
    Raises [Failure] on malformed input. *)

val to_lines : Network.t -> string list
val of_lines : Surrogate.Model.t -> string list -> Network.t * string list
(** Raises [Failure] on malformed input. *)

val digest : Network.t -> string
(** MD5 hex of the canonical serialization — the content hash used to key
    evaluation results on the exact trained weights. *)

val save_file : Network.t -> string -> unit
(** Atomic publish (temp file + rename): a concurrent reader sees the old
    file or the new one, never a partial write. *)

val load_file : Surrogate.Model.t -> string -> Network.t
(** Raises [Failure] naming [path] on malformed content. *)
