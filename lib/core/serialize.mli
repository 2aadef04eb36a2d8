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
(** {!schema_tag} plus the active kernel backend's tag (e.g.
    ["pnn-save-2+ref"], ["pnn-save-2+c64"]) — the schema string experiment
    cache keys must use, so results computed on one backend are never served
    to a run on another (backends may differ in the last ulp of matmul
    accumulation).  Evaluated at call time: it follows
    [Tensor.set_backend]. *)

val float_line : float array -> string
(** Space-joined [%h] hex floats — bit-exact round-trips including ±inf,
    −0.0 and signed NaN. *)

val floats_of_words : string list -> float array
(** Parse a list of [%h] (or decimal) float words back.  Raises [Failure] on
    malformed input. *)

val rng_line : Rng.t -> string
val rng_of_line : string -> Rng.t
(** RNG stream-position codec (["rng <s0> <s1> <s2> <s3>"], hex words).  The
    restored generator continues the stream bit-exactly.  Raises [Failure] on
    malformed input. *)

val tensor_line : Tensor.t -> string
val tensor_of_line : string -> Tensor.t
(** Single-tensor line codec ([rows cols v0 v1 …] with [%h] hex floats —
    bit-exact round-trips including ±inf, −0.0 and signed NaN; NaN payloads
    are canonicalized by [%h]).  Raises [Failure] on malformed input. *)

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
val load_file : Surrogate.Model.t -> string -> Network.t
