(** The text-line codec every on-disk format is built from.

    Saved pNNs, the surrogate artifact, training checkpoints, optimizer
    moments and every cache payload are lists of space-separated text lines
    with floats in [%h] hex, so a round trip is bit-exact (±inf and −0.0
    included) for every value but NaN: any NaN is written as [nan], which
    reads back as [float_of_string "nan"].  The writers' bytes feed content
    digests and cache keys, so they are frozen.

    Every reader takes [~fmt], the name of the format being read, and raises
    only [Failure "<fmt>: …"]: never [Invalid_argument], [Not_found] or a
    bare ["int_of_string"].  A declared count is checked against the words
    or lines present before anything of that size is allocated. *)

(** {1 Writers} *)

val canonical : float -> float
(** [x], or the quiet NaN with bits [0x7ff8000000000001] ([Float.nan] on
    OCaml 5.1) when [x] is a NaN of any payload or sign: the one NaN
    written where bits leave the process.  The kernels promise a NaN where
    their oracle has one but not which NaN, so a writer that copied a NaN's
    payload or sign would make bytes depend on the vector body that made
    it.  {!float_line} and the wire protocol's float fields write through
    it. *)

val float_line : float array -> string
(** Space-joined [%h] words of {!canonical}'s values; [""] for an empty
    array. *)

val counted_line : string -> float array -> string
(** ["label n v0 … v(n-1)"]; just ["label 0"] when empty. *)

val tensor_line : Tensor.t -> string
(** ["rows cols v0 v1 …"], row-major.  An empty tensor keeps the separator
    after [cols] (["0 2 "]). *)

val rng_line : Rng.t -> string
(** ["rng s0 s1 s2 s3"], the generator's state words in hex. *)

val text : string list -> string
(** A file body: each line followed by ["\n"]. *)

(** {1 Readers} *)

val words : string -> string list
(** The space-separated words of a trimmed line; [[]] for a blank one. *)

val field : fmt:string -> string -> (string -> 'a option) -> string -> 'a
(** [field ~fmt what parse word] is [parse word], or [Failure "<fmt>: bad
    <what> <word>"] when that is [None]. *)

val int_field : fmt:string -> string -> string -> int
val float_field : fmt:string -> string -> string -> float
val bool_field : fmt:string -> string -> string -> bool

val count_field : fmt:string -> string -> string -> int
(** A non-negative integer. *)

val floats : fmt:string -> string -> n:int -> string list -> float array
(** Exactly [n] float words. *)

val counted_of_line : fmt:string -> string -> string -> float array
(** Reads {!counted_line}'s format under the given label. *)

val tensor_of_line : fmt:string -> string -> Tensor.t
val rng_of_line : fmt:string -> string -> Rng.t

val take :
  fmt:string ->
  string ->
  n:int ->
  width:int ->
  ((int -> string) -> 'a) ->
  string list ->
  'a list * string list
(** [take ~fmt what ~n ~width record lines] reads a section of [n] records
    of [width] lines each ([record] gets the record's [i]-th line as
    [line i]) and returns the lines after it.  Fails before reading any
    record when fewer than [n × width] lines remain. *)

val read_file : string -> string list
(** A file's lines, newlines stripped.  Raises [Sys_error] when it cannot
    be read. *)
