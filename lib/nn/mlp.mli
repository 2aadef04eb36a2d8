(** Multi-layer perceptrons.

    Used both as the paper's surrogate regression network (13 layers,
    10-9-9-8-8-7-7-6-6-6-5-5-5-4) and in tests.  Weights serialize to a plain
    text format so the surrogate pipeline can cache its artifact. *)

type t

val create :
  Rng.t ->
  sizes:int list ->
  hidden:Activation.t ->
  output:Activation.t ->
  t
(** [sizes] lists layer widths including input and output
    (e.g. [[10; 9; ...; 4]]); needs at least two entries. *)

val forward : t -> Autodiff.t -> Autodiff.t
val forward_tensor : t -> Tensor.t -> Tensor.t
val forward_frozen : t -> Autodiff.t -> Autodiff.t
(** Forward pass with the weights treated as constants: gradients flow through
    the {e input} but not into the weights.  This is how the frozen surrogate
    participates in pNN training. *)

val params : t -> Autodiff.t list
val snapshot : t -> (Tensor.t * Tensor.t) list
val restore : t -> (Tensor.t * Tensor.t) list -> unit

val to_lines : t -> string list
(** Text serialization (architecture header + one line per tensor). *)

val of_lines : string list -> t * string list
(** Parse a network from serialized lines; returns remaining lines. Raises
    [Failure] on malformed input. *)
