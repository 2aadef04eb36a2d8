(** The trained surrogate nonlinear-circuit model η̂(ω).

    Wraps the regression MLP together with the two min-max scalers.  Input is
    the raw physical ω (7 values); internally the vector is extended with the
    ratio features and normalized, and the network's normalized output is
    denormalized back to η (paper Fig. 5, right half). *)

type t = { mlp : Nn.Mlp.t; omega_scaler : Scaler.t; eta_scaler : Scaler.t }

val paper_arch : int list
(** The paper's 13-layer architecture: 10-9-9-8-8-7-7-6-6-6-5-5-5-4. *)

val eval : t -> float array -> Fit.Ptanh.eta
(** Predict η for one raw ω. *)

val features_ad : t -> Autodiff.t -> Autodiff.t
(** The surrogate's input features for a batch of raw ω, as one tape node
    ([n × 7] → [n × 10]): {!Design_space.extend}'s ratios k1, k2, k3
    appended, then min-max normalised — the network's input in {!eval}. *)

val eval_ad : t -> Autodiff.t -> Autodiff.t
(** Differentiable η̂ for a batch of raw ω ([n × 7] node → [n × 4] node).
    The MLP weights are frozen: gradients flow into ω only. *)

val to_lines : t -> string list
val of_lines : string list -> t * string list
(** Raises [Failure] on malformed input: a bad word, a count that disagrees
    with what follows, an unknown activation or a weight whose shape
    disagrees with the [mlp] header. *)

val save_file : t -> string -> unit
(** Atomic publish (temp file + rename): a process loading [path]
    concurrently sees the old file or the new one, never a partial write. *)

val load_file : string -> t
