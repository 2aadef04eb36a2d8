(** Extension experiment: aging curves (accuracy over device lifetime) for
    aging-unaware vs aging-aware training — the flow of the paper's
    reference [5] running on this reproduction's stack. *)

type t = {
  dataset : string;
  t_fracs : float list;
  nominal_curve : (float * Table2.cell) list;  (** trained without aging *)
  aware_curve : (float * Table2.cell) list;  (** aging-aware training *)
}

val run : ?dataset:string -> Setup.scale -> Surrogate.Model.t -> t
(** Default dataset ["seeds"].  The drift law is
    [Variation.Aging { kappa_max = 0.2; beta = 0.5 }].  Per curve, seeds 1–3
    train — aging-aware training samples the life fraction per draw — and
    {!Seeds.train} keeps the best validation loss; the chosen network gets
    40 Monte-Carlo draws per life point, every point drawing in order from
    one [Rng.create 555] stream. *)

val render : t -> string
