(** Reproduction of Table III (ablation summary) and the §IV-D headline
    claims, derived from a Table II run:

    - the four arms' dataset-averaged accuracy ± std at each test ε;
    - relative accuracy improvement and robustness (std) reduction of the
      full method vs the baseline;
    - the contribution split between the learnable nonlinear circuit and
      variation-aware training. *)

type summary_row = {
  arm : Setup.arm;
  cells : (float * Table2.cell) list;  (** per test ε *)
}

type claims = {
  epsilon : float;
  accuracy_gain : float;  (** relative: (full − baseline) / baseline *)
  robustness_gain : float;  (** relative std reduction *)
  learnable_contribution : float option;
      (** share of the accuracy improvement attributable to the learnable
          circuit (paper: 58 % @5 %, 52 % @10 %); [None] — printed
          ["undefined"] — unless both single-factor gains are ≥ 0 and their
          sum is > 1e-9 *)
  va_contribution : float option;  (** [Some] exactly when the other is *)
}

type t = { rows : summary_row list; claims : claims list }

val of_table2 : Setup.scale -> Table2.t -> t
val render : t -> string
