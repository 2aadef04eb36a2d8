(** Descriptive statistics over float arrays (used for Monte-Carlo result
    aggregation: the paper reports mean ± std over variation samples). *)

val mean : float array -> float
(** Arithmetic mean. Raises [Invalid_argument] on empty input. *)

val variance : float array -> float
(** Population variance (divides by [n], matching the Monte-Carlo estimator of
    the paper's reported std over test samples). *)

val std : float array -> float
val min : float array -> float
val max : float array -> float
val median : float array -> float
val quantile : float array -> float -> float
(** [quantile a q] with [q] in [\[0,1]]; linear interpolation between order
    statistics (sorted with [Float.compare]).  Raises [Invalid_argument] on
    empty input, [q] outside [\[0,1]], or any NaN entry (a NaN has no order
    statistic). *)

