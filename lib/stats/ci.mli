(** Confidence intervals for means of repeated experiment runs.

    The paper reports each Figure-8 point as "the mean of 30
    experiments … the variance is less than 1% with 95% confidence".
    This module provides the matching Student-t interval machinery so
    the reproduction can report the same statistic. *)

type interval = {
  mean : float;       (** Point estimate. *)
  half_width : float; (** Half-width of the two-sided interval. *)
  level : float;      (** Confidence level, e.g. [0.95]. *)
  n : int;            (** Number of samples behind the estimate. *)
}
(** A two-sided confidence interval [mean ± half_width]. *)

val t_critical : level:float -> df:int -> float
(** [t_critical ~level ~df] is the two-sided critical value of
    Student's t distribution with [df] degrees of freedom: the [x] with
    [P(−x ≤ T ≤ x) = level].  Supported levels are [0.90], [0.95] and
    [0.99]; other levels raise [Invalid_argument].  [df] must be
    positive; values above the table use the normal limit. *)

val of_samples : ?level:float -> float array -> interval
(** [of_samples ~level xs] is the Student-t confidence interval for the
    mean of [xs] (default level [0.95]).  Requires at least two
    samples. *)

val pp : Format.formatter -> interval -> unit
(** Renders as ["m ± h (95% CI, n=30)"]. *)
