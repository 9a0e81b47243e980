(** Percentile-bootstrap confidence intervals.

    A nonparametric alternative to the Student-t intervals of {!Ci},
    used to sanity-check redundancy CIs whose run-to-run distribution
    is skewed (protocol redundancy is bounded below by 1, so for short
    runs the normal approximation is questionable).  Tests assert both
    methods agree on well-behaved samples. *)

val mean_ci :
  rng:Mmfair_prng.Xoshiro.t ->
  ?resamples:int ->
  ?level:float ->
  float array ->
  Ci.interval
(** [mean_ci ~rng xs] draws [resamples] (default 2000) bootstrap
    resamples of [xs] (with replacement), computes each resample's
    mean, and returns the percentile interval at [level] (default
    0.95) re-expressed as a symmetric {!Ci.interval} around the sample
    mean (half-width = half the percentile interval's width).
    Requires at least two samples. *)
