(** Empirical stability detection for flow-level runs.

    Stability theory for bandwidth-sharing networks (Bramson;
    de Veciana–Lee–Konstantopoulos) predicts that a max-min served
    network with Poisson arrivals is stable exactly when every link's
    nominal load is below 1.  This module turns one {!Sim.result} into
    a verdict on which side of that boundary the run behaved: the test
    statistic compares the time-averaged population over the run's two
    halves.  A positive-recurrent population gives two estimates of the
    same mean (ratio near 1); sustained overload grows the population
    linearly, so the second half's average is ≈ 3× the first's —
    robustly separated from the stable case by a factor-plus-slack
    band.  Regeneration counting (returns to empty) is reported but not
    decisive: with many classes the all-empty state is exponentially
    rare even deep inside the stable region. *)

type verdict = Stable | Divergent | Inconclusive

val verdict_to_string : verdict -> string
(** ["stable"] / ["divergent"] / ["inconclusive"] — the JSON/CLI
    spelling. *)

val schema_id : string
(** The [schema] field of [mmfair stability --json]'s report:
    ["mmfair.stability/v1"]. *)

type config = {
  growth_factor : float;  (** Divergent when [m2 > m1 * factor + slack] (≥ 1). *)
  growth_slack : float;  (** Additive guard so near-empty runs can't trip the ratio (≥ 0). *)
  min_arrivals : int;  (** Below this sample size the run is Inconclusive (≥ 1). *)
}

val default : config
(** factor 1.5, slack 3.0, 20 arrivals — separates linear growth
    (ratio ≈ 3) from stationary fluctuation with margin on both
    sides. *)

type report = {
  verdict : verdict;
  offered_load : float;
  first_half_mean : float;
  second_half_mean : float;
  drift_per_time : float;  (** [(m2 - m1) / (T/2)] — flows of net growth per unit time. *)
  max_population : int;
  time_avg_population : float;
  regenerations : int;
}

val assess : ?config:config -> Sim.result -> report
(** Raises [Invalid_argument] on a config violating the field
    constraints. *)
