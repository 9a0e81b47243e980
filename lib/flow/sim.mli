(** Virtual-time fluid simulation of flow-level session churn.

    No packet events: between epochs every active flow drains its
    residual workload at its current max-min fair rate, so the next
    event is simply the earliest of (next Poisson arrival, earliest
    completion [residual / rate], next flash-crowd pulse, horizon).
    At each epoch the arrivals/departures landing at that instant are
    coalesced into one {!Mmfair_dynamic.Batch.apply} (slot activations
    and parkings as [Rho_change] events) and every active flow's rate
    is refreshed from the new allocation — processor-sharing fluid
    dynamics with the allocator as the service discipline, exactly the
    model in which stability is governed by nominal load
    ({!Scenario.offered_load}).  The engine is
    {!Mmfair_dynamic.Batch.create} with the default solver; each
    epoch's water-filling increment engine follows from the scenario's
    network ({!Mmfair_core.Allocator}), so no config field picks it.

    Determinism: per-class child PRNGs are split off the master seed in
    class order, and the engine's allocations are bitwise identical at
    every domain count, so (seed, scenario, config) fully determines
    the trajectory — including across [domains] settings. *)

type config = {
  horizon : float;  (** Virtual-time end of the run. *)
  seed : int64;  (** Master seed; split per class. *)
  domains : int;  (** Domain-pool size for component solves (≥ 1). *)
  pulses : (float * int) list;
      (** Flash crowds: at each [(time, n)], [n] simultaneous extra
          arrivals are injected round-robin across classes as one
          coalesced epoch. *)
  series_capacity : int;  (** Windows per {!Mmfair_obs.Timeseries} series. *)
  record_departures : bool;  (** Keep the full departure log (tests). *)
}

val default : config
(** horizon 100, seed [0x5EED_F10A], 1 domain, no
    pulses, 256 windows, no departure log. *)

type departure = {
  d_time : float;
  d_cls : int;
  d_slot : int;
  d_size : float;
  d_sojourn : float;
}

type result = {
  offered_load : float;  (** The scenario's [max_j rho_j]. *)
  horizon : float;
  arrivals : int;  (** All offered flows, admitted or not (pulses included). *)
  departures : int;  (** Completed flows. *)
  blocked : int;  (** Arrivals lost to an exhausted slot pool. *)
  pulse_arrivals : int;  (** Arrivals injected by pulses (subset of [arrivals]). *)
  epochs : int;  (** Batch applications (re-solve instants). *)
  applied_events : int;  (** Churn events across all epochs. *)
  final_population : int;
  max_population : int;  (** Running max of flows in system. *)
  time_avg_population : float;  (** [(1/T) integral of N(t) dt]. *)
  first_half_mean : float;  (** Time-average of [N] over [[0, T/2)]. *)
  second_half_mean : float;  (** …and over [[T/2, T)] — the drift statistic's halves. *)
  regenerations : int;  (** Returns of the population to zero. *)
  sojourn : Mmfair_stats.Log_histogram.t;  (** Per completed flow: time in system. *)
  flow_rate : Mmfair_stats.Log_histogram.t;
      (** Per completed flow: average fair rate [size / sojourn]. *)
  series : Mmfair_obs.Timeseries.t;
      (** [flow.population] / [flow.departures] / [flow.blocked] keyed
          by virtual time. *)
  departure_log : departure list;  (** Oldest first; empty unless recorded. *)
}

val mean_sojourn : result -> float
(** Exact mean over completed flows ([nan] when none) — with the
    completion rate this is the Little's-law side
    [lambda_hat * E[sojourn]] the tests check against
    [time_avg_population]. *)

val completion_rate : result -> float
(** [departures / horizon]. *)

val run : ?config:config -> Scenario.t -> result
(** Simulate the scenario to the horizon.  Raises [Invalid_argument] on
    a non-positive or non-finite horizon, [domains < 1],
    [series_capacity < 2] or a malformed pulse — all before the initial
    solve; solver errors propagate as
    {!Mmfair_core.Solver_error.Error}. *)
