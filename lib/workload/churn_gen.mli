(** Seeded random churn traces for the incremental engine.

    Draws a mixed stream of {!Mmfair_dynamic.Event.t} over a given
    network, tracking the {e evolving} membership so every event is
    applicable when replayed in order: joins only add nodes not yet in
    the session, leaves only target sessions that keep at least one
    receiver, capacities stay within a factor band of their original
    values (no drift to zero or infinity).  Generation is driven
    entirely by the given PRNG — one seed, one trace — which is what
    the differential gate and [BENCH_churn.json] rely on for
    reproducibility. *)

(** The tree's one Poisson arrival-process implementation.  Flow-level
    session arrivals ({!Mmfair_flow.Sim}), the open-loop pacing of
    [mmfair churnd-load --poisson], and {!generate_timed} all draw
    their arrival instants here, so a fixed seed produces the same
    instants wherever the process is consumed — no second drifting
    copy of the exponential-gap sampling. *)
module Arrivals : sig
  type t
  (** A mutable arrival stream: the next arrival instant is always
      scheduled (memoryless, so scheduling ahead loses nothing). *)

  val poisson : ?start:float -> rate:float -> Mmfair_prng.Xoshiro.t -> t
  (** [poisson ~rate rng] is a Poisson process of intensity [rate]
      (arrivals per unit time) beginning at [start] (default 0): the
      first arrival lands at [start + Exp(rate)].  The process draws
      from — and advances — [rng].  Raises [Invalid_argument] unless
      [rate] is finite and positive and [start] is finite. *)

  val peek : t -> float
  (** The next arrival instant, without consuming it. *)

  val pop : t -> float
  (** Consume and return the next arrival instant, scheduling its
      successor. *)
end

type config = {
  events : int;  (** Trace length (≥ 0); may come out shorter only when no class stays applicable. *)
  join_weight : float;  (** Relative frequency of [Join] events (≥ 0). *)
  leave_weight : float;  (** Relative frequency of [Leave] events. *)
  rho_weight : float;  (** Relative frequency of [Rho_change] events. *)
  cap_weight : float;  (** Relative frequency of [Capacity_change] events. *)
  max_receivers : int;  (** Per-session membership cap joins respect (≥ 1). *)
  rho_inf_prob : float;  (** Probability a [Rho_change] lifts the bound ([infinity]). *)
  cap_lo_factor : float;  (** New capacity ≥ this factor of the link's original capacity. *)
  cap_hi_factor : float;  (** …and ≤ this factor. *)
}

val default : config
(** 100 events: 35% join, 35% leave, 15% rho, 15% cap; sessions grow
    to ≤ 6 receivers; 25% of rho changes lift the bound; capacities
    wander in [[0.5, 1.5]] of their original value. *)

val generate : rng:Mmfair_prng.Xoshiro.t -> Mmfair_core.Network.t -> config -> Mmfair_dynamic.Event.t list
(** Draws a trace over the network.  Deterministic per PRNG state.
    Raises [Invalid_argument] on a config violating the field
    constraints.  Classes that are momentarily inapplicable (every
    session full, or down to one receiver) are skipped for that draw;
    the trace can therefore be shorter than [config.events] in
    degenerate cases (a bounded number of redraws guards against
    non-termination). *)

val generate_timed :
  rng:Mmfair_prng.Xoshiro.t ->
  Mmfair_core.Network.t ->
  config ->
  rate:float ->
  (float * Mmfair_dynamic.Event.t) list
(** {!generate}, then stamp each event with a {!Arrivals.poisson}
    arrival instant of intensity [rate] drawn from the same [rng]
    (ascending from time 0).  The event sequence is exactly what
    {!generate} would produce for the same rng state; only the
    timestamps consume further draws.  This is the open-loop trace
    behind [mmfair churnd-load --poisson]. *)
