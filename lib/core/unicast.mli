(** Classic unicast max-min fairness (Bertsekas & Gallagher).

    The paper grounds its definitions in the unicast case: Definition
    1 restricted to single-receiver sessions must reproduce the
    textbook max-min fair allocation (its reference [2]), and Unicast
    Fairness Properties 1 and 2 are the seeds of Fairness Properties
    1–4.  This module implements the textbook algorithm {e
    independently} of the multicast allocator — the standard
    iterative bottleneck construction over flows — so the reduction
    claim is machine-checked.  Unicast Fairness Properties 1 and 2 are
    Fairness Properties 1 and 2 on single-receiver sessions, so
    {!Properties} checks them on [Allocation.make] of the flow
    rates. *)

val max_min_flow_rates : Network.t -> float array
(** The Bertsekas–Gallagher construction: repeatedly find the link
    with the smallest equal share among its remaining flows, fix those
    flows at that share, remove the link's capacity, and continue.
    One rate per session; requires every session to be unicast (one
    receiver) with the efficient link-rate function and unit weights
    ([Invalid_argument] otherwise; {!Solver_error.Error} if the
    construction stalls).  [ρ_i] limits are honored. *)

val max_min_flow_rates_result : Network.t -> (float array, Solver_error.t) result
(** Typed-error variant of {!max_min_flow_rates}: contract violations
    and stalls come back as [Error] instead of raising. *)

val agrees_with_general_allocator : ?eps:float -> Network.t -> bool
(** Whether this construction matches {!Allocator.max_min} on the
    network (the paper's base-case sanity: both must yield the unique
    unicast max-min fair allocation). *)
