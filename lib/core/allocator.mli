(** The max-min fair allocation — the paper's Appendix-A algorithm,
    generalized.

    Progressive filling: start every receiver at rate 0 and raise the
    rates of all {e active} receivers uniformly as far as feasibility
    allows; freeze a receiver when its session's maximum desired rate
    [ρ_i] is reached or a link on its data-path becomes fully
    utilized; in a single-rate session, freezing any receiver freezes
    the whole session (keeping its rates equal).  Repeat until all
    receivers are frozen.  For any session-type mapping Φ this yields
    the unique max-min fair allocation (the paper's Lemma 5 /
    Corollary 5 in the companion technical report).

    Two engines compute the per-round increment:
    - {e Linear}: exact closed form, valid whenever every session's
      link-rate function is linear in the common active rate
      ([Efficient], [Scaled], [Additive]) — this is the paper's
      Appendix-A step 3.
    - {e Bisection}: binary search on the increment for arbitrary
      monotone [Custom] functions (the paper's Section-3 extension
      where [v_i] is an arbitrary redundancy function).

    The engine is not an option: each solve derives it from its input.
    Linear runs exactly when every session the solve reads has a
    linear link-rate function and every receiver it raises has unit
    weight; otherwise Bisection runs.  To drive Bisection on a linear
    network (as the engine cross-checks do), wrap its functions with
    {!Redundancy_fn.as_custom}. *)

type round = {
  increment : float;  (** The round's uniform rate increase [Δt_b]. *)
  frozen : Network.receiver_id list;
      (** Receivers removed from the active set this round, in
          ascending (session, index) order. *)
  saturated_links : Mmfair_topology.Graph.link_id list;
      (** Links fully utilized by the end of this round (those of
          earlier rounds included), ascending. *)
}
(** One iteration of the water-filling loop, for tracing/reports.

    Since the telemetry layer landed, [round] values are a {e view} of
    the probe stream: every round the solver executes is emitted as a
    {!Mmfair_obs.Events.round} event (richer — it also carries the
    bottleneck level, active-set size and residual slack), and this
    record is rebuilt from that event.  Constructing [round] lists by
    hand is deprecated; subscribe to the probe stream instead
    ([Mmfair_obs.Probe.with_sink (Mmfair_obs.Sink.make ~on_round ())
    ...]). *)

type result = { allocation : Allocation.t; rounds : round list }

val max_min : Network.t -> Allocation.t
(** [max_min net] is the max-min fair allocation of [net].  Raises
    {!Solver_error.Error} if the algorithm fails to make progress
    (only possible with a misbehaving [Custom] link-rate function that
    is not monotone).  Use {!max_min_result} for a non-raising variant.

    This is {!max_min_partial} over every session with nothing pinned,
    plus validation of the result: one solve path.  Its state lives in
    the per-domain scratch arena, grown to the largest network solved
    on that domain and then reused, so a repeated solve allocates only
    its result rows.  Cost: setup linear in sessions plus total routed
    path length (the links no receiver crosses are never visited), then
    per round O(log links) plus the path work of the receivers it
    freezes; the bisection engine and any listener on the round trace
    add a sweep of the active links per round.  Solves may nest: one
    started from an [on_round] callback or a probe sink while another
    runs on the same domain gets a fresh scratch, leaving the outer
    solve's state alone. *)

val max_min_trace : Network.t -> result
(** Like {!max_min} but also returns the per-round trace in execution
    order. *)

val max_min_result : Network.t -> (Allocation.t, Solver_error.t) Stdlib.result
(** Typed-error variant of {!max_min}: degenerate inputs and solver
    stalls come back as [Error] instead of an exception, so a sweep
    over many networks can report and skip a bad case.  Never raises
    for any constructed {!Network.t} whose [Custom] link-rate
    functions do not themselves raise. *)

val max_min_trace_result : Network.t -> (result, Solver_error.t) Stdlib.result
(** Typed-error variant of {!max_min_trace}. *)

val max_min_partial :
  sessions:int array -> frozen:float array Pvec.t -> Network.t -> Allocation.t
(** [max_min_partial ~sessions ~frozen net] is the warm-start entry
    point for incremental re-solves (the churn engine in
    [Mmfair_dynamic]): water-fill only the sessions listed in
    [sessions], holding every other session's receivers fixed at
    [(Pvec.get frozen i).(k)] as background load from round one.
    [frozen] must have one row per session of [net]; rows of listed
    sessions are ignored.  The result's rows are one {!Pvec.update} of
    [frozen] that writes the listed sessions, so every other row and
    chunk is shared with it.  Setup, per-round scans and result
    assembly all touch only the listed sessions and the links they
    cross, plus the vector's spine of [sessions / 32] pointers, so the
    cost scales with the fairness component's neighborhood, not the
    network (the state lives in a per-domain scratch arena reused
    across calls).

    This computes the exact max-min fair allocation of the {e
    restricted} problem (pinned rates as constants).  It equals the
    global [max_min] precisely when no link carrying both solved and
    pinned receivers is saturated in the combined result — the
    fairness-component invariant that [Mmfair_dynamic.Batch]
    establishes before calling (see DESIGN.md §11).

    Because only the component's neighborhood is read, validation is
    scoped the same way: rows of pinned sessions sharing a link with
    the component are checked for shape and for negative/non-finite
    rates, while rows of sessions the solve never reads are adopted
    into the returned allocation {e as-is, without copying or
    validation} — callers must treat pinned rows as immutable once
    passed.  The engine is likewise picked from the involved sessions
    only, so a [Custom] session elsewhere in the network does not
    force the component onto the bisection engine.  Raises
    [Invalid_argument] on an unknown session id, a shape mismatch or
    bad pinned rate among the rows it reads; {!Solver_error.Error} as
    for {!max_min}. *)

val max_min_partial_result :
  sessions:int array ->
  frozen:float array Pvec.t ->
  Network.t ->
  (Allocation.t, Solver_error.t) Stdlib.result
(** Typed-error variant of {!max_min_partial}. *)

val pp_trace : Format.formatter -> result -> unit
(** Human-readable water-filling narration: one line per round with
    the increment, the links that saturated, and the receivers frozen
    — the Appendix-A execution made visible (used by
    [mmfair allocate --trace]).  Kept as a thin wrapper over the
    probe-derived rounds in [result]; for machine consumption prefer
    the probe stream itself (see {!round}). *)

val bottleneck_links : Allocation.t -> Network.receiver_id -> Mmfair_topology.Graph.link_id list
(** The fully utilized links on a receiver's data-path under the given
    allocation — its max-min bottlenecks.  Empty for a receiver frozen
    by [ρ_i] alone. *)
