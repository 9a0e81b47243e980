(** The incremental churn engine: epoch-to-epoch max-min re-solves.

    On each event the engine computes the {e fairness component} — the
    sessions transitively coupled to the touched session or link
    through binding (saturated within [1e-7] relative slack) links —
    freezes every session outside it at its previous-epoch rates, and
    re-runs water-filling only inside
    ({!Mmfair_core.Allocator.max_min_partial}).  A restricted solve
    whose result saturates a link shared with frozen sessions is not
    yet sound; such boundary links' sessions are absorbed and the
    component re-solved until no saturated link crosses the boundary,
    at which point the problem decomposes and the restricted optimum
    {e is} the global max-min fair allocation (DESIGN.md §11).  When
    the component grows to the whole network the engine falls back to
    a plain from-scratch solve.

    The component/freeze/boundary machinery lives in
    {!Mmfair_core.Component}; the application path lives in {!Batch} —
    {!apply} is exactly [Batch.apply] with a singleton batch ([t] {e
    is} [Batch.t], and the equality is exposed so callers can mix
    per-event and coalesced application on one engine).  This module
    keeps the original per-event interface: per-event stats carrying
    the event's kind.  An engine is made by {!Batch.create} with the
    default solver, whose restricted solves pick the water-filling
    increment engine from the network itself
    ({!Mmfair_core.Allocator}).

    The differential harness ([test/churn_differential.ml], CI-gated)
    asserts after every event that the result matches
    [Allocator.max_min] from scratch within [1e-9]. *)

type stats = {
  kind : string;  (** {!Event.kind} of the applied event. *)
  component_sessions : int;  (** Sessions re-solved this epoch. *)
  component_receivers : int;  (** Receivers re-solved this epoch. *)
  total_receivers : int;  (** Receivers in the post-event network. *)
  reuse_fraction : float;  (** Receivers carried over frozen / total; 0 on a full solve. *)
  full_solve : bool;  (** Whether the engine fell back to from-scratch. *)
  solves : int;  (** Water-filling passes run (1 + boundary expansions; 0 when nothing could move). *)
}
(** What one {!apply} did — also emitted as an [epoch] probe event
    ({!Mmfair_obs.Events.epoch}) for the telemetry sinks. *)

type t = Batch.t
(** A churn engine {e is} a batch engine ({!Batch.create}). *)

val network : t -> Mmfair_core.Network.t
(** The current (post-last-event) network. *)

val allocation : t -> Mmfair_core.Allocation.t
(** The current epoch's max-min fair allocation. *)

val epoch : t -> int
val store : t -> Store.t

val apply : t -> Event.t -> stats
(** Apply one churn event: network surgery, component construction,
    restricted solve(s), store push, [epoch] probe emission.  Raises
    [Invalid_argument] on an event that does not type-check against
    the current network (unknown session/link/node, leave of an
    absent receiver, a join that would empty-out validation — see
    {!Mmfair_core.Network.with_receiver}) and {!Mmfair_core.Solver_error.Error}
    as the underlying solver does.  On a raise the engine state is
    unchanged (surgery and solve happen before any mutation). *)

val apply_result : t -> Event.t -> (stats, Mmfair_core.Solver_error.t) result
(** Typed-error variant of {!apply}. *)
