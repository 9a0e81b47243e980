(** One signature for a max-min solver.

    The churn engine ([Mmfair_dynamic.Batch]) takes its solver as a
    value of this type: {!default} in production, a wrapped one in
    benchmarks (a span around every call) and tests (recording or
    failing solves).  The session-rate {!Tzeng_siu} and unicast
    {!Unicast} comparators solve other fairness definitions and are
    called directly by the differential harnesses, not through here. *)

type capabilities = {
  partial : bool;
      (** Whether {!S.solve_partial} is a genuine warm start.  Engines
          without it reject partial solves, so the churn engine
          ([Mmfair_dynamic.Batch.create]) refuses them. *)
}

module type S = sig
  val name : string
  (** The solver tag carried by its probe events
      ({!Mmfair_obs.Events.round}[.solver]): every engine's solve
      narrates its water-filling rounds through the process-wide probe
      ({!Mmfair_obs.Probe}), so telemetry sinks see a uniform stream
      no matter which engine ran. *)

  val capabilities : capabilities

  val solve : Network.t -> Allocation.t
  (** The engine's max-min fair allocation of the network.  Raises
      [Invalid_argument] on a malformed network and
      {!Solver_error.Error} on solver failure. *)

  val solve_result : Network.t -> (Allocation.t, Solver_error.t) result
  (** Typed-error variant of {!solve}. *)

  val solve_partial :
    sessions:int array -> frozen:float array Pvec.t -> Network.t -> Allocation.t
  (** Warm-start restricted solve — the contract of
      {!Allocator.max_min_partial}: water-fill only [sessions],
      pinning every other session's receivers at their [frozen] rows.
      Raises [Invalid_argument] when [capabilities.partial] is
      [false]. *)

  val solve_partial_result :
    sessions:int array ->
    frozen:float array Pvec.t ->
    Network.t ->
    (Allocation.t, Solver_error.t) result
  (** Typed-error variant of {!solve_partial}. *)
end

type t = (module S)
(** A solver as a first-class value. *)

val name : t -> string
val capabilities : t -> capabilities

val allocator : t
(** The optimized incidence-indexed water-filling allocator
    ({!Allocator}), warm-start partial solves included.  Each solve
    picks its per-round increment engine from the network (see
    {!Allocator}). *)

val allocator_reference : t
(** The frozen pre-optimization oracle ({!Allocator_reference}) — same
    receiver-rate definition and the same input-derived engine choice,
    no partial solves.  Keep for differential checks; do not put it on
    a hot path. *)

val default : t
(** {!allocator}. *)
