(** One signature over the whole solver stack.

    The repo grew four independent max-min solvers — the optimized
    water-filling {!Allocator}, its frozen {!Allocator_reference}
    oracle, the session-rate {!Tzeng_siu} comparator and the textbook
    {!Unicast} construction — each with its own ad-hoc entry points.
    [Solve_engine] puts them behind one module type so higher layers
    (the churn engine's batch re-solves, differential harnesses,
    future domain-sharded schedulers) can take a solver as a value and
    stay agnostic about which one they drive.

    This mirrors how rate-balancing work decomposes MMF multicast into
    independently solvable subproblems and how ABR fairness
    definitions are swapped behind a single allocation interface: the
    {e definition} varies, the seam does not. *)

type capabilities = {
  multicast : bool;  (** Accepts sessions with more than one receiver. *)
  multi_rate : bool;  (** Accepts [Multi_rate] sessions. *)
  weighted : bool;  (** Accepts non-unit receiver weights. *)
  vfn : [ `Efficient | `Linear | `Any ];
      (** Most general link-rate family accepted: [`Efficient] (the
          max-shape only), [`Linear] (also [Scaled]/[Additive]),
          [`Any] (monotone [Custom] too). *)
  partial : bool;
      (** Whether {!S.solve_partial} is a genuine warm start.  Engines
          without it reject partial solves, so the churn engine
          ([Mmfair_dynamic.Batch.create]) refuses them. *)
}
(** What a solver engine can take.  Capabilities are {e static}
    honesty about each solver's contract — {!admits} checks a concrete
    network against them before the solver's own validation would
    raise. *)

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
      [Invalid_argument] on a network outside the engine's
      capabilities and {!Solver_error.Error} on solver failure. *)

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

val admits : t -> Network.t -> bool
(** Whether the network's features (session fan-out, type mapping Φ,
    weights, link-rate functions) fall within the engine's
    capabilities.  When [admits e net] is [false] the network is
    outside the engine's fairness definition: [solve] either rejects
    it with [Invalid_argument] or (for features the solver silently
    ignores, like weights under {!tzeng_siu}) computes an allocation
    that need not agree with {!default}. *)

val allocator : t
(** The optimized incidence-indexed water-filling allocator
    ({!Allocator}); full capabilities including warm-start partial
    solves.  Each solve picks its per-round increment engine from the
    network (see {!Allocator}). *)

val allocator_reference : t
(** The frozen pre-optimization oracle ({!Allocator_reference}) — same
    receiver-rate definition and the same input-derived engine choice,
    no partial solves.  Keep for differential checks; do not put it on
    a hot path. *)

val tzeng_siu : t
(** The session-rate max-min definition of the paper's [18]
    ({!Tzeng_siu}): single-rate sessions, efficient link-rate
    functions, unit weights. *)

val unicast : t
(** The Bertsekas–Gallagher unicast construction ({!Unicast}):
    single-receiver sessions, efficient link-rate functions, unit
    weights. *)

val default : t
(** {!allocator}. *)

val all : unit -> (string * t) list
(** Every engine under its [name], for sweeps and differential
    tests. *)
