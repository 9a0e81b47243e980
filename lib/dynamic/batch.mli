(** Coalesced churn: one re-solve for a burst of events.

    A flash crowd delivers joins, leaves and operator knob-turns
    faster than per-event re-solving can keep up.  [Batch] applies a
    whole burst as {e one} epoch: the events are applied in order as
    one {!Mmfair_core.Network.surgery} to produce the final network
    (at most one incidence rebuild per burst, none for a burst of
    only [ρ]/capacity changes), the burst is netted out
    against the starting state (a join/leave pair on one node cancels;
    repeated [ρ]/capacity writes keep the last value — the max-min
    allocation depends only on the final network, not the event path),
    and the fairness closure of all surviving changes is partitioned
    into {e disjoint} components ({!Mmfair_core.Component.groups}) —
    each re-solved as its own restricted problem through the
    {!Mmfair_core.Solve_engine} seam with everything outside it frozen
    at the carried-over rates, one {!scheduler} task per component (a
    domain {!pool} runs them in parallel), the per-component solves
    stitched into one candidate and boundary-expanded — merging
    components that turn out to lean on a shared saturated link — to
    the same sound fixed point as the per-event engine (DESIGN.md
    §11–13).

    Per-event churn is the singleton batch [apply t [ ev ]], a
    one-event surgery: there is one implementation, so the per-event
    differential gate ([test/churn_differential.ml], which checks
    every epoch against [Allocator.max_min] from scratch within
    [1e-9]) covers the batch machinery too; a dedicated gate replays
    random traces at batch sizes 1/4/16 and requires identical final
    rates. *)

type stats = {
  events : int;  (** Raw events submitted. *)
  net_events : int;  (** Changes surviving the netting-out. *)
  cancelled : int;  (** [events - net_events]. *)
  components : int;
      (** Disjoint fairness components in the final partition — the
          unit of independence (small ones share a scheduler task, see
          {!scheduler}); [1] on a full solve, [0] when nothing could
          move. *)
  component_sessions : int;  (** Sessions inside the union component. *)
  component_receivers : int;  (** Receivers inside the union component. *)
  total_receivers : int;  (** Receivers in the post-batch network. *)
  reuse_fraction : float;  (** Receivers carried over frozen / total; 0 on a full solve. *)
  full_solve : bool;  (** Whether the engine fell back to from-scratch. *)
  solves : int;
      (** Restricted water-filling passes actually run (one per solve
          task, summed over boundary-expansion rounds); [1] on a full
          solve, [0] when nothing could move. *)
}
(** What one {!apply} did — also emitted, with the epoch's fairness
    telemetry, as one [epoch] probe event ({!Mmfair_obs.Events.epoch})
    for the telemetry sinks.  The fairness fields (a Jain index over
    every receiver, the largest rate move) are computed only while a
    sink listens ({!Mmfair_obs.Probe.enabled}). *)

type scheduler = { run : (unit -> unit) list -> unit }
(** How the batch's water-filling passes execute.  [run] receives one
    task per {e pack} of disjoint fairness components — a restricted
    solve has a fixed cost however small the component (setup, and a
    result that copies the row vector's spine of [sessions / 32]
    pointers), so components are coalesced (in deterministic root
    order) into tasks of at least a few sessions each; a component
    above that floor is its own task.  Tasks must all complete before [run] returns; they
    write to disjoint slots, so any execution order (or true
    parallelism) yields the same result.  A task the scheduler drops
    surfaces as {!Mmfair_core.Solver_error.Scheduler_failure}. *)

val sequential : scheduler
(** Runs each task in order on the calling thread. *)

val pool : domains:int -> scheduler
(** Tasks run on the process-wide domain pool of that size
    ({!Mmfair_core.Domain_pool.shared}) — the submitting domain plus
    [domains - 1] persistent workers.  [pool ~domains:1] behaves
    exactly like {!sequential}.  Allocations are bitwise identical at
    every pool size: tasks are deterministic and share nothing, and
    their probe events are buffered per task and replayed in task
    order on the caller's sink. *)

type t

val create :
  ?solver:Mmfair_core.Solve_engine.t ->
  ?scheduler:scheduler ->
  ?domains:int ->
  ?retain:int ->
  ?allocation:Mmfair_core.Allocation.t ->
  Mmfair_core.Network.t ->
  t
(** [create net] solves epoch 0 through [solver]
    ({!Mmfair_core.Solve_engine.default} unless given) and seeds the
    store.  Raises [Invalid_argument] when the solver's
    {!Mmfair_core.Solve_engine.capabilities} lack [partial]: every
    epoch after the first is a warm-start restricted solve.  [domains]
    (default [1]) picks {!pool} over that many domains as the
    scheduler; an explicit [scheduler] wins over
    [domains].  [retain] bounds the store window ({!Store.create}).
    [allocation] is a {e trusted} warm restore: the caller asserts it
    is the max-min fair allocation of [net] (benchmarks use it to
    reset an engine between repetitions without paying the initial
    solve) — passing anything else silently corrupts every later
    epoch. *)

val create_result :
  ?solver:Mmfair_core.Solve_engine.t ->
  ?scheduler:scheduler ->
  ?domains:int ->
  ?retain:int ->
  ?allocation:Mmfair_core.Allocation.t ->
  Mmfair_core.Network.t ->
  (t, Mmfair_core.Solver_error.t) result
(** Typed-error variant of {!create}. *)

val network : t -> Mmfair_core.Network.t
(** The current (post-last-batch) network. *)

val allocation : t -> Mmfair_core.Allocation.t
(** The current epoch's max-min fair allocation. *)

val epoch : t -> int
val store : t -> Store.t
val solver : t -> Mmfair_core.Solve_engine.t

val apply : t -> Event.t list -> stats
(** Apply one batch of churn events as a single epoch: one surgery
    over all of them, state diff, union component, restricted
    solve(s), store push, [epoch] probe emission.  Events
    validate against the {e evolving} network in list order (so a join
    followed by a leave of the same node is legal in one batch, and a
    leave of a receiver that never existed is not), with the
    conditions of the {!Mmfair_core.Network} [surgery_*] operations;
    a leave of an unknown session or an absent node raises
    [Invalid_argument "Dynamic.Batch.apply: …"].  The empty batch is
    rejected.  On a raise the engine state is unchanged — the surgery
    and solves happen before any mutation. *)

val apply_result : t -> Event.t list -> (stats, Mmfair_core.Solver_error.t) result
(** Typed-error variant of {!apply}. *)
