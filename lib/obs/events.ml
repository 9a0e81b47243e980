(* Probe event payloads.  Pure data, no behaviour: this module sits
   below every instrumented library (core solvers, sim), so it must
   not mention their types — receivers travel as (session, index)
   pairs and links as raw indices. *)

type round = {
  solver : string;  (** "Allocator", "Allocator_reference", "Tzeng_siu", "Unicast". *)
  round : int;  (** 1-based water-filling round index. *)
  level : float;  (** Common normalized level t after the round (the bottleneck level). *)
  increment : float;  (** Uniform rate increase applied this round. *)
  active : int;  (** Active receivers (or sessions/flows for the session-rate solvers) remaining {e after} this round's freezes. *)
  frozen : (int * int * float) list;
      (** Receivers frozen this round as (session, receiver-index, rate); session-rate
          solvers (Tzeng_siu, Unicast) use receiver-index [-1] for a whole session. *)
  saturated_links : int list;  (** Links saturated so far (the solver's cumulative or per-round set — see each solver's doc). *)
  bottleneck_link : int option;  (** The tightest (minimum-slack) link considered this round. *)
  residual_slack : float;  (** Slack remaining on that tightest link. *)
}

type epoch = {
  epoch : int;  (** 1-based epoch index: one per applied churn batch. *)
  kind : string;
      (** Churn event class of a singleton batch ("join", "leave",
          "rho", "cap"); "batch" for a multi-event batch. *)
  events : int;  (** Raw churn events submitted in the batch. *)
  net_events : int;
      (** Surviving changes after coalescing: net receiver arrivals and
          departures (join/leave pairs on one node cancel), sessions
          whose [ρ] actually moved, links whose capacity actually moved
          (last writer wins). *)
  cancelled : int;  (** [events - net_events]: changes coalescing eliminated. *)
  component_sessions : int;  (** Sessions inside the re-solved fairness component. *)
  component_receivers : int;  (** Receivers inside the component. *)
  total_receivers : int;  (** Receivers in the whole network after the epoch. *)
  reuse_fraction : float;
      (** Fraction of receivers whose rates were carried over frozen
          from the previous epoch ([1 - component/total]; 0 on a full
          solve). *)
  full_solve : bool;  (** Whether the engine fell back to a from-scratch solve. *)
  solves : int;
      (** Restricted water-filling passes this epoch (1 + component
          expansions; 1 for a full solve). *)
  components : int;  (** Disjoint component groups solved this epoch (0 when nothing moved). *)
  largest_component : int;  (** Sessions in the largest solved group (0 when nothing moved). *)
  jain : float;  (** Jain fairness index over every receiver rate after the epoch. *)
  max_delta_rate : float;
      (** Largest per-receiver rate move this epoch, matched by
          (session, node); a receiver that just arrived moves from 0. *)
}
(** One epoch of the incremental churn engine ([Mmfair_dynamic.Batch]):
    emitted once per applied batch (a per-event apply is a singleton
    batch with [events = 1]) with how much of the burst survived
    netting-out, the size and partition of the re-solved fairness
    component, how much of the previous allocation was reused, how
    fair the landed allocation is and how hard rates moved. *)

type pool = {
  p_domains : int;  (** Pool parallelism (submitting domain included). *)
  p_tasks : int;  (** Tasks in this batch. *)
  p_wall : float;  (** Submit-to-join wall seconds for the whole batch. *)
  p_wait_total : float;  (** Summed per-task queue wait (submit to first claim), seconds. *)
  p_wait_max : float;  (** Largest single task wait. *)
  p_busy_total : float;  (** Summed per-task execution time, seconds. *)
  p_busy_max : float;  (** Largest single task execution time. *)
  p_busy_by_domain : float array;
      (** Per-executing-domain busy seconds, sorted descending (one
          entry per domain that claimed at least one task — identity-free:
          which physical domain is which is scheduling noise). *)
}
(** One [Mmfair_core.Domain_pool.run] batch: queue wait, execution
    time, and how evenly the work spread across domains.
    [p_busy_total /. (p_wall *. float p_domains)] is the batch's pool
    utilization. *)

type sim =
  | Scheduled of { time : float; depth : int }
      (** An event was enqueued at simulation time [time]; [depth] is the queue size after insertion. *)
  | Fired of { time : float; depth : int }
      (** The engine popped and is handling an event; [depth] is the queue size after the pop. *)
  | Dropped of { count : int }
      (** [count] pending events were discarded (queue cleared / engine reset). *)
