(** Probe sinks: where telemetry events go.

    A sink is an immutable record of closures plus one [enabled] flag.
    Every instrumented call site in the solvers and the simulator pays
    exactly one load and one branch when the installed sink is
    {!null} — event payloads are only constructed {e after} the
    [enabled] check passes, so disabled probes compile to no-ops on
    the hot paths. *)

type t = {
  enabled : bool;  (** [false] only for {!null}: lets call sites skip event construction entirely. *)
  on_round : Events.round -> unit;  (** One water-filling round completed. *)
  on_epoch : Events.epoch -> unit;
      (** One churn epoch applied by the incremental engine (coalescing,
          component and fairness telemetry in one record). *)
  on_pool : Events.pool -> unit;  (** One domain-pool batch (queue wait, busy time, spread). *)
  on_sim : Events.sim -> unit;  (** Discrete-event simulator activity. *)
  on_span_begin : string -> unit;  (** A named region opened.  The sink stamps its own clock. *)
  on_span_end : string -> unit;  (** The matching region closed. *)
}

val null : t
(** The default sink: disabled, every closure [ignore]. *)

val make :
  ?on_round:(Events.round -> unit) ->
  ?on_epoch:(Events.epoch -> unit) ->
  ?on_pool:(Events.pool -> unit) ->
  ?on_sim:(Events.sim -> unit) ->
  ?on_span_begin:(string -> unit) ->
  ?on_span_end:(string -> unit) ->
  unit ->
  t
(** An enabled sink with the given callbacks (missing ones [ignore]). *)

val tee : t -> t -> t
(** Fan one event stream out to two sinks ([a] first).  Disabled
    operands are elided, so [tee null s] is [s]. *)

val tee_all : t list -> t
(** [tee] folded over a list; [null] for the empty list. *)

val span_recorder : ?clock:(unit -> float) -> unit -> t * (unit -> (string * float) list)
(** A sink that records span durations, and a function returning the
    completed [(name, seconds)] pairs in completion order.  [clock]
    defaults to [Unix.gettimeofday]; inject a fake for deterministic
    tests.  A mismatched [on_span_end] (name differing from the most
    recent open span) is dropped. *)
