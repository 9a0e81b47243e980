(** The process-wide probe: instrumented code emits here, tools decide
    where events go by installing a {!Sink.t}.

    The default sink is {!Sink.null}, so a program that never installs
    one pays a single load + branch per probe point and constructs no
    event payloads.  Instrumented call sites must guard payload
    construction themselves:

    {[
      if Mmfair_obs.Probe.enabled () then
        Mmfair_obs.Probe.round { solver; round; ... }
    ]}

    The installed sink is {e domain-local} (OCaml 5 [Domain.DLS]):
    every domain starts at {!Sink.null}, so worker domains spawned by
    a pool (see [Mmfair_core.Domain_pool]) never observe — or race on
    — the main domain's sink.  Within one domain the semantics are
    those of a plain [ref]; code that wants worker-side telemetry
    installs a buffering sink inside the worker and flushes the
    buffer on the joining domain. *)

val get : unit -> Sink.t
(** The currently installed sink. *)

val set : Sink.t -> unit
(** Install a sink globally (until the next [set]).  Prefer
    {!with_sink} for scoped installation. *)

val enabled : unit -> bool
(** Whether the current sink wants events.  Check this before building
    an event payload on a hot path. *)

val with_sink : Sink.t -> (unit -> 'a) -> 'a
(** [with_sink s f] runs [f] with [s] installed and restores the
    previous sink afterwards (also on exceptions). *)

val rounds : (unit -> 'a) -> 'a * Events.round list
(** [rounds f] runs [f] and returns its result with the round events
    it emitted, in emission order.  The collector is teed after the
    installed sink, which keeps seeing every event.  If [f] raises,
    the exception propagates and the rounds are lost. *)

val round : Events.round -> unit
(** Emit a solver round event (no-op when disabled). *)

val epoch : Events.epoch -> unit
(** Emit a churn epoch event (no-op when disabled). *)

val pool : Events.pool -> unit
(** Emit a domain-pool batch event (no-op when disabled). *)

val sim : Events.sim -> unit
(** Emit a simulator event (no-op when disabled). *)

val span_begin : string -> unit
val span_end : string -> unit

val span : string -> (unit -> 'a) -> 'a
(** [span name f] wraps [f] in a begin/end pair on the current sink
    (ends also on exceptions).  When disabled it is exactly [f ()]. *)
