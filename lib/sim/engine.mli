(** A minimal discrete-event simulation engine.

    Wraps an {!Event_queue} with a clock and a handler loop.  Handlers
    may schedule further events (at or after the current time); the
    run ends when the queue drains, a time horizon passes, or the
    handler requests a stop. *)

type 'a t
(** An engine whose events carry payloads of type ['a]. *)

val create : unit -> 'a t

val now : 'a t -> float
(** Current simulation time (0 before any event has fired). *)

val schedule : 'a t -> delay:float -> 'a -> unit
(** [schedule t ~delay ev] enqueues [ev] at [now t +. delay].  Raises
    [Invalid_argument] on a negative or NaN delay. *)

val schedule_at : 'a t -> time:float -> 'a -> unit
(** Absolute-time variant; the time must not precede [now]. *)

type control = Continue | Stop

val run : ?until:float -> 'a t -> handler:(float -> 'a -> control) -> unit
(** [run t ~handler] pops events in time order, advancing the clock
    and applying [handler time payload] to each, until the queue is
    empty, the handler returns [Stop], or the next event's time
    exceeds [until] (that event stays queued and the clock advances to
    [until]). *)
