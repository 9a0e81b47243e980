(** Chrome [trace_event] exporter: solver rounds and simulator
    activity as a JSON trace that opens directly in [chrome://tracing]
    or Perfetto ([ui.perfetto.dev], "Open trace file").

    Emitted events: spans as B/E duration pairs (cat ["span"]), solver
    rounds as instants (cat ["solver"], name ["round"], full payload
    under [args]) plus an ["active:<solver>"] counter track, churn
    epochs as instants (cat ["dynamic"], name ["epoch"], every
    {!Events.epoch} field under [args]) plus the ["dynamic:reuse"],
    ["dynamic:batch-events"] and ["dynamic:jain"] counter tracks, pool
    batches as instants plus a ["pool:utilization"] track, sim queue
    depth as a ["sim:queue-depth"] counter track, and drops as
    instants.  Timestamps are microseconds since the writer was
    created, stamped at event receipt by [clock] (default
    [Unix.gettimeofday]) — inject a deterministic clock for golden
    tests. *)

type t
(** A streaming writer.  Output goes through the [emit] callback;
    memory use is O(1) in the number of events. *)

val create : ?clock:(unit -> float) -> emit:(string -> unit) -> unit -> t
(** Opens the JSON document (writes the [traceEvents] header
    immediately).  The caller owns whatever [emit] writes to. *)

val sink : t -> Sink.t
(** The probe sink writing into this trace. *)

val event_count : t -> int
(** Trace events written so far. *)

val close : t -> unit
(** Terminate the JSON document.  Idempotent; events pushed after
    [close] are dropped. *)
