(** The [mmfair churnd] serving loop.

    A daemon wraps one incremental churn engine
    ({!Mmfair_dynamic.Batch}, made by {!Mmfair_dynamic.Batch.create}
    with the default solver, which picks its water-filling increment
    engine from the network) and feeds it from a byte stream — a
    pipe/FIFO ({!serve_fd}) or a Unix-domain socket with any number of
    concurrent clients ({!serve_socket}) — speaking the {!Protocol}
    line language.

    {b Coalescing.}  Events arriving between wakeups queue up; each
    wakeup drains the queue into {e one} [Batch.apply] epoch, so a
    burst of joins costs one union-component re-solve instead of one
    per event (the engine's whole point).  [batch ... end] blocks stay
    atomic through coalescing.  [max_batch] caps how much one epoch
    may swallow; rate/epoch queries flush first, so answers are never
    stale.

    {b Staleness.}  At every flush the age of the oldest queued event
    (monotonic clock) lands in the [serve.staleness.seconds] histogram
    and the [serve.staleness.max.seconds] high-water gauge — the bound
    the bench gate holds the daemon to.

    {b Failure isolation.}  A malformed line answers
    [err line N: ...] and the loop continues.  A queued event the
    evolving network rejects (or a solver failure) fails only its own
    item: the coalesced epoch is retried item by item and survivors
    still land.

    {b Signals and teardown.}  While serving, SIGINT/SIGTERM flip the
    stop flag (the poll loop notices within [poll_interval]) and
    SIGPIPE is ignored so a dead client surfaces as [EPIPE] on its own
    write.  Previous dispositions are restored when the serve call
    returns.  The engine's shared {!Mmfair_core.Domain_pool} is torn
    down by its module-init [at_exit] hook, which runs {e after} any
    later-registered telemetry finalizer — snapshot writers may still
    query the registry after serving ends. *)

type config = {
  domains : int;  (** Component-solve parallelism ({!Mmfair_dynamic.Batch.create}). *)
  max_batch : int;  (** Most events one coalesced epoch may apply (default 256). *)
  ack : bool;  (** Answer [ok epoch N] per accepted ingestion line (default off). *)
  poll_interval : float;  (** Seconds between stop-flag polls when idle (default 0.05). *)
  write_timeout : float;
      (** How long a socket client's full send buffer may stall a
          response write before the client is dropped (default 5.0). *)
  sample_interval : float;
      (** Seconds between time-series sampler ticks (default 1.0);
          [<= 0] disables sampling entirely ([series] queries then
          answer zero windows). *)
  series_out : string option;
      (** When set, every sampler tick is also appended to this JSONL
          file ([mmfair.series/v1]: one header line per daemon start,
          then one [{"t":…,"sample":{…}}] line per tick, flushed per
          line).  The file is opened at {!create}. *)
}

val default_config : config

type t

val create : ?config:config -> Mmfair_workload.Net_parser.t -> (t, Mmfair_core.Solver_error.t) result
(** Solve epoch 0 and stand the daemon up (no I/O yet; the
    [series_out] appender, if any, is opened and its header written —
    a bad path fails here, not mid-soak).  Raises [Invalid_argument]
    when [config.max_batch < 1] or [config.write_timeout <= 0];
    [Sys_error] on an unopenable [series_out] path. *)

val engine : t -> Mmfair_dynamic.Batch.t
(** The underlying engine: the current network, its allocation and
    the epoch number. *)

val registry : t -> Mmfair_obs.Registry.t
(** The daemon's metrics: [serve.events.ingested.total],
    [serve.events.rejected.total], [serve.queries.total],
    [serve.epochs.total], [serve.connections.total], the
    [serve.solve.seconds] and [serve.staleness.seconds] histograms
    (quantile-capable, geometric buckets over
    [\[1e-6, 10)] / [\[1e-6, 100)] seconds) and the
    [serve.staleness.max.seconds] gauge — plus the standard
    [dynamic.*]/[fairness.*]/[pool.*] instruments bridged from the
    engine's probe stream while serving. *)

val series : t -> Mmfair_obs.Timeseries.t
(** The daemon's in-memory time series (fed by the sampler; empty when
    [sample_interval <= 0] and {!sample} is never called). *)

val snapshot : t -> Mmfair_obs.Json.t
(** {!Mmfair_obs.Registry.snapshot} of {!registry}. *)

val stop : t -> unit
(** Ask the serve loop to finish (signal-handler safe: one atomic
    store).  The loop notices within [poll_interval], flushes queued
    events, and returns. *)

val sample : t -> unit
(** Take one time-series sampler tick now (GC gauges refreshed, the
    registry's flat readout appended to every series, the tick
    mirrored to [series_out] if configured).  The serve loops call
    this on the [sample_interval] cadence; exposed for tests. *)

val serve_fd : t -> input:Unix.file_descr -> output:Unix.file_descr -> unit
(** Serve one pre-connected stream (pipe, FIFO, stdin/stdout) until
    EOF, a [quit] line, {!stop}, or a failed response write (the
    reader of [output] went away, or a non-blocking [output] stalled
    for [config.write_timeout]).  Responses go to [output].  Either
    way queued events are applied before it returns; it closes
    neither fd.  Runs the same connection loop as {!serve_socket},
    with this one connection and no listener. *)

val serve_socket : t -> path:string -> unit
(** Listen on a Unix-domain socket (an existing file at [path] is
    replaced; the path is unlinked on the way out) and serve clients
    until {!stop}.  Clients come and go freely; each gets its own line
    numbering and [batch] block state, while churn events from all of
    them coalesce into shared epochs.  A client that stops reading
    (its full send buffer stalls a response write for longer than
    [config.write_timeout]) is dropped; the other connections and the
    daemon itself live on.  A [path] that cannot be bound raises
    [Unix.Unix_error (_, "bind", path)]. *)
