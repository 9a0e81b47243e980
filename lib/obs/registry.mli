(** A named-metrics registry with three instrument kinds: monotonic
    counters, gauges, and log-bucketed histograms
    ({!Mmfair_stats.Log_histogram}: half-open [\[lo, hi)] range,
    geometric bucket edges, separate under/overflow tallies,
    bucket-bound quantile estimates, exact sum and max).  One histogram
    kind serves every distribution the repo records, from microsecond
    spans to whole-network component sizes.

    Instruments are get-or-create by name; asking for an existing name
    with a different kind (or a histogram with different bucketing)
    raises [Invalid_argument].  Not called [Metrics] on purpose:
    [Mmfair_core.Metrics] already means fairness indexes. *)

type t
type counter
type gauge
type log_histogram

val create : unit -> t

val counter : t -> string -> counter
(** Get or create a monotonic counter (initial value 0). *)

val incr : ?by:int -> counter -> unit
(** Add [by] (default 1).  Raises [Invalid_argument] when [by < 0] —
    counters only go up. *)

val counter_value : counter -> int

val gauge : t -> string -> gauge
(** Get or create a gauge (initial value 0, marked unset). *)

val set : gauge -> float -> unit

val set_max : gauge -> float -> unit
(** High-water-mark update: keep the larger of the current and new
    value (the first [set_max] on a fresh gauge always wins). *)

val gauge_value : gauge -> float

val gauge_is_set : gauge -> bool
(** Whether the gauge has ever been [set] (a fresh gauge reads 0.0 but
    is unset — consumers rendering "n/a" need the distinction). *)

val log_histogram : t -> lo:float -> hi:float -> bins:int -> string -> log_histogram
(** Get or create a log-bucketed histogram over [\[lo, hi)] with [bins]
    geometrically-spaced buckets (see {!Mmfair_stats.Log_histogram}).
    Raises [Invalid_argument] on a bucketing mismatch, a kind clash,
    or [lo <= 0]. *)

val observe_log : log_histogram -> float -> unit

val log_quantile : log_histogram -> float -> float
(** Quantile estimate (upper bucket edge; exact max for the overflow
    tail) — {!Mmfair_stats.Log_histogram.quantile}.  [nan] when
    empty. *)

val log_histogram_stats : log_histogram -> Mmfair_stats.Log_histogram.t
(** The underlying histogram, for count/sum/max/bounds access. *)

val schema_id : string
(** The [schema] field of {!snapshot}: ["mmfair.metrics/v3"]. *)

val snapshot : t -> Json.t
(** Deterministic snapshot: instruments sorted by name, shape
    [{schema; counters; gauges; log_histograms}].  Log histograms carry
    [lo/hi/bins/count/sum/underflow/overflow/max/p50/p90/p99/counts],
    so over/underflow and tails are visible to every snapshot
    consumer. *)

val sample : t -> (string * float) list
(** Deterministic flat readout for time-series capture, sorted by
    instrument name: a counter or set gauge contributes its value
    under its own name (unset gauges are skipped); a log histogram
    contributes [name.count] plus — once non-empty —
    [name.p50]/[name.p90]/[name.p99]/[name.max]. *)

val to_prometheus : t -> string
(** Prometheus text exposition.  Names are sanitized ([^a-zA-Z0-9_]
    becomes [_]) and prefixed [mmfair_]; log histograms emit
    cumulative [_bucket{le=...}] lines at their geometric edges plus
    [_sum]/[_count]. *)

val span_seconds : t -> string -> log_histogram
(** [span_seconds t name] is the [span.seconds.<name>] histogram
    {!sink} feeds (get-or-create, over [\[1 µs, 10⁴ s)]): its count is
    the number of completed [name] spans, its sum their total
    duration. *)

val sink : ?clock:(unit -> float) -> t -> Sink.t
(** The standard probe-to-registry bridge.  Every distribution it
    records is a log histogram; zero (a round that leaves no receiver
    active, an epoch that re-solves nothing) tallies as underflow.

    Solver rounds feed [solver.rounds.total], per-solver
    [solver.rounds.<name>] and [solver.level.<name>],
    [solver.freezes.total], [solver.saturated.links.total] and the
    [solver.round.active] histogram (receivers, [\[1, 2²⁰)]).

    Epoch events feed [dynamic.epochs.total], [dynamic.solves.total],
    [dynamic.full_solves.total], per-kind [dynamic.events.<kind>],
    [dynamic.batches.total], [dynamic.batch.events.total],
    [dynamic.batch.cancelled.total], the
    [dynamic.epoch.resolved_fraction] histogram (the re-solved share
    [1 - reuse_fraction], [\[10⁻⁶, 2)]), the
    [dynamic.epoch.component_receivers] histogram ([\[1, 2²⁰)]), the
    [dynamic.batch.events] size histogram ([\[1, 2¹⁶)]), the
    [fairness.jain]/[fairness.components]/[fairness.largest_component]
    gauges, the [fairness.delta_rate] histogram and the
    [fairness.delta_rate.max] high-water gauge.

    Pool events feed [pool.batches.total], [pool.tasks.total], the
    [pool.domains]/[pool.utilization] gauges and the per-batch-mean
    [pool.task.{wait,busy}.seconds] histograms.

    Sim events feed [sim.events.{scheduled,fired,dropped}.total] and
    the [sim.queue.depth.hwm] gauge.

    Spans feed one {!span_seconds} histogram per span name, created on
    the name's first completed span; an end that does not match the
    innermost open span is dropped.  [clock] (default
    [Unix.gettimeofday]) only times spans. *)
