(** A named-metrics registry: monotonic counters, gauges, fixed-bucket
    histograms (bucketing semantics are exactly
    {!Mmfair_stats.Histogram}'s: half-open [\[lo, hi)] range, equal
    bins, separate under/overflow tallies), and log-bucketed quantile
    histograms ({!Mmfair_stats.Log_histogram}: geometric bucket edges,
    bucket-bound quantile estimates, exact max).

    Instruments are get-or-create by name; asking for an existing name
    with a different kind (or a histogram with different bucketing)
    raises [Invalid_argument].  Not called [Metrics] on purpose:
    [Mmfair_core.Metrics] already means fairness indexes. *)

type t
type counter
type gauge
type histogram
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

val histogram : t -> lo:float -> hi:float -> bins:int -> string -> histogram
(** Get or create a histogram over [\[lo, hi)] with [bins] equal
    buckets.  Raises [Invalid_argument] on a bucketing mismatch with
    an existing histogram of the same name. *)

val observe : histogram -> float -> unit

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
(** The [schema] field of {!snapshot}: ["mmfair.metrics/v2"]. *)

val snapshot : t -> Json.t
(** Deterministic snapshot: instruments sorted by name, shape
    [{schema; counters; gauges; histograms; log_histograms}].
    Histograms carry [lo/hi/bins/count/sum/underflow/overflow/counts];
    log histograms additionally carry [max] and the [p50/p90/p99]
    quantile estimates (so over/underflow and tails are visible to
    every snapshot consumer). *)

val sample : t -> (string * float) list
(** Deterministic flat readout for time-series capture, sorted by
    instrument name: a counter or set gauge contributes its value
    under its own name (unset gauges are skipped); a histogram
    contributes [name.count] and [name.mean]; a log histogram
    contributes [name.count] plus — once non-empty —
    [name.p50]/[name.p90]/[name.p99]/[name.max]. *)

val to_prometheus : t -> string
(** Prometheus text exposition.  Names are sanitized ([^a-zA-Z0-9_]
    becomes [_]) and prefixed [mmfair_]; both histogram kinds emit
    cumulative [_bucket{le=...}] lines (log histograms with geometric
    [le] boundaries) plus [_sum]/[_count]. *)

val sink : ?clock:(unit -> float) -> t -> Sink.t
(** The standard probe-to-registry bridge.  Solver rounds feed
    [solver.rounds.total], per-solver [solver.rounds.<name>] and
    [solver.level.<name>], [solver.freezes.total],
    [solver.saturated.links.total] and the [solver.round.active]
    histogram; epoch events feed [dynamic.epochs.total],
    [dynamic.solves.total], [dynamic.full_solves.total], per-kind
    [dynamic.events.<kind>], the [dynamic.epoch.reuse_fraction] and
    [dynamic.epoch.component_receivers] histograms,
    [dynamic.batches.total], [dynamic.batch.events.total],
    [dynamic.batch.cancelled.total], the [dynamic.batch.events] size
    histogram, the [fairness.jain]/[fairness.components]/
    [fairness.largest_component] gauges, the [fairness.delta_rate]
    log histogram and the [fairness.delta_rate.max] high-water gauge;
    pool events feed [pool.batches.total], [pool.tasks.total], the
    [pool.domains]/[pool.utilization] gauges and the per-batch-mean
    [pool.task.{wait,busy}.seconds] log histograms; sim events feed
    [sim.events.{scheduled,fired,dropped}.total]
    and the [sim.queue.depth.hwm] gauge; spans feed
    [span.count.<name>] and the [span.seconds] histogram.  [clock]
    (default [Unix.gettimeofday]) only times spans. *)
