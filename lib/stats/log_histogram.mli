(** Log-bucketed histograms with quantile estimation: the repo's one
    histogram kind, behind every [Mmfair_obs.Registry] histogram, the
    daemon's serve timings and the flow simulator's sojourn times.

    Fixed equal-width bins saturate on long-tailed timing data and on
    sizes that span orders of magnitude: everything interesting lands
    in one bin or in the overflow tally.  A log histogram covers the
    half-open range [\[lo, hi)] with [bins] geometrically-spaced
    buckets — constant {e relative} resolution — so one histogram can
    resolve both a 10 µs and a 1 s latency, and a quantile estimate is
    off by at most one bucket's ratio.

    Observations below [lo] (including zero and negatives) tally as
    underflow, observations at or above [hi] as overflow; the exact
    maximum is tracked separately so tail quantiles stay meaningful
    even when they fall past [hi]. *)

type t

val create : lo:float -> hi:float -> bins:int -> t
(** [create ~lo ~hi ~bins] covers [\[lo, hi)] with [bins] buckets whose
    edges form a geometric progression from [lo] to [hi].  Raises
    [Invalid_argument] unless [0 < lo < hi] and [bins > 0] (or when
    [bins] is so large adjacent edges collapse in float). *)

val add : t -> float -> unit
(** Tally one observation (also tracked in [sum] and [max_value]). *)

val count : t -> int
(** Total observations, including under/overflow. *)

val sum : t -> float
(** Exact running sum of all observations. *)

val max_value : t -> float
(** Exact maximum observed; [neg_infinity] when empty. *)

val underflow : t -> int
(** Observations below [lo]. *)

val overflow : t -> int
(** Observations at or above [hi]. *)

val bins : t -> int
val lo : t -> float
val hi : t -> float

val bin_count : t -> int -> int
(** [bin_count t i] is bucket [i]'s tally (0-indexed).  Raises
    [Invalid_argument] out of range. *)

val bin_edges : t -> int -> float * float
(** [bin_edges t i] is bucket [i]'s half-open interval. *)

val edge : t -> int -> float
(** [edge t i] is the [i]-th bucket boundary, [0 <= i <= bins t]
    ([edge t 0 = lo], [edge t (bins t) = hi]). *)

val quantile : t -> float -> float
(** [quantile t q] estimates the [q]-quantile (nearest rank) as the
    {e upper} edge of the bucket holding it — a sound upper bound
    within one bucket ratio of the true value.  When the quantile
    falls in the overflow tail the exact observed maximum is returned;
    in the underflow tail, [lo].  [nan] when empty.  Raises
    [Invalid_argument] unless [0 <= q <= 1]. *)

val quantile_bounds : t -> float -> float * float
(** [quantile_bounds t q] is the interval guaranteed to contain the
    true [q]-quantile: the holding bucket's edges, [(neg_infinity, lo)]
    for the underflow tail, [(hi, max_value t)] for the overflow tail,
    [(nan, nan)] when empty. *)
