(** xoshiro256** pseudo-random number generator.

    The general-purpose generator used by every stochastic component in
    this reproduction (loss processes, random join protocols, random
    network generators).  xoshiro256** (Blackman & Vigna, 2018) has a
    256-bit state, period 2^256 − 1, and passes BigCrush; it is seeded
    here from {!Splitmix64} as its authors recommend. *)

type t
(** Mutable generator state. *)

val create : ?seed:int64 -> unit -> t
(** [create ~seed ()] builds a generator deterministically from [seed]
    (default [0x1234_5678_9ABC_DEF0L]).  The four state words are drawn
    from a SplitMix64 stream over the seed. *)

val of_state : int64 array -> t
(** [of_state s] uses the four words of [s] directly as state.  Raises
    [Invalid_argument] unless [Array.length s = 4] and not all words
    are zero. *)

val split : t -> t
(** [split t] draws a child seed from [t] and creates an independent
    generator from it (via SplitMix64 expansion). *)

val next : t -> int64
(** [next t] is the next 64-bit output. *)

val float : t -> float
(** [float t] is uniform in [[0, 1)] (53-bit resolution). *)

val below : t -> int -> int
(** [below t n] is uniform in [[0, n)]; [n] must be positive. *)

val bool : t -> bool
(** [bool t] is a fair coin flip. *)

val bernoulli : t -> float -> bool
(** [bernoulli t p] is [true] with probability [p].  [p] outside
    [[0, 1]] is clamped. *)

val uniform : t -> float -> float -> float
(** [uniform t lo hi] is uniform in [[lo, hi)]. *)

val exponential : t -> float -> float
(** [exponential t rate] samples Exp(rate); mean [1/rate].  [rate] must
    be positive. *)

val pareto_bounded : t -> alpha:float -> lo:float -> hi:float -> float
(** [pareto_bounded t ~alpha ~lo ~hi] samples the bounded Pareto
    distribution on [[lo, hi)] with tail index [alpha] (density
    proportional to [x^{-alpha-1}]) by inverse CDF — the standard
    heavy-tailed workload-size model (small [alpha] ⇒ heavier tail;
    [alpha ≤ 1] would have infinite mean unbounded, which is why the
    upper truncation [hi] exists).  Requires finite [alpha > 0] and
    finite [0 < lo < hi]. *)

val geometric : t -> float -> int
(** [geometric t p] is the number of Bernoulli(p) failures before the
    first success, i.e. supported on [{0, 1, 2, …}] with mean
    [(1−p)/p].  [p] must be in [(0, 1]]. *)

val shuffle : t -> 'a array -> unit
(** [shuffle t a] permutes [a] in place uniformly (Fisher–Yates). *)

val pick : t -> 'a array -> 'a
(** [pick t a] is a uniformly chosen element of the non-empty [a]. *)
