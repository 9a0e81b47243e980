(** Sender-side layer scheduling.

    The sender transmits one packet per slot; the schedule decides
    which layer each slot's packet belongs to, honoring the scheme's
    layer rates.  Two modes:

    - [Wrr]: smooth weighted round-robin — deterministic, with each
      layer's long-run share exactly proportional to its rate.  This
      is how a real layered sender interleaves groups.
    - [Random]: i.i.d. layer choice with probability proportional to
      rate — memoryless, matching the Markov-chain analysis model so
      simulation and analysis can be compared exactly. *)

type mode = Wrr | Random

type t

val create : ?mode:mode -> Mmfair_layering.Scheme.t -> t
(** Default mode is [Wrr]. *)

val mode : t -> mode

val next : t -> rng:Mmfair_prng.Xoshiro.t -> int
(** The next slot's layer, in [[1, layers]].  The [rng] is consulted
    only in [Random] mode. *)

val share : t -> int -> float
(** [share t l] is layer [l]'s long-run fraction of slots,
    [layer_rate l / top_rate]. *)

val reset : t -> unit
(** Restart the WRR credit state (no effect in [Random] mode). *)
