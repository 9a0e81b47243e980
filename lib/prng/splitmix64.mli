(** SplitMix64 pseudo-random number generator.

    A fast, high-quality 64-bit generator with a trivially splittable
    state, due to Steele, Lea and Flood ("Fast splittable pseudorandom
    number generators", OOPSLA 2014).  In this repository SplitMix64 is
    used primarily to seed {!Xoshiro} streams deterministically, and as
    a tiny standalone generator in tests.

    All experiment randomness in the reproduction flows through
    generators in this library so that every figure is reproducible
    bit-for-bit from a seed, independent of the OCaml [Random] module's
    evolution across compiler releases. *)

type t
(** Mutable generator state. *)

val create : int64 -> t
(** [create seed] makes a fresh generator from a 64-bit seed.  Distinct
    seeds give statistically independent streams. *)

val copy : t -> t
(** [copy t] is an independent generator that will produce the same
    future stream as [t]. *)

val next : t -> int64
(** [next t] advances the state and returns the next 64-bit output. *)

val split : t -> t
(** [split t] advances [t] and returns a new generator whose stream is
    (statistically) independent of [t]'s future outputs.  Used to give
    each simulated entity its own stream so that adding an entity does
    not perturb the draws seen by others. *)
