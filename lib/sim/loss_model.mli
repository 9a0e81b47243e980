(** Per-link Bernoulli loss processes.

    The paper models packet loss (or ECN marking) as a Bernoulli
    process per link, arguing this is accurate when many flows share
    each link.  Each link gets an independent stream split from a root
    generator, so changing one link's loss rate never perturbs the
    draws of another — runs stay comparable across parameter sweeps. *)

type t
(** Loss state for all links of a graph. *)

val create :
  rng:Mmfair_prng.Xoshiro.t ->
  links:int ->
  loss_rate:(Mmfair_topology.Graph.link_id -> float) ->
  t
(** [create ~rng ~links ~loss_rate] sets link [l]'s loss probability
    to [loss_rate l] (must be in [[0, 1]]; raises [Invalid_argument]
    otherwise). *)

val drops : t -> Mmfair_topology.Graph.link_id -> bool
(** Sample once: does this link drop the current packet?  Each call
    advances the link's stream. *)

val drops_scaled : t -> Mmfair_topology.Graph.link_id -> scale:float -> bool
(** Like {!drops} but with the link's loss probability multiplied by
    [scale] (clamped to [[0, 1]]) for this sample — used for
    priority-dropping experiments where loss discriminates by layer.
    Raises [Invalid_argument] on a negative or NaN scale. *)

val samples : t -> Mmfair_topology.Graph.link_id -> int
(** How many times the link has been sampled (for loss-rate
    estimation in tests). *)

val observed_losses : t -> Mmfair_topology.Graph.link_id -> int
(** How many of those samples were drops. *)
