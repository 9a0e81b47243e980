(** The generated networks that more than one caller uses, defined once.

    The scaling bench's engine ablations, the churn bench, the churn
    differential and [mmfair topo] all build their inputs here, so
    their rows measure the same networks.  Every constructor is
    deterministic: the fixed seeds below, or the caller's [rng]. *)

val ablation : sessions:int -> Mmfair_core.Network.t
(** The seed-123 ablation net: {!Random_nets.generate} with
    [4 * sessions] nodes, [sessions] extra links and at most 4
    receivers per session, {!Random_nets.default} otherwise. *)

val churn_bench : unit -> Mmfair_core.Network.t
(** [ablation ~sessions:100] rescaled so saturation stays on access
    links: a link crossed by [c ≥ 2] sessions gets capacity [50c] (it
    can never bind), a link [l] crossed by one session gets
    [2 + 0.5 (l mod 8)], and every session's [ρ] is capped at 10, below
    the shared headroom.  A membership event's fairness component is
    then a small island, the regime the incremental engine is built
    for. *)

val fat_tree :
  k:int -> per_host:int -> Mmfair_topology.Builders.fat_tree * Mmfair_core.Network.session_spec array
(** The [k]-ary fat tree with [per_host] single-receiver sessions per
    host, sender-major.  Each session stays inside its edge switch's
    host group: the receiver is a sibling of the sender, rotating
    through the group so a host's sessions spread out.  Data-paths are
    two host links, so fairness components stay cluster-sized however
    large the tree grows.  Needs an even [k ≥ 4] and [per_host ≥ 0]. *)

val power_law :
  rng:Mmfair_prng.Xoshiro.t ->
  nodes:int ->
  attach:int ->
  Mmfair_topology.Graph.t * Mmfair_core.Network.session_spec array
(** The Barabási–Albert graph of {!Mmfair_topology.Builders.power_law}
    (capacities uniform in [[1, 4)]) with one session per node, from
    the node to its first neighbor: hubs concentrate sharing.  Raises
    [Invalid_argument] on arguments the builder rejects. *)

val full_heap : unit -> Mmfair_core.Network.t
(** A 13-node tree (depth 2, fanout 3; capacity 3 on the root's links,
    2 below) where every link carries a receiver and every receiver has
    a finite [ρ], so a cold solve fills both of the water-filling
    heaps to their full size: one entry per link, one per receiver.
    Three multicast sessions from the root to each group of leaves,
    one unicast from each leaf's parent, and two cross-tree sessions
    (one single-rate); every [ρ] binds or ties somewhere. *)
