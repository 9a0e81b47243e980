(** Multi-sender multicast sessions — the paper's Section-5 extension.

    "It would also be interesting and useful to extend definitions of
    fairness to multicast sessions with multiple senders."

    A multi-sender session replicates the content at several sender
    nodes; each receiver fetches from its {e nearest} sender
    (minimum-hop, ties broken toward the lowest sender index),
    shortening data-paths and relieving shared links.  Because the
    paper's max-min fairness (Definition 1) is defined over {e
    receiver} rates, the definition carries over unchanged; what
    changes is the link-usage structure: the session's link rate
    decomposes per sender subtree,
    [u_{i,j} = Σ_s v_i {a_{i,k} : k assigned to s, l_j ∈ path(s, r_{i,k})}].

    That decomposition is exactly a set of single-sender sub-sessions
    sharing the original session's [ρ] and [v_i], so {!expand} lowers
    a multi-sender network onto the core {!Network} model and the
    Appendix-A allocator computes its max-min fair allocation
    directly.  Only multi-rate sessions are supported: a single-rate
    constraint coupling receivers {e across} senders has no canonical
    water-filling semantics (the sub-sessions would need to freeze as
    one unit even though their bottlenecks are disjoint), and the
    paper does not define one. *)

type spec = {
  senders : Mmfair_topology.Graph.node array;  (** ≥ 1 replica locations. *)
  receivers : Mmfair_topology.Graph.node array;
  rho : float;
  vfn : Redundancy_fn.t;
}

val spec :
  ?rho:float -> ?vfn:Redundancy_fn.t ->
  senders:Mmfair_topology.Graph.node array ->
  receivers:Mmfair_topology.Graph.node array ->
  unit -> spec

type t
(** An expanded multi-sender network. *)

val expand : Mmfair_topology.Graph.t -> spec array -> t
(** Assigns every receiver to its nearest sender (skipping senders
    colocated on the receiver's own node, which the model's τ
    restriction forbids) and builds the underlying {!Network} with one
    sub-session per (session, used sender) pair.  Raises
    [Invalid_argument] when a spec has no senders/receivers or a
    receiver can reach no eligible sender. *)

val network : t -> Network.t
(** The lowered single-sender network (for properties, ordering and
    any other core analysis). *)

val assignment : t -> session:int -> int array
(** [assignment t ~session] maps each receiver index of the original
    session to the index (into [spec.senders]) of its assigned
    sender. *)

val max_min : t -> Allocation.t
(** The max-min fair allocation of the lowered network. *)

val rate : t -> Allocation.t -> session:int -> receiver:int -> float
(** A receiver's rate under an allocation of the lowered network. *)
