(** The paper's network model: [N = (G, {S_1…S_m}, τ, Φ)].

    A network couples a capacitated graph with a set of multicast
    sessions, the topology mapping [τ] (where each member sits), and
    the session-type mapping [Φ] (single-rate or multi-rate).  On
    construction we run the routing algorithm once and freeze every
    receiver's data-path, plus the paper's derived sets [R_{i,j}] (the
    receivers of session [i] crossing link [j]) and [R_j] (all
    receivers crossing [j]). *)

type session_type = Single_rate | Multi_rate
(** The paper's [Φ(S_i) ∈ {S, M}]. *)

type session_spec = {
  sender : Mmfair_topology.Graph.node;           (** [X_i]'s node under τ. *)
  receivers : Mmfair_topology.Graph.node array;  (** [r_{i,k}]'s nodes under τ. *)
  session_type : session_type;                   (** [Φ(S_i)]. *)
  rho : float;  (** Maximum desired rate [ρ_i]; [infinity] when unbounded. *)
  vfn : Redundancy_fn.t;  (** Session link-rate function [v_i] (Section 3). *)
  weights : float array;
      (** Per-receiver fairness weights — the paper's Section-5
          proposal for TCP-fairness ("a receiver's rate is weighted by
          the inverse of round trip time").  Weight 1 everywhere
          recovers plain max-min fairness; under weighted max-min
          fairness the {e normalized} rates [a_{i,k}/w_{i,k}] are
          what progressive filling equalizes.  Must be positive and,
          inside a single-rate session, all equal (its receivers are
          forced to one rate, so unequal weights would be
          contradictory). *)
}
(** Everything the caller specifies about one session. *)

val session :
  ?session_type:session_type ->
  ?rho:float ->
  ?vfn:Redundancy_fn.t ->
  ?weights:float array ->
  sender:Mmfair_topology.Graph.node ->
  receivers:Mmfair_topology.Graph.node array ->
  unit ->
  session_spec
(** Convenience constructor; defaults: [Multi_rate], [rho = infinity],
    [vfn = Efficient], all weights 1. *)

type receiver_id = { session : int; index : int }
(** Identifies receiver [r_{i,k}] as (session [i], index [k]), both
    0-based. *)

type t
(** An immutable, validated network with routed data-paths. *)

val make : Mmfair_topology.Graph.t -> session_spec array -> t
(** [make g sessions] validates and routes.  Raises [Invalid_argument]
    when a session has no receivers, [rho ≤ 0] (or NaN), a [Scaled]
    redundancy factor is below 1 or non-finite, a weight is
    non-positive or non-finite, some link capacity is non-finite, a
    member node is unknown, two members of one session share a node
    (the paper's restriction on τ), or some receiver is unreachable
    from its sender.  Every constructed [t] is therefore safe to hand
    to any solver: degenerate inputs are rejected here, with a
    diagnostic naming the offending session or link.

    Errors come in a fixed order: link capacities, then every session
    in index order (including the receivers' node range), and only
    then routing, whose error names the lowest unreachable
    (session, receiver).  A validation error therefore always wins
    over an unreachable receiver.

    Cost: sessions are grouped by sender and each distinct sender is
    routed by one early-exit BFS ({!Mmfair_topology.Routing.routes}),
    so routing costs O(searched prefix + routed path length) per
    distinct sender plus O(nodes + sessions) scratch per call — never
    a path for every node.  The incidence build copies the routed
    paths into {!incidence}'s forward rows, the only stored routing,
    and drops them; it is linear in the total routed path length plus
    [n_links]. *)

val graph : t -> Mmfair_topology.Graph.t
(** The graph [t] was built on, shared, not copied: never mutate it
    afterwards (capacities change through {!with_capacity} or
    {!surgery_capacity}, which copy it). *)

val max_capacity : t -> float
(** The largest link capacity in the graph (0 for a graph without
    links).  O(1): taken where construction and capacity surgery
    already walk the capacities.  The allocator bounds its search with
    it. *)

val session_count : t -> int
(** The paper's [m]. *)

val receiver_count : t -> int
(** Total receivers over all sessions. *)

val session_spec : t -> int -> session_spec

val unsafe_specs : t -> session_spec Pvec.t
(** Every session's spec, indexed by session: the vector the network
    holds, not a copy.  For loops that visit many sessions, which read
    it through {!Pvec.unsafe_spine} instead of calling {!session_spec}
    per session.  Read-only. *)

val session_type : t -> int -> session_type
val rho : t -> int -> float
val vfn : t -> int -> Redundancy_fn.t

val weight : t -> receiver_id -> float
(** The receiver's fairness weight [w_{i,k}]. *)

val all_weights_unit : t -> bool
(** Whether every receiver's weight is 1 (plain max-min fairness; the
    allocator's closed-form linear engine requires this). *)

val with_weights : t -> float array array -> t
(** [with_weights t w] replaces every session's weight vector
    ([w.(i).(k)] for [r_{i,k}]).  Raises [Invalid_argument] on shape
    mismatch and on anything {!make} rejects (non-positive or
    non-finite weights, unequal weights inside a single-rate session),
    with the message naming [Network.with_weights]. *)

val receivers_of_session : t -> int -> receiver_id array
(** The [k_i] receivers of session [i], in index order. *)

val all_receivers : t -> receiver_id array
(** Every receiver, session-major order. *)

val data_path : t -> receiver_id -> Mmfair_topology.Routing.path
(** The receiver's frozen data-path: a fresh list built from its
    forward row in {!incidence}, O(path length). *)

val session_links : t -> int -> Mmfair_topology.Graph.link_id list
(** The session's data-path: the union of its receivers' paths,
    ascending link order. *)

val receivers_on_link : t -> session:int -> link:Mmfair_topology.Graph.link_id -> receiver_id list
(** The paper's [R_{i,j}]. *)

val all_on_link : t -> link:Mmfair_topology.Graph.link_id -> receiver_id list
(** The paper's [R_j]. *)

type incidence = private {
  n_receivers : int;  (** Total receivers; global ids are [0..n_receivers-1]. *)
  n_cells : int;  (** Compact (link, session) cells some receiver crosses. *)
  session_first : int array;
      (** [m+1] entries; receiver [r_{i,k}]'s global id is
          [session_first.(i) + k], and [session_first.(m)] is
          [n_receivers]. *)
  gid_session : int array;
      (** The session [i] of each global id [g], whose index is then
          [g - session_first.(i)]: the inverse of the encoding. *)
  link_row : int array;
      (** [n_links + 1] offsets into [cell_session]/[cell_first]: link
          [l]'s compact cells are [link_row.(l) .. link_row.(l+1))], in
          ascending session order.  Only (link, session) pairs some
          receiver crosses get a cell, so the index costs
          O(total path length + n_links), not O(n_links · m). *)
  cell_session : int array;  (** Session of each compact cell. *)
  cell_first : int array;
      (** [n_cells + 1] offsets into [link_cells]: cell [c]'s receivers
          (the paper's [R_{i,l}] for [i = cell_session.(c)]) occupy
          [link_cells.(cell_first.(c)) .. link_cells.(cell_first.(c+1)))],
          in receiver-index order; link [l]'s full range ([R_l]) spans
          [cell_first.(link_row.(l)) .. cell_first.(link_row.(l+1)))]. *)
  link_cells : int array;  (** Global receiver ids, grouped as above. *)
  recv_row : int array;  (** [n_receivers + 1] offsets into [recv_cells]. *)
  recv_cells : int array;
      (** The forward rows: link ids of each receiver's data-path, path
          order, grouped by global receiver id.  These rows are the only
          stored copy of the routing; {!data_path} and the other list
          views are built from the index on demand. *)
  recv_cell_of : int array;
      (** Parallel to [recv_cells]: the compact cell of each path entry,
          so per-receiver updates (freezes) reach their cells without a
          lookup. *)
}
(** Flat CSR-style incidence index over the frozen routing — the
    allocator's hot loops iterate these int arrays instead of the
    list-based [receivers_on_link]/[all_on_link] views.  Built at
    construction; a surgery without a join or leave shares it
    physically (ρ and capacity never move a path), one with a join or
    leave rebuilds it once at {!surgery_commit}, by the same writer
    {!make} uses.  Exposed read-only: never mutate the arrays. *)

val incidence : t -> incidence
(** The precomputed incidence index.  O(1). *)

val receiver_gid : t -> receiver_id -> int
(** The receiver's global id in the incidence index
    ([session_first.(session) + index]). *)

val is_unicast : t -> int -> bool
(** A session with exactly one receiver (the paper treats unicast as
    either type; see Section 2). *)

val with_session_types : t -> session_type array -> t
(** [with_session_types t types] is the paper's Φ-replacement: an
    otherwise identical network with session [i] given [types.(i)].
    Paths are not re-routed (the topology is unchanged).  Raises
    [Invalid_argument] on length mismatch, or when a session made
    single-rate has unequal weights. *)

val with_vfns : t -> Redundancy_fn.t array -> t
(** Lemma-4 replacement: same network, new redundancy functions.
    Raises [Invalid_argument] on length mismatch or a [Scaled] factor
    below 1 or non-finite, as {!make} does. *)

val with_rho : t -> int -> float -> t
(** [with_rho t i rho] replaces session [i]'s maximum desired rate
    ([infinity] = unbounded): a one-event surgery ({!surgery_rho}).
    Paths and the incidence are shared with [t].  Raises
    [Invalid_argument] on an unknown session or [rho ≤ 0] (or NaN). *)

val without_receiver : t -> receiver_id -> t
(** Section-2.5 surgery: remove one receiver, as a one-event surgery
    ({!surgery_leave}).  No session is re-validated or re-routed
    (removal cannot invalidate anything); the incidence is rebuilt
    once.  The session must keep at least one receiver; receivers
    after the removed index shift down by one. *)

val with_receiver : ?weight:float -> t -> session:int -> node:Mmfair_topology.Graph.node -> t
(** Join surgery: add a receiver on [node] to [session], appended at
    the highest index, as a one-event surgery ({!surgery_join}).  Only
    the newcomer is validated and routed (one BFS from its sender);
    every other frozen path is reused, and the incidence is rebuilt
    once.  [weight] defaults to the session's first receiver's weight.
    Raises [Invalid_argument] when the session is unknown, the node is
    unknown or already hosts a member of this session (the paper's τ
    restriction), the weight is non-positive or non-finite, the weight
    differs inside a single-rate session, or the node is unreachable
    from the sender. *)

val with_capacity : t -> Mmfair_topology.Graph.link_id -> float -> t
(** Capacity surgery: an otherwise identical network with the link's
    capacity replaced, as a one-event surgery ({!surgery_capacity}).
    Routing is hop-count BFS and therefore capacity-independent, so
    paths and the incidence are shared unchanged; the graph is copied,
    never mutated in place.  Raises [Invalid_argument] on an unknown
    link or a non-positive or non-finite capacity. *)

(** {2 Surgery}

    The one way to change a network's membership, rates and
    capacities: each [with_*] function above is a one-event surgery,
    and the batch engine applies a whole churn batch as one.  The
    builder accumulates any number of changes as private specs of the
    touched sessions.  Each operation validates against the accumulated
    state, and a raise leaves both the base network and the builder
    untouched.  At {!surgery_commit}, a surgery with a join or leave
    pays {e one} incidence rebuild, however many events it holds; one
    without shares the base's incidence.  Error messages
    name the [with_*] function of the operation.  A builder is
    single-use: discard it after {!surgery_commit}. *)

type surgery

val surgery_begin : t -> surgery
(** A builder over [t].  O(1): nothing is copied and nothing is
    validated up front.  The first join or leave of a session copies that
    session's forward rows out of [t]'s incidence into the builder;
    no other session's rows are copied, and [t] is never written. *)

val surgery_session_count : surgery -> int

val surgery_spec : surgery -> int -> session_spec
(** The accumulated spec of session [i] — mid-batch state, reflecting
    every operation applied so far.  Raises [Invalid_argument] on an
    unknown session. *)

val surgery_join : ?weight:float -> surgery -> session:int -> node:Mmfair_topology.Graph.node -> unit
(** Add a receiver, with the conditions of {!with_receiver}, against
    the accumulated state. *)

val surgery_leave : surgery -> receiver_id -> unit
(** Remove a receiver, with the conditions of {!without_receiver},
    against the accumulated state. *)

val surgery_rho : surgery -> int -> float -> unit
(** Replace a session's ρ, with the conditions of {!with_rho}. *)

val surgery_capacity : surgery -> Mmfair_topology.Graph.link_id -> float -> unit
(** Replace a link's capacity, with the conditions of
    {!with_capacity} (the graph is copied at most once per surgery). *)

val surgery_commit : surgery -> t
(** The network with every accumulated change applied.  With a join
    or leave: one incidence rebuild, linear in sessions + links +
    total routed path length, by the writer {!make} uses: the touched
    sessions' rows come from the builder, and every other session's
    rows are copied from the base's incidence.  Without: the touched
    specs written into the base's spec vector in one {!Pvec.update}
    (the touched sessions plus a spine of [sessions / 32] pointers;
    every other spec is shared), and the base's incidence shared —
    plus one O(links) pass for
    {!max_capacity} when a capacity changed, the order of the graph
    copy that change already paid. *)

val pp : Format.formatter -> t -> unit
(** Sessions with their types, senders, receivers and paths. *)
