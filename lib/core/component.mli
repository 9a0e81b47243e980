(** Fairness components: the coupled region of a perturbation.

    When one session's situation changes (membership, [ρ], a link
    capacity), the max-min fair allocation only moves inside the
    transitive closure of the touched sessions over {e binding} links
    — links with (almost) no slack, where a rate change propagates to
    every session crossing.  Everything outside keeps its old rates
    and can be frozen as background load in a warm-start restricted
    solve (the fairness-component argument of DESIGN.md §11).

    This module owns the component machinery — the closure, the
    binding-link predicate, and the boundary scan that drives the
    expansion loop to a sound fixed point — so both the per-event
    churn engine and the batch coalescer in [Mmfair_dynamic] share one
    audited implementation.

    A component is session-granular: single-rate coupling and the
    max-shape of the [Efficient]/[Scaled] link-rate functions tie a
    session's receivers together, so sessions join or stay out
    whole. *)

val eps_bind : float
(** Relative slack below which a link counts as binding ([1e-7]).
    Wider than the solvers' [1e-9] working tolerance on purpose: a
    link within [eps_bind] (relative) of saturation joins the coupling
    graph, so float drift between an incremental and a from-scratch
    solve stays well inside the differential gate. *)

type t
(** A growing set of sessions of one network. *)

val create : Network.t -> t
(** The empty component of the network.  The network fixes both the
    session universe and the link incidence the closure walks — pass
    the {e post-surgery} network when growing a component for a
    re-solve.  Allocates O(sessions + links) of marks; see
    {!with_component} for the per-epoch form. *)

val with_component : Network.t -> (t -> 'a) -> 'a
(** [with_component net f] is [f] applied to the empty component of
    [net], built on arrays reused from the previous call on this domain
    (generation-stamped, so starting costs O(1) once they have grown to
    the network).  The component must not be used after [f] returns.
    A call nested inside another's [f] gets fresh arrays, as
    {!create}. *)

val network : t -> Network.t
val mem : t -> int -> bool
val cardinal : t -> int
(** Number of sessions inside. *)

val is_empty : t -> bool
val is_full : t -> bool
(** Whether every session of the network is inside. *)

val fill : t -> unit
(** Put every session inside (the full-solve case). *)

val sessions : t -> int array
(** The member sessions, ascending. *)

val groups : t -> int array list
(** The member sessions partitioned into {e disjoint} groups: two
    members land in the same group iff one was absorbed through a
    binding link touching the other (transitively) — separately-seeded
    closures that never met stay separate.  Groups are ordered by
    their smallest session, members ascending within.  Disjoint
    groups share no binding link, so their restricted solves are
    independent sub-problems; the batch engine hands each to its own
    solve task and re-checks the split against the merged
    candidate with {!group_boundary_links}. *)

val group_boundary_links :
  t ->
  binding:(Mmfair_topology.Graph.link_id -> bool) ->
  int array ->
  Mmfair_topology.Graph.link_id list
(** {!boundary_links} restricted to one group of {!groups}: the links
    that are saturated (per [binding]) and carry both a receiver of
    the group and a receiver outside it — where "outside" includes
    {e other groups'} members, so a link two groups both lean on is
    flagged and absorbing it merges them.  The empty list certifies
    the group's restricted solve against everything it was frozen
    against. *)

val receiver_count : t -> int
(** Total receivers over the member sessions. *)

val binding : Allocation.t -> Mmfair_topology.Graph.link_id -> bool
(** [binding alloc] is a memoized per-link predicate: is the link
    within {!eps_bind} (relative) of saturation under [alloc]?  Usages
    are judged against the allocation's {e own} network's capacities —
    for a pre-surgery allocation those are the pre-surgery capacities,
    which is what its binding set means.  Lazy on purpose: the closure
    and the boundary scan only ever ask about links the member
    sessions cross, so sweeping every link's usage up front
    ([Allocation.link_usages]) would waste most of an incremental
    re-solve's budget. *)

val absorb : t -> binding:(Mmfair_topology.Graph.link_id -> bool) -> int -> unit
(** [absorb t ~binding i] grows the component by session [i] and
    everything reachable from it across binding links (transitive).
    [binding] answers for the coupling allocation — the previous
    epoch's, or [fun l -> old l || new_ l] during boundary expansion;
    session membership on links is read from the component's
    network.  Each binding link is expanded at most once per
    component, whatever the predicate: afterwards all its sessions are
    members of one group, so a revisit could change nothing.  The cost
    is therefore the absorbed links' cells plus the expanded sessions'
    path cells. *)

val absorb_link :
  t -> binding:(Mmfair_topology.Graph.link_id -> bool) -> Mmfair_topology.Graph.link_id -> unit
(** [absorb_link t ~binding l] absorbs every session crossing [l]
    (with their closures) — but only if [binding l] holds.  Used to
    seed from a departed receiver's old path: its links are gone from
    the session's new link set, yet their freed capacity lets
    bystanders rise. *)

val boundary_links :
  t -> binding:(Mmfair_topology.Graph.link_id -> bool) -> Mmfair_topology.Graph.link_id list
(** The links that violate the restricted-solve invariant: saturated
    (per [binding], which should answer for the {e candidate}
    allocation) and carrying both a member and a non-member receiver.
    A restricted solve is the global optimum precisely when this list
    is empty; otherwise absorb the boundary links' sessions and
    re-solve (DESIGN.md §11).  Scans only the member sessions' paths
    straight off the incidence CSR, not every link of the network. *)
