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

type binding
(** Which links couple sessions: those within {!eps_bind} (relative) of
    saturation under any of a few allocations.  Usages are judged
    against each allocation's {e own} network's capacities — for a
    pre-surgery allocation those are the pre-surgery capacities, which
    is what its binding set means.  A usage is the one the allocation
    carries ({!Allocation.usage}) when it carries it, and
    {!Allocation.link_rate} otherwise; the two are bitwise equal.

    A frozen receiver pinned at its [ρ] may stay out of a component
    although it crosses a binding link.  The link is {e pinned-exempt}
    for a non-member session, under an allocation and a [top], when
    every session on the link is multi-rate [Efficient] (the domain of
    {!Certify}'s local characterisation) and each of the session's
    receivers crossing it is at its [ρ] with a normalised rate
    ([rate / weight]) below [(1 − eps_bind) · top].  Such a receiver
    is certified by its own [ρ], and no receiver whose certificate is
    the link rates lower.  Only an allocation whose network shares the
    component's incidence (no join or leave in between) exempts
    anybody. *)

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

val binding : ?also:Allocation.t list -> Allocation.t -> binding
(** [binding ~also a]: the links binding under [a] or under any of
    [also] (at most two; [Invalid_argument] otherwise); [a] also judges
    which frozen receivers stay out.  Nothing is computed here.  A
    component reads whether a link binds from the usage the allocation
    carries: an array read for every allocation the churn engine
    builds ({!Allocation.Every_link}), a bit set once from a solve's
    touched links ({!Allocation.Solved}).  For a link the allocation
    carries nothing about, it calls {!Allocation.link_rate} once per
    allocation and link.  It folds a link's cells itself only to judge
    a ρ pin on a binding link: once per allocation and link, in one
    pass, into arrays its arena reuses from epoch to epoch. *)

val binds : t -> binding -> Mmfair_topology.Graph.link_id -> bool
(** Whether the link binds under [binding]. *)

val group_boundary_links : t -> binding:binding -> int array -> Mmfair_topology.Graph.link_id list
(** The links that violate one group's restricted-solve invariant: the
    links binding under [binding] (whose first allocation should be the
    {e candidate}) that carry both a receiver of [group], one of
    {!groups}, and an outside receiver that may not stay out.
    "Outside" includes {e other groups'} members, which never stay
    out: a link two groups both lean on is flagged, and absorbing it
    merges them.  A non-member
    stays out when, under [binding]'s first allocation, the link is
    pinned-exempt ({!type-binding}) for it with [top] the highest normalised rate of
    the group's own receivers on the link.  Every non-member also
    stays out, whatever its rate, when every session on the link is
    multi-rate [Efficient] and every receiver on it, the group's and
    the outside ones, sits at its [ρ] under that allocation: each is
    certified by its own [ρ], so the link is nobody's certificate.
    {!absorb} does not take this rule: it judges by the previous
    allocation, under which a seed's [ρ] may since have risen, so a
    link all at [ρ] before the event can bind the raised seed and the
    pinned sessions on it must come in.  The empty list certifies
    the group's restricted solve against everything it was frozen
    against; otherwise absorb the boundary links' sessions and re-solve
    (DESIGN.md §11).  Scans only the group's paths straight off the
    incidence CSR, not every link of the network. *)

val receiver_count : t -> int
(** Total receivers over the member sessions. *)

val absorb : t -> binding:binding -> int -> unit
(** [absorb t ~binding i] grows the component by session [i] and
    everything reachable from it across binding links (transitive);
    session membership on links is read from the component's network.
    On each binding link, a non-member for which the link is
    pinned-exempt ({!type-binding}) under [binding]'s first allocation, with [top] the
    highest normalised rate of the link's receivers below their [ρ],
    stays out; everyone else on it joins.  Each binding link is
    expanded at most once per component and keeps the session that
    expanded it: a session that stayed out there and joins later
    through another link is unioned with that session's group, so
    every member crossing an expanded link shares one group and a
    revisit could change nothing.  The cost is therefore the expanded
    links' cells plus the absorbed sessions' path cells. *)

val absorb_link : t -> binding:binding -> Mmfair_topology.Graph.link_id -> unit
(** [absorb_link t ~binding l] absorbs every member and every
    non-member that may not stay out on [l] (with their closures) — but
    only if [l] binds.  Used to seed from a departed receiver's old
    path (its links are gone from the session's new link set, yet their
    freed capacity lets bystanders rise) and to absorb a flagged
    boundary link. *)
