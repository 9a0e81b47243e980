(** Routing: data-paths from senders to receivers.

    The paper assumes "the network employs a routing algorithm, such
    that for each receiver … there is a sequence of links that carries
    data from [X_i] to [r_{i,k}]"; the set of links in the sequence is
    the receiver's {e data-path}.  We realize that algorithm as
    breadth-first (minimum-hop) routing with deterministic tie-breaking
    (lowest link id first), so identical queries always return
    identical paths — important because several fairness properties
    compare receivers with {e identical} data-paths. *)

type path = Graph.link_id list
(** A data-path: the links from sender to receiver, in order. *)

val routes : Graph.t -> (Graph.node * Graph.node array) array -> path option array array
(** [routes g groups] routes every [(src, targets)] group with one BFS
    from [src]: [(routes g groups).(j).(k)] is
    [shortest_path g src targets.(k)] for [groups.(j) = (src, targets)].

    Early exit: each search stops as soon as the last of its targets
    has been visited, and only the targets' paths are extracted, so a
    group costs O(searched prefix + routed path length) plus one
    O(nodes) scratch per call, shared by all its groups.  BFS fixes a
    node's parent on first visit, so an early stop returns exactly the
    paths of a full sweep.  Duplicate targets in one group get the same
    physical value ([==]); [src] as its own target gets [Some []].
    Raises [Invalid_argument "Routing.routes: unknown source"] (or
    [unknown destination]) on a node outside [[0, node_count)]. *)

val shortest_path : Graph.t -> Graph.node -> Graph.node -> path option
(** [shortest_path g src dst] is a minimum-hop path, [None] when [dst]
    is unreachable.  [Some []] when [src = dst].  One {!routes} group:
    the search stops once [dst] is visited.  Raises
    [Invalid_argument "Routing.shortest_path: unknown source"] (or
    [unknown destination]) on a bad node. *)

val paths_from : Graph.t -> Graph.node -> path option array
(** [paths_from g src] computes [shortest_path g src dst] for every
    node [dst] in one BFS (index = destination node): the {!routes}
    group whose targets are all nodes.  Tie-breaking matches
    {!shortest_path}, and the returned paths form a tree: the paths to
    two destinations agree on their shared prefix.  Callers that need
    only some destinations should use {!routes}, which stops early.
    Raises [Invalid_argument "Routing.paths_from: unknown source"] on a
    bad source. *)

val dijkstra :
  Graph.t -> weight:(Graph.link_id -> float) -> Graph.node -> (path * float) option array
(** [dijkstra g ~weight src] computes, for every destination node, a
    minimum-total-weight path from [src] and its cost ([None] when
    unreachable; [Some ([], 0.)] for [src] itself).  Weights must be
    non-negative; a negative weight raises [Invalid_argument].
    Tie-breaking is deterministic (first-settled parent wins).  With
    [weight = fun _ -> 1.] this agrees with the BFS cost of
    {!paths_from} (though the tie-broken paths may differ). *)

val widest_path : Graph.t -> Graph.node -> Graph.node -> (path * float) option
(** [widest_path g src dst] is a path maximizing the minimum link
    capacity along it (the max-bottleneck route) together with that
    bottleneck capacity — the route a capacity-aware multicast overlay
    would pick.  [None] when unreachable; [Some ([], infinity)] when
    [src = dst]. *)
