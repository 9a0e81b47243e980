(** Capacitated network graphs.

    The paper's network graph [G]: nodes connected by [n] links, each
    link [l_j] with a capacity [c_j] limiting the aggregate flow it can
    carry in either direction (the paper's footnote 2 notes that
    per-direction capacities are a trivial extension via two
    unidirectional links; we model the paper's base case of a single
    shared capacity).  Nodes and links are dense integer ids so the
    fairness engine can use arrays keyed by them. *)

type node = int
(** Node identifier in [[0, node_count)]. *)

type link_id = int
(** Link identifier in [[0, link_count)] — the paper's index [j]. *)

type t
(** A mutable graph under construction; immutable once routing begins
    by convention (nothing enforces it, but adding links after paths
    were computed gives stale paths). *)

val create : nodes:int -> t
(** [create ~nodes] is an edgeless graph on [nodes] nodes.  Raises
    [Invalid_argument] when [nodes] is negative. *)

val add_node : t -> node
(** [add_node g] grows the graph by one node and returns its id. *)

val add_link : t -> node -> node -> float -> link_id
(** [add_link g a b c] connects [a] and [b] with a fresh link of
    capacity [c].  Self-loops, non-positive capacities and unknown
    nodes raise [Invalid_argument].  Parallel links are allowed (they
    are distinct [link_id]s). *)

val node_count : t -> int
val link_count : t -> int

val copy : t -> t
(** An independent copy: later [add_node]/[add_link]/[set_capacity] on
    either graph do not affect the other.  Node and link ids are
    preserved. *)

val set_capacity : t -> link_id -> float -> unit
(** Replace a link's capacity in place (endpoints and id unchanged).
    Raises [Invalid_argument] on a bad id or a non-positive capacity.
    Callers sharing a routed graph should {!copy} first — capacities
    feed the fairness solvers, not the frozen paths, so paths stay
    valid. *)

val capacity : t -> link_id -> float
(** The paper's [c_j].  Raises [Invalid_argument] on a bad id. *)

val unsafe_capacities : t -> float array
(** Every link's capacity in one flat array: entry [l] is
    [capacity g l] for each [l < link_count g].  Entries past
    [link_count g] are padding.  A read-only view, not a copy: callers
    must not write to it.  [add_link] may replace the array when it
    grows, so a caller holding the view across an [add_link] must ask
    again; [set_capacity] writes the view in place.  For per-link
    loops that would otherwise call {!capacity} once per link. *)

val endpoints : t -> link_id -> node * node
(** The two nodes a link connects, in insertion order. *)

val other_end : t -> link_id -> node -> node
(** [other_end g l v] is the endpoint of [l] that is not [v].  Raises
    [Invalid_argument] when [v] is not an endpoint of [l]. *)

val neighbors : t -> node -> (node * link_id) list
(** Adjacent nodes with the connecting link, in insertion order. *)

val iter_neighbors : t -> node -> f:(node -> link_id -> unit) -> unit
(** [iter_neighbors g v ~f] calls [f w l] for each neighbor in the same
    order as {!neighbors}, without building the list.  Search loops
    that visit every node (BFS, Dijkstra) should prefer it. *)

val links : t -> link_id list
(** All link ids, ascending. *)

val fold_links : t -> init:'a -> f:('a -> link_id -> 'a) -> 'a

val pp : Format.formatter -> t -> unit
(** One line per link: [l3: 2 -- 5 (cap 4.0)]. *)

val to_dot : t -> string
(** Graphviz rendering with capacities as edge labels. *)
