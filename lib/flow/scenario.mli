(** Flow-level workload scenarios over the paper's network model.

    A scenario is a capacitated graph plus {e flow classes}: each class
    has a (sender, attach) route, a Poisson arrival rate [lambda_c] and
    a workload-size distribution [W_c].  Because
    {!Mmfair_core.Network.make} freezes the session set, dynamic flows
    are modelled as a pre-allocated {e slot pool}: every class gets
    [slots] single-receiver sessions on its attach node, parked at a
    negligible [park_rho]; the simulator activates a slot on arrival
    ([Rho_change] to the class's peak rate or unbounded) and parks it
    again on departure.  Receivers of {e distinct} sessions may share a
    node, so the pool is legal however many slots a class has.

    The nominal load of link [j] is
    [rho_j = sum over classes crossing j of lambda_c E[W_c] / c_j];
    Bramson-style stability theory predicts a max-min served network is
    stable iff [max_j rho_j < 1], which {!Mmfair_flow.Sim} probes
    empirically.  {!scale_to_load} pins a scenario to a target
    [max_j rho_j] by scaling every class rate uniformly. *)

type cls = {
  label : string;
  sender : Mmfair_topology.Graph.node;
  attach : Mmfair_topology.Graph.node;  (** Where every flow (slot) of the class sits. *)
  size : Size.t;  (** Workload-size distribution [W_c]. *)
  rate : float;  (** Poisson arrival intensity [lambda_c] (flows per unit time). *)
  peak_rate : float option;  (** Active-slot rho (access-link cap); [None] = unbounded. *)
}

val cls :
  ?label:string ->
  ?peak_rate:float ->
  sender:Mmfair_topology.Graph.node ->
  attach:Mmfair_topology.Graph.node ->
  size:Size.t ->
  rate:float ->
  unit ->
  cls

type t

val make : ?park_rho:float -> ?slots:int -> Mmfair_topology.Graph.t -> cls array -> t
(** Validates the classes, builds the slot-pool network and routes it
    once.  Raises [Invalid_argument] on empty classes, [slots < 1],
    non-positive rates or park_rho, parameters {!Size.check} rejects,
    or anything {!Mmfair_core.Network.make} rejects (unknown nodes,
    unreachable attach points). *)

val network : t -> Mmfair_core.Network.t
(** The routed slot-pool network, all slots parked. *)

val graph : t -> Mmfair_topology.Graph.t
val classes : t -> cls array
val class_count : t -> int

val slots : t -> int
(** Concurrent-flow capacity per class; arrivals beyond it are counted
    as blocked by the simulator, never silently dropped. *)

val park_rho : t -> float

val session_of : t -> cls:int -> slot:int -> int
(** The session id of a slot (class-major: [cls * slots + slot]). *)

val active_rho : cls -> float
(** The rho an active slot carries: [peak_rate], or [infinity]. *)

val link_loads : t -> float array
(** Per-link nominal load [rho_j], indexed by link id. *)

val offered_load : t -> float
(** [max_j rho_j] — the scenario's position relative to the stability
    boundary at 1. *)

val scale_to_load : ?park_rho:float -> ?slots:int -> t -> load:float -> t
(** A copy with every class rate scaled by one factor so that
    {!offered_load} equals [load] (optionally resizing the pool).  With
    the pool's [slots] and [park_rho] unchanged the copy shares the
    network, which holds no class rate; otherwise the network is built
    anew.  Raises [Invalid_argument] on a non-positive target, a
    scenario offering no load or a scaled class {!make} would
    reject. *)

val single_link :
  ?capacity:float -> ?slots:int -> ?park_rho:float -> size:Size.t -> rate:float -> unit -> t
(** One class across one link of [capacity] (default 1): with
    exponential sizes this is exactly an M/M/1 processor-sharing queue,
    the closed-form anchor for the stability tests
    ([E[N] = rho/(1-rho)], Little's law). *)

val star_of_stars :
  ?clusters:int ->
  ?trunk_capacity:float ->
  ?leaf_factor:float ->
  ?slots:int ->
  ?park_rho:float ->
  size:Size.t ->
  rate:float ->
  unit ->
  t
(** The churn benchmark's topology, flow-level: a root sender, [clusters]
    hubs behind per-cluster trunk links of [trunk_capacity], one leaf
    per hub at [leaf_factor] times the trunk (default 4, keeping the
    trunk the unique bottleneck — same-leaf flows are distinct sessions
    and therefore {e sum} on the leaf link).  One class per cluster,
    each with arrival intensity [rate], sender at the root, flows
    attached at the leaf. *)
