(** Allocations of receiver rates and derived link usage.

    An allocation assigns every receiver [r_{i,k}] a rate [a_{i,k}].
    From the rates and each session's link-rate function [v_i] we
    derive the session link rates [u_{i,j}] and link rates
    [u_j = Σ_i u_{i,j}], and can test the paper's feasibility
    conditions: [0 ≤ a_{i,k} ≤ ρ_i] for every receiver, [u_j ≤ c_j]
    for every link, and rate equality inside single-rate sessions.

    An allocation may also carry link usages [u_j] its producer already
    knows ({!type-usage}): a warm-start solve knows those of the links
    it touched, and the churn engine carries every link's in every
    candidate it judges, and so from one epoch to the next.  A carried
    usage is bitwise the one {!link_rate} sums; it is what the fairness
    component reads its binding links from. *)

type t
(** An immutable allocation bound to its network. *)

type usage =
  | No_usage  (** Nothing carried: what {!make}, {!of_fresh_rows} and {!zero} build. *)
  | Solved of { links : Mmfair_topology.Graph.link_id array; usage : float array }
      (** [usage.(k)] is [u_j] of [links.(k)]: a warm-start solve's
          result ({!Allocator.max_min_partial}) carries the links it
          touched, each once. *)
  | Every_link of float Pvec.t
      (** [u_j] of every link, indexed by link id, shared between
          epochs like the rows ({!Pvec}). *)
(** Link usages carried with an allocation.  Each value is the one
    {!link_rate} returns, bit for bit: summed over the link's cells in
    link order, each cell folded as {!Redundancy_fn.apply_fold} folds
    it. *)

val make : Network.t -> float array array -> t
(** [make net rates] with [rates.(i).(k)] the rate of [r_{i,k}].
    Raises [Invalid_argument] on a shape mismatch with the network or
    a negative/NaN rate.  Feasibility is {e not} required — infeasible
    allocations are first-class so that max-min comparisons (Lemma 1)
    and counterexamples can be expressed. *)

val of_fresh_rows : Network.t -> (int -> float array) -> t
(** [of_fresh_rows net row] is the allocation whose session [i] has
    the rates [row i], called once per session in index order.  Each
    row is validated as it arrives, like {!make} and with its messages,
    and adopted without copying — the cold solver's constructor for the
    rows it cuts from its arena.  The caller must hold no other
    reference to a returned row. *)

val zero : Network.t -> t
(** The all-zero allocation (always feasible). *)

val unsafe_of_rows : ?usage:usage -> Network.t -> float array Pvec.t -> t
(** [unsafe_of_rows ~usage net rates] adopts the row vector without
    copying or validating it — the churn engine's constructor for rates
    assembled from already-validated rows (solver output and rows
    carried from a previous allocation).  The caller must never mutate
    the rows afterwards; sharing rows between allocations is fine.
    [usage] (default {!No_usage}) is trusted as well: each value must
    be the one {!link_rate} gives on the result.  Raises
    [Invalid_argument] only on a session-count mismatch.  Everyone else
    should use {!make}. *)

val network : t -> Network.t

val rate : t -> Network.receiver_id -> float
(** The paper's [a_{i,k}]. *)

val rates_of_session : t -> int -> float array
(** Rates of session [i]'s receivers, index order. *)

val unsafe_rates_of_session : t -> int -> float array
(** Like {!rates_of_session} but returns the live row without copying.
    The caller must not write to it — for the churn engine's row
    carrying, where the per-session copy would reintroduce an
    O(receivers) term per epoch. *)

val unsafe_rows : t -> float array Pvec.t
(** The per-session row vector itself, no copying.  The caller must
    not write to any row.  The churn engine seeds an epoch's pinned
    rows with one {!Pvec.update} of it, which shares every row (and
    every chunk of rows) the epoch does not touch. *)

val usage : t -> usage
(** The link usages the allocation carries.  The fairness component
    ({!Component}) reads a link's binding bit from them, and calls
    {!link_rate} only for a link they say nothing about. *)

val session_link_rate : t -> session:int -> link:Mmfair_topology.Graph.link_id -> float
(** The paper's [u_{i,j}] — [v_i] applied to the downstream receiver
    rates on that link ([0.] when the session does not use the link). *)

val link_rate : t -> Mmfair_topology.Graph.link_id -> float
(** The paper's [u_j = Σ_i u_{i,j}], always summed from the rows; it
    never reads a carried {!type-usage}. *)

val fully_utilized : ?eps:float -> t -> Mmfair_topology.Graph.link_id -> bool
(** [u_j ≥ c_j − eps] (default [eps = 1e-9] scaled by capacity). *)

val link_redundancy : t -> session:int -> link:Mmfair_topology.Graph.link_id -> float option
(** Definition 3: [u_{i,j} / max{a_{i,k} : r_{i,k} ∈ R_{i,j}}].
    [None] when the session has no receiver crossing the link or the
    maximal downstream rate is zero. *)

type violation =
  | Rate_above_rho of Network.receiver_id
  | Link_overutilized of Mmfair_topology.Graph.link_id
  | Single_rate_mismatch of int
      (** Session index whose receivers' rates differ. *)

val feasibility_violations : ?eps:float -> t -> violation list
(** All ways the allocation breaks feasibility ([eps] is a relative
    tolerance, default [1e-9]).  Empty ⇔ feasible. *)

val is_feasible : ?eps:float -> t -> bool

val ordered_vector : t -> float array
(** All receiver rates sorted ascending — the paper's ordered vector
    for the min-unfavorability relation (Definition 2). *)

val total_throughput : t -> float
(** Sum of all receiver rates. *)

val pp : Format.formatter -> t -> unit
(** Per-session receiver rates and per-link [u_j / c_j]. *)

val pp_violation : Format.formatter -> violation -> unit
