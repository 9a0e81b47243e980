(** Max-min fairness certificates.

    Definition 1 quantifies over {e all} alternative feasible
    allocations, so it cannot be checked directly.  For all-multi-rate
    networks with efficient link-rate functions and unit weights it is
    equivalent to a locally checkable condition — the receiver-level
    bottleneck characterization (the multicast analogue of Bertsekas &
    Gallagher's unicast result, and exactly the paper's Fairness
    Property 1):

    a feasible allocation is max-min fair iff every receiver is at its
    session's [ρ_i] or crosses a fully utilized link on which no
    receiver (of any session) has a strictly larger rate.

    Sufficiency follows the paper's Theorem-1 argument: if receiver
    [r] could be raised, its bottleneck link's capacity forces some
    session's link rate down, hence some receiver with rate
    [≤ a_r] down — exactly Definition 1's condition.  Necessity is
    Theorem 1 itself.  This module produces the per-receiver
    witnesses, so "this allocation is max-min fair" comes with an
    auditable certificate rather than a yes/no answer.  Its witness
    search ({!witness}) and tolerances ({!rate_tol}, {!at_rho}) are
    the ones {!Properties} and {!Weighted} check with. *)

type witness =
  | At_rho                            (** [a_{i,k} = ρ_i]. *)
  | Bottleneck of Mmfair_topology.Graph.link_id
      (** A fully utilized link on the receiver's data-path where its
          rate is maximal among all receivers crossing it. *)

type verdict =
  | Certified of (Network.receiver_id * witness) list
      (** Feasible and every receiver has a witness: max-min fair. *)
  | Infeasible of Allocation.violation list
  | Uncertified of Network.receiver_id list
      (** Feasible but these receivers lack witnesses: not max-min
          fair (some of them can be raised). *)

val rate_tol : float -> float -> float
(** [rate_tol eps x] is the absolute tolerance [eps · max 1 |x|] every
    rate comparison of the fairness checkers uses around [x]. *)

val at_rho : eps:float -> Allocation.t -> Network.receiver_id -> bool
(** Whether the receiver's rate is within [rate_tol eps ρ_i] of a
    finite [ρ_i]. *)

val witness :
  ?eps:float ->
  value:(Network.receiver_id -> float) ->
  Allocation.t ->
  Network.receiver_id ->
  witness option
(** The Fairness Property 1 witness search, the one body behind
    {!check}, {!Properties.fully_utilized_receiver_fair} and
    {!Weighted.fully_utilized_weighted_fair}: [At_rho] when the
    receiver's rate is within [rate_tol] of [ρ_i]; otherwise
    [Bottleneck l] for the first fully utilized link [l] on its
    data-path where no receiver's [value] exceeds its own by more than
    [rate_tol]; otherwise [None].  [value] is the compared view of a
    rate: the raw rate [Allocation.rate alloc] for the paper's
    property, the normalized [a/w] for the weighted one.  [eps]
    defaults to [1e-9]. *)

val check : ?eps:float -> Allocation.t -> verdict
(** Certify an allocation of an all-multi-rate, efficient, unit-weight
    network: the domain check, then feasibility, then {!witness} on
    the raw rates for every receiver.  Raises [Invalid_argument] if
    some session is single-rate or uses a non-[Efficient] link-rate
    function, or some weight is not 1 (the characterization does not
    apply there — use {!Allocator.max_min} and the ordering lemmas
    instead; for weights see {!Weighted}). *)

val is_max_min : ?eps:float -> Allocation.t -> bool
(** [check] collapsed to a boolean. *)
