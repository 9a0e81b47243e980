(** Executable checkers for the paper's four fairness properties.

    Section 2.1 defines four desirable properties of an allocation,
    derived from the unicast max-min properties.  Each checker returns
    a report listing every violation with its witness, so failures are
    explainable (the paper's Figure-2 and Figure-4 discussions walk
    through exactly such witnesses).

    Tolerances: a link is "fully utilized" within a relative [eps]
    (default [1e-9]); rate comparisons use the same tolerance
    ({!Certify.rate_tol}).  Fairness Property 1 is {!Certify}'s witness
    search; {!Weighted} runs Properties 1 and 2 on normalized rates. *)

type fully_utilized_violation = {
  receiver : Network.receiver_id;  (** The receiver whose rate has no justifying bottleneck. *)
}
(** Fairness Property 1 violation: the receiver is below [ρ_i] yet no
    fully utilized link on its data-path carries only receivers with
    rates ≤ its own. *)

type same_path_violation = {
  first : Network.receiver_id;
  second : Network.receiver_id;
  first_rate : float;
  second_rate : float;
}
(** Fairness Property 2 violation: identical data-paths, different
    rates, and neither rate is explained by its session's [ρ].  The
    two rates are the compared values: raw, or normalized [a/w] when
    {!Weighted} reports. *)

type per_receiver_link_violation = {
  receiver : Network.receiver_id;
      (** No fully utilized link on this receiver's data-path gives
          its session a maximal session link rate. *)
}
(** Fairness Property 3 violation. *)

type per_session_link_violation = {
  session : int;
      (** No fully utilized link anywhere on the session's data-path
          gives it a maximal session link rate, and not all its
          receivers sit at [ρ_i]. *)
}
(** Fairness Property 4 violation. *)

type report = {
  fully_utilized_receiver : fully_utilized_violation list;  (** FP 1. *)
  same_path_receiver : same_path_violation list;            (** FP 2. *)
  per_receiver_link : per_receiver_link_violation list;     (** FP 3. *)
  per_session_link : per_session_link_violation list;       (** FP 4. *)
}

val fully_utilized_receiver_fair :
  ?eps:float -> ?value:(Network.receiver_id -> float) -> Allocation.t -> fully_utilized_violation list
(** Fairness Property 1 (fully-utilized-receiver-fairness): each
    receiver has [a_{i,k} = ρ_i] or a fully utilized link [l_j] on its
    data-path with [a_{i',k'} ≤ a_{i,k}] for every [r_{i',k'} ∈ R_j].
    Returns the receivers for which {!Certify.witness} finds no
    witness (empty = property holds).  [value] (default: the raw rate)
    is the view the link's receivers are compared under; the weighted
    analogue passes [a/w]. *)

val same_path_receiver_fair :
  ?eps:float -> ?value:(Network.receiver_id -> float) -> Allocation.t -> same_path_violation list
(** Fairness Property 2 (same-path-receiver-fairness): any two
    receivers (of any sessions) whose data-paths traverse the same set
    of links have equal [value]s (default: the raw rate), unless the
    lower one sits at its session's [ρ]. *)

val per_receiver_link_fair : ?eps:float -> Allocation.t -> per_receiver_link_violation list
(** Fairness Property 3 (per-receiver-link-fairness): for each
    receiver, [a_{i,k} = ρ_i] or some fully utilized link [l_j] on its
    data-path has [u_{i',j} ≤ u_{i,j}] for every other session. *)

val per_session_link_fair : ?eps:float -> Allocation.t -> per_session_link_violation list
(** Fairness Property 4 (per-session-link-fairness): for each session,
    all receivers at [ρ_i] or some fully utilized link on the
    session's data-path has [u_{i',j} ≤ u_{i,j}] for every other
    session. *)

val check_all : ?eps:float -> Allocation.t -> report
(** All four checkers at once. *)

val holds_all : ?eps:float -> Allocation.t -> bool
(** [true] iff all four violation lists are empty — the conclusion of
    the paper's Theorem 1 for multi-rate max-min fair allocations. *)

val pp_report : Format.formatter -> report -> unit
(** Human-readable report, one line per violation, or "all four
    fairness properties hold". *)
