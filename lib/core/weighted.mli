(** Weighted max-min fairness — the paper's Section-5 extension.

    "We believe that many of our results can be directly applied to
    TCP-fairness by constructing a definition of max-min fairness
    where receiver rates are assigned weights (i.e., a receiver's rate
    is weighted by the inverse of round trip time)."

    With per-receiver weights [w_{i,k}] (see
    {!Network.session_spec.weights}), progressive filling raises the
    {e normalized} rates [a_{i,k}/w_{i,k}] together.  The allocator
    computes the weighted max-min fair allocation when every session
    is unicast, or when each session's receivers on a link have equal
    weights.  Outside that domain it is not exact, and neither is the
    weighted Fairness Property 1 below: with session A = (a1 w=1,
    a2 w=3) and session B = (b w=1) on one capacity-4 trunk (each
    receiver on its own capacity-100 leaf), the allocator returns
    (1, 3, 1) and {!holds_all} accepts it, yet (3, 3, 1) is feasible
    and raises a1 without lowering anyone.  This module adds the
    weighted analogues of the analysis tools:

    - the normalized ordered vector (feeding the [≼_m] ordering, whose
      lemmas apply verbatim to normalized rates);
    - weighted same-path-receiver-fairness (equal {e normalized} rates
      on identical data-paths — the TCP-fairness criterion of
      Mahdavi & Floyd that Fairness Property 2 generalizes);
    - weighted fully-utilized-receiver-fairness (no receiver can grow
      without shrinking someone with a smaller normalized rate on a
      shared saturated link);
    - RTT helpers for building TCP-like weight assignments. *)

val normalized_vector : Allocation.t -> float array
(** Ascending [a_{i,k}/w_{i,k}] over all receivers — the vector the
    weighted max-min fair allocation maximizes under [≼_m]. *)

val weights_from_rtts : float array -> float array
(** [weights_from_rtts rtts] is the TCP-fairness weight assignment
    [1/rtt] (Section 5's proposal).  Raises [Invalid_argument] on a
    non-positive RTT. *)

val same_path_weighted_fair : ?eps:float -> Allocation.t -> Properties.same_path_violation list
(** Weighted Fairness Property 2: receivers with identical data-paths
    have equal normalized rates [a/w] unless the lower one sits at its
    session's [ρ].  This is {!Properties.same_path_receiver_fair} on
    normalized rates, so the violation's two rates are normalized. *)

val fully_utilized_weighted_fair :
  ?eps:float -> Allocation.t -> Properties.fully_utilized_violation list
(** Weighted Fairness Property 1: each receiver is at [ρ_i] or crosses
    a fully utilized link on which no other receiver has a strictly
    larger normalized rate.  This is
    {!Properties.fully_utilized_receiver_fair} on normalized rates. *)

val holds_all : ?eps:float -> Allocation.t -> bool
(** Both weighted properties hold. *)
