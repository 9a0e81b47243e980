(** Churn events: the four ways a running network changes.

    These are the dynamics the paper studies — receiver removal
    (Figure 3), random joins (Figure 5) — plus the two knobs operators
    turn between the paper's static snapshots: a session's maximum
    desired rate [ρ_i] and a link's capacity [c_j].  Receivers are
    identified by their {e node} rather than their in-session index:
    indices shift when an earlier receiver leaves, node placements
    don't (the paper's τ maps members to distinct nodes within a
    session, so a node names at most one receiver per session). *)

type t =
  | Join of { session : int; node : Mmfair_topology.Graph.node; weight : float option }
      (** Add a receiver on [node] to [session]; [weight] defaults to
          the session's existing weight (see
          {!Mmfair_core.Network.with_receiver}). *)
  | Leave of { session : int; node : Mmfair_topology.Graph.node }
      (** Remove the receiver of [session] placed on [node]. *)
  | Rho_change of { session : int; rho : float }
      (** Replace [ρ_i]; [infinity] lifts the bound. *)
  | Capacity_change of { link : Mmfair_topology.Graph.link_id; cap : float }
      (** Replace [c_j]. *)

val kind : t -> string
(** Event class for telemetry and bench bucketing: ["join"], ["leave"],
    ["rho"], or ["cap"] — matches the [.churn] trace keywords. *)

val pp : Format.formatter -> t -> unit
(** One-line rendering, [.churn]-style but with 1-based session labels. *)

val apply : Mmfair_core.Network.surgery -> t -> unit
(** [apply srg ev] records [ev] on an open surgery: the one mapping
    from events to network edits.  [surgery_begin], one [apply] and
    [surgery_commit] cost what the matching [Network.with_*] call
    does.  Raises [Invalid_argument] on a leave of an unknown session
    or of a node the session has no receiver on (judged against the
    surgery's state so far), or as the [Network.surgery_*] edit it
    maps to. *)
