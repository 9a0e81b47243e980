(** Inter-receiver fairness study: what single rate should a
    constrained session pick?

    Applies {!Mmfair_core.Single_rate_choice} to a network (default:
    the paper's Figure-2 network, whose single-rate session is the
    canonical example) and tabulates the trade-off between the
    session's receiver satisfaction and the rest of the network —
    reproducing the question of the paper's related-work reference [6]
    on top of this repository's allocator. *)

type outcome = {
  table : Table.t;
  optimal : Mmfair_core.Single_rate_choice.point;
}

val run_figure2 : ?grid:int -> unit -> outcome
(** Sweep S1 of the Figure-2 network (default 12-point grid). *)

