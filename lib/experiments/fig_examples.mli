(** Reproductions of the paper's worked examples (Figures 1–4).

    Each [run_*] computes the max-min fair allocation of the
    corresponding {!Mmfair_workload.Paper_nets} network with the
    Appendix-A allocator, checks the four fairness properties, and
    reports everything next to the paper's stated values. *)

type outcome = {
  table : Table.t;
  allocation : Mmfair_core.Allocation.t;
  properties : Mmfair_core.Properties.report;
}

val run_figure1 : unit -> outcome

val run_figure2 : session1_type:Mmfair_core.Network.session_type -> unit -> outcome

type removal_outcome = {
  table : Table.t;
  before : Mmfair_core.Allocation.t;
  after : Mmfair_core.Allocation.t;
}

val run_figure3a : unit -> removal_outcome

val run_figure3b : unit -> removal_outcome

val run_figure4 : unit -> outcome
