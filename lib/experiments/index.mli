(** The machine-readable experiment index.

    One entry per reproduced table/figure and per extension study,
    with the CLI command that regenerates it and its quick-scale
    runner — the programmatic counterpart of DESIGN.md's per-experiment
    index.  [mmfair list] prints it and [mmfair all] runs it, so the
    experiment list is written only here. *)

type entry = {
  id : string;          (** e.g. ["fig8a"] or ["ext-tcp"]. *)
  paper_ref : string;   (** e.g. ["Figure 8(a)"] or ["Section 5"]. *)
  description : string;
  command : string;     (** The [mmfair] invocation. *)
  run : seed:int64 -> Table.t list;
      (** The entry's tables at quick scale: [mmfair all]'s share of
          the sweep (Figure 8 at {!Fig8_protocols.quick_scale}, not
          [command]'s paper scale). *)
}

val all : entry list
(** Every experiment, paper order first, extensions after. *)

val to_table : unit -> Table.t

val find : string -> entry option
(** Lookup by [id]. *)
