(** Figure 5: redundancy of a single layer under random uncoordinated
    joins, as the number of receivers sharing the link grows.

    Recomputes the paper's five curves ("All 0.1", "All 0.5",
    "1st .5 rest .1", "All 0.9", "1st .9 rest .1") from the Appendix-B
    closed form, optionally cross-checked against Monte-Carlo packet
    subsets. *)

type point = { receivers : int; expected : float; simulated : float option }

type curve = { label : string; points : point list }

val run : ?simulate:bool -> ?seed:int64 -> unit -> curve list
(** [simulate] (default false) adds Monte-Carlo estimates
    (1000-packet quanta × 200 quanta per point). *)

val to_table : curve list -> Table.t

val asymptote : label:string -> float
(** The paper's bound for a curve: redundancy approaches [λ/max a]
    ([10] for the 0.1 curves, [2] for "1st .5 rest .1" etc.). *)
