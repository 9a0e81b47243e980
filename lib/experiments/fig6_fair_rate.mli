(** Figure 6: the impact of redundancy on fair rates.

    Normalized max-min fair receiver rate on a shared bottleneck as a
    function of the multi-rate sessions' redundancy [v], one curve per
    ratio [m/n] of redundant sessions — both from the closed form
    [n/((n−m)+m·v)] and from running the Appendix-A allocator on an
    explicit star network with [Scaled v] sessions (they must agree,
    which the integration test asserts). *)

type point = { redundancy : float; closed_form : float; allocator : float }
type curve = { ratio : float; points : point list }

val run : ?sessions:int -> unit -> curve list
(** The paper's curves, m/n ∈ {0.01, 0.05, 0.1, 1}, over redundancy
    v ∈ {1, 2, …, 10}.  Default [sessions = 100] so that [m/n = 0.01]
    is one session. *)

val to_table : curve list -> Table.t
