(** The pre-optimization water-filling allocator, frozen as an oracle.

    This is the seed repository's [Allocator] hot path verbatim: every
    round it rescans all links × sessions through the list-based
    [Network.receivers_on_link]/[all_on_link] views and allocates
    intermediate lists per evaluation.  {!Allocator} replaced that with
    the flat incidence index and incremental per-link bookkeeping; this
    module stays behind so that

    - the "optimized allocator equals reference" property test can
      assert rate-level agreement on random networks, and
    - [bench/scaling.exe] can report measured before/after numbers in
      [BENCH_allocator.json].

    Keep it slow and obvious; do not optimize it. *)

val max_min : Network.t -> Allocation.t
(** Same contract as {!Allocator.max_min}, computed by the original
    per-round full rescan: the linear step when every session's
    link-rate function is linear and every weight is 1, bisection
    otherwise.  Raises {!Solver_error.Error} on solver
    stalls, like the optimized engine. *)

val max_min_result : Network.t -> (Allocation.t, Solver_error.t) result
(** Typed-error variant of {!max_min} — same contract as
    {!Allocator.max_min_result}.  The differential fuzz harness runs
    both [_result] entry points side by side and requires agreement on
    every [Ok] case. *)
