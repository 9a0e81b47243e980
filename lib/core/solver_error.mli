(** Typed failures of the allocator stack.

    Every solver entry point ({!Allocator}, {!Allocator_reference},
    {!Tzeng_siu}, {!Unicast}) has a [_result] variant returning
    [(value, t) result] instead of raising, so one malformed network in
    an experiment sweep is reported and skipped rather than killing the
    whole run.  The classic entry points remain as thin wrappers that
    raise {!Error} (solver failures) or [Invalid_argument] (malformed
    inputs rejected before the solve starts).

    Each variant carries enough context to reproduce and report the
    failure: which solver, which round of water-filling, and the
    offending link/session plus the residual slack observed when the
    solve stopped. *)

type t =
  | Invalid_input of { solver : string; what : string }
      (** The input violates the solver's contract (malformed network,
          network outside the solver's capabilities, shape
          mismatch).  [what] is a
          human-readable diagnostic. *)
  | No_progress of { solver : string; round : int; residual_slack : float }
      (** The water-filling loop exhausted its round budget without
          freezing every receiver.  [residual_slack] is the tightest
          link slack seen in the last completed round. *)
  | Stuck_link of {
      solver : string;
      round : int;
      link : Mmfair_topology.Graph.link_id option;
      residual_slack : float;
    }
      (** A round froze nothing and no candidate link could be found to
          force progress — in practice a session link-rate function
          returned NaN, making every slack comparison vacuous.  [link]
          is the first link whose usage was non-finite, when one could
          be identified. *)
  | Non_monotone_vfn of { solver : string; session : int; round : int }
      (** Progress stalled and session [session] uses a [Custom]
          link-rate function — the prime suspect, since the allocator's
          termination argument requires monotone usage in the common
          rate. *)
  | Scheduler_failure of { solver : string; task : int; what : string }
      (** Solve task [task] run on a {!Domain_pool} raised an
          exception the solver contract does not cover — [what] is the
          worker exception, re-raised on the joining domain with the
          task's index as context.  The batch engine also reports an
          internal regrouping fault this way.  Solver-contract
          exceptions ({!Error}, [Invalid_argument]) raised inside a
          pooled task are {e not} wrapped: they re-raise as
          themselves. *)

exception Error of t
(** Raised by the classic (non-[_result]) solver entry points on solver
    failure. *)

val solver : t -> string
(** The solver that produced the error ("Allocator",
    "Allocator_reference", "Tzeng_siu", "Unicast"). *)

val to_string : t -> string
(** One-line human-readable rendering, e.g.
    ["Allocator: stuck at round 3: no candidate link (residual slack nan); a session link-rate function likely returned NaN"]. *)

val raise_error : t -> 'a
(** [raise_error e] raises [Error e]. *)

val of_exn : solver:string -> exn -> t option
(** Map the exceptions a solver's raising path produces back to a typed
    error: [Error e] gives [Some e]; [Invalid_argument msg] and
    [Failure msg] give [Some (Invalid_input _)]; anything else is
    [None] (genuine bugs keep propagating). *)

val protect : solver:string -> (unit -> 'a) -> ('a, t) result
(** [protect ~solver f] runs [f ()] and converts the raising contract
    to the [result] contract via {!of_exn}; unrecognized exceptions
    propagate. *)

val stalled :
  solver:string -> vfns:Redundancy_fn.t array -> round:int -> residual_slack:float -> t
(** The error for an exhausted water-filling round budget: blames the
    first non-linear ([Custom]) link-rate function as
    {!Non_monotone_vfn} when one exists (a monotone usage model cannot
    stall), and reports {!No_progress} otherwise. *)
