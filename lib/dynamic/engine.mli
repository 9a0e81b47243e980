(** A churn engine {e is} a batch engine: apply events with
    [Batch.apply eng [ ev ]] and read {!Batch.stats}.  This module only
    keeps the two names the end-to-end benchmark ([perfbench/]) uses;
    new code should name {!Batch} directly. *)

type t = Batch.t

val network : t -> Mmfair_core.Network.t
(** {!Batch.network}. *)
