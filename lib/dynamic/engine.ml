(* Kept for the end-to-end benchmark (perfbench/), which names this
   module and may not change with the library; everything else uses
   [Batch] directly. *)

type t = Batch.t

let network = Batch.network
