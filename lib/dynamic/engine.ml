module Solver_error = Mmfair_core.Solver_error

(* The per-event engine is the singleton case of Batch.apply: one
   implementation carries both paths, so the per-event differential
   gate exercises the batch machinery on every event.  This module
   only adapts the interface (per-event stats with the event's kind);
   an engine is made by [Batch.create]. *)

type stats = {
  kind : string;
  component_sessions : int;
  component_receivers : int;
  total_receivers : int;
  reuse_fraction : float;
  full_solve : bool;
  solves : int;
}

type t = Batch.t

let solver_name = "Dynamic"

let network = Batch.network
let allocation = Batch.allocation
let epoch = Batch.epoch
let store = Batch.store

let apply t event =
  let s = Batch.apply t [ event ] in
  {
    kind = Event.kind event;
    component_sessions = s.Batch.component_sessions;
    component_receivers = s.Batch.component_receivers;
    total_receivers = s.Batch.total_receivers;
    reuse_fraction = s.Batch.reuse_fraction;
    full_solve = s.Batch.full_solve;
    solves = s.Batch.solves;
  }

let apply_result t event = Solver_error.protect ~solver:solver_name (fun () -> apply t event)
