(* Typed-error hardening tests.

   Degenerate inputs must surface as [Invalid_argument] at
   construction time, or as [Solver_error.t] from the [_result] solver
   entry points (equivalently [Solver_error.Error] from the classic
   ones) — never as an uncaught exception from inside the
   water-filling loop. *)

module Graph = Mmfair_topology.Graph
module Network = Mmfair_core.Network
module Allocator = Mmfair_core.Allocator
module Allocator_reference = Mmfair_core.Allocator_reference
module Tzeng_siu = Mmfair_core.Tzeng_siu
module Unicast = Mmfair_core.Unicast
module Solver_error = Mmfair_core.Solver_error
module Redundancy_fn = Mmfair_core.Redundancy_fn

(* Sender 0 feeding receivers 1 and 2 over dedicated links. *)
let star ?(session_type = Network.Multi_rate) ?(rho = infinity) ?(vfn = Redundancy_fn.Efficient) () =
  let g = Graph.create ~nodes:3 in
  ignore (Graph.add_link g 0 1 4.0);
  ignore (Graph.add_link g 0 2 2.0);
  Network.make g [| Network.session ~session_type ~rho ~vfn ~sender:0 ~receivers:[| 1; 2 |] () |]

let test_zero_capacity_link () =
  let g = Graph.create ~nodes:2 in
  Alcotest.check_raises "zero capacity" (Invalid_argument "Graph.add_link: capacity must be positive")
    (fun () -> ignore (Graph.add_link g 0 1 0.0));
  Alcotest.check_raises "NaN capacity" (Invalid_argument "Graph.add_link: capacity must be positive")
    (fun () -> ignore (Graph.add_link g 0 1 Float.nan))

let test_infinite_capacity_link () =
  let g = Graph.create ~nodes:2 in
  ignore (Graph.add_link g 0 1 infinity);
  Alcotest.check_raises "infinite capacity"
    (Invalid_argument "Network.make: link 0 has non-finite capacity inf") (fun () ->
      ignore (Network.make g [| Network.session ~sender:0 ~receivers:[| 1 |] () |]))

let test_rho_zero () =
  Alcotest.check_raises "rho = 0" (Invalid_argument "Network.make: session 0 has rho <= 0")
    (fun () -> ignore (star ~rho:0.0 ()));
  Alcotest.check_raises "rho = NaN" (Invalid_argument "Network.make: session 0 has rho <= 0")
    (fun () -> ignore (star ~rho:Float.nan ()))

let test_receiver_colocated_with_sender () =
  let g = Graph.create ~nodes:2 in
  ignore (Graph.add_link g 0 1 1.0);
  Alcotest.check_raises "co-located"
    (Invalid_argument "Network.make: session 0 maps two members to node 0") (fun () ->
      ignore (Network.make g [| Network.session ~sender:0 ~receivers:[| 1; 0 |] () |]))

let test_empty_receiver_set () =
  let g = Graph.create ~nodes:2 in
  ignore (Graph.add_link g 0 1 1.0);
  Alcotest.check_raises "no receivers"
    (Invalid_argument "Network.make: session 0 has no receivers") (fun () ->
      ignore (Network.make g [| Network.session ~sender:0 ~receivers:[||] () |]))

(* A link-rate function that turns to NaN once the common rate passes
   1.0: every slack comparison involving it is vacuously false, so
   the round can neither freeze anything nor pick a candidate link.
   The solve must stop with a typed error, not an exception or a
   garbage allocation. *)
let nan_above_one = Redundancy_fn.Custom ("nan-above-1", fun rates ->
    let m = List.fold_left Float.max 0.0 rates in
    if m > 1.0 then Float.nan else m)

let is_solver_error = function
  | Solver_error.Stuck_link _ | Solver_error.No_progress _ | Solver_error.Non_monotone_vfn _ -> true
  | Solver_error.Invalid_input _ | Solver_error.Scheduler_failure _ -> false

let test_nan_vfn_typed_error_optimized () =
  match Allocator.max_min_result (star ~vfn:nan_above_one ()) with
  | Ok _ -> Alcotest.fail "expected a solver error"
  | Error e ->
      Alcotest.(check bool) (Solver_error.to_string e) true (is_solver_error e);
      Alcotest.(check string) "blamed solver" "Allocator" (Solver_error.solver e)

let test_nan_vfn_typed_error_reference () =
  match Allocator_reference.max_min_result (star ~vfn:nan_above_one ()) with
  | Ok _ -> Alcotest.fail "expected a solver error"
  | Error e ->
      Alcotest.(check bool) (Solver_error.to_string e) true (is_solver_error e);
      Alcotest.(check string) "blamed solver" "Allocator_reference" (Solver_error.solver e)

let test_nan_vfn_classic_raises_typed () =
  (* The classic entry point must raise Solver_error.Error, nothing else. *)
  match Allocator.max_min (star ~vfn:nan_above_one ()) with
  | _ -> Alcotest.fail "expected Solver_error.Error"
  | exception Solver_error.Error _ -> ()

let test_unknown_session_is_invalid_input () =
  (* Caller misuse is a contract violation, reported as Invalid_input
     through the result API (the raising API keeps Invalid_argument). *)
  let net = star () in
  let frozen =
    Mmfair_core.Pvec.init (Network.session_count net) (fun i ->
        Array.make (Array.length (Network.session_spec net i).Network.receivers) 0.0)
  in
  match Allocator.max_min_partial_result ~sessions:[| Network.session_count net |] ~frozen net with
  | Ok _ -> Alcotest.fail "expected Invalid_input"
  | Error (Solver_error.Invalid_input { solver = "Allocator"; _ }) -> ()
  | Error e -> Alcotest.fail ("wrong error: " ^ Solver_error.to_string e)

let test_result_ok_agrees_with_classic () =
  let net = star () in
  (match Allocator.max_min_result net with
  | Error e -> Alcotest.fail (Solver_error.to_string e)
  | Ok alloc ->
      let classic = Allocator.max_min net in
      Array.iter
        (fun r ->
          let a = Mmfair_core.Allocation.rate alloc r
          and b = Mmfair_core.Allocation.rate classic r in
          Alcotest.(check (float 1e-12)) "rate agrees" b a)
        (Network.all_receivers net));
  (match Tzeng_siu.max_min_session_rates_result (star ~session_type:Network.Single_rate ()) with
  | Error e -> Alcotest.fail (Solver_error.to_string e)
  | Ok rates -> Alcotest.(check int) "one session" 1 (Array.length rates));
  let g = Graph.create ~nodes:2 in
  ignore (Graph.add_link g 0 1 3.0);
  let uni = Network.make g [| Network.session ~sender:0 ~receivers:[| 1 |] () |] in
  match Unicast.max_min_flow_rates_result uni with
  | Error e -> Alcotest.fail (Solver_error.to_string e)
  | Ok rates -> Alcotest.(check (float 1e-12)) "unicast rate" 3.0 rates.(0)

let test_unicast_contract_violation () =
  (* A multicast session violates Unicast's contract: Invalid_input
     through the result API instead of an escaping exception. *)
  match Unicast.max_min_flow_rates_result (star ()) with
  | Ok _ -> Alcotest.fail "expected Invalid_input"
  | Error (Solver_error.Invalid_input { solver = "Unicast"; _ }) -> ()
  | Error e -> Alcotest.fail ("wrong error: " ^ Solver_error.to_string e)

(* Scheduler_failure: rendering, attribution, and the of_exn contract
   (an unrecognized exception is a bug, not a typed error — only the
   domain pool wraps them, with the task index attached). *)
let test_scheduler_failure_shape () =
  let e =
    Solver_error.Scheduler_failure { solver = "Domain_pool"; task = 3; what = "Stack_overflow" }
  in
  Alcotest.(check string) "rendering names the task"
    "Domain_pool: scheduler failed solve task 3: Stack_overflow" (Solver_error.to_string e);
  Alcotest.(check string) "solver attribution" "Domain_pool" (Solver_error.solver e);
  Alcotest.(check bool) "not a water-filling failure" false (is_solver_error e);
  (match Solver_error.of_exn ~solver:"Allocator" (Solver_error.Error e) with
  | Some e' -> Alcotest.(check bool) "of_exn keeps the typed error" true (e' = e)
  | None -> Alcotest.fail "Error must map back to its payload");
  Alcotest.(check bool) "foreign exceptions stay raises" true
    (Solver_error.of_exn ~solver:"Allocator" Stack_overflow = None)

let suite =
  [
    Alcotest.test_case "zero/NaN capacity rejected" `Quick test_zero_capacity_link;
    Alcotest.test_case "infinite capacity rejected" `Quick test_infinite_capacity_link;
    Alcotest.test_case "rho <= 0 rejected" `Quick test_rho_zero;
    Alcotest.test_case "co-located receiver rejected" `Quick test_receiver_colocated_with_sender;
    Alcotest.test_case "empty receiver set rejected" `Quick test_empty_receiver_set;
    Alcotest.test_case "NaN vfn: optimized engine" `Quick test_nan_vfn_typed_error_optimized;
    Alcotest.test_case "NaN vfn: reference engine" `Quick test_nan_vfn_typed_error_reference;
    Alcotest.test_case "NaN vfn: classic raises typed" `Quick test_nan_vfn_classic_raises_typed;
    Alcotest.test_case "unknown session is Invalid_input" `Quick test_unknown_session_is_invalid_input;
    Alcotest.test_case "result Ok agrees with classic" `Quick test_result_ok_agrees_with_classic;
    Alcotest.test_case "unicast contract violation" `Quick test_unicast_contract_violation;
    Alcotest.test_case "scheduler failure shape" `Quick test_scheduler_failure_shape;
  ]
