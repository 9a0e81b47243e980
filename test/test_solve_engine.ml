(* Solve_engine seam tests: the production allocator and its frozen
   reference reachable through the one signature, the Tzeng-Siu and
   unicast oracles agreeing with them where their fairness definitions
   coincide and rejecting networks outside them, and partial solves
   gated on the [partial] capability.

   The deep definitional comparisons (Tzeng-Siu vs receiver-granular
   on the paper nets, reference-vs-optimized fuzz) live in their own
   suites; these exercise the seam itself. *)

module Graph = Mmfair_topology.Graph
module Network = Mmfair_core.Network
module Allocation = Mmfair_core.Allocation
module Allocator = Mmfair_core.Allocator
module Solve_engine = Mmfair_core.Solve_engine
module Paper_nets = Mmfair_workload.Paper_nets

let agree a b = Float.abs (a -. b) <= 1e-9 *. Stdlib.max 1.0 (Stdlib.max (Float.abs a) (Float.abs b))

let feq what a b =
  Alcotest.(check bool) (Printf.sprintf "%s: %.17g vs %.17g" what a b) true (agree a b)

(* Three single-rate unicast sessions over a shared uplink: single
   receivers, Single_rate, Efficient vfns and unit weights, so the
   receiver-rate, session-rate and unicast definitions coincide. *)
let common_net () =
  let g = Graph.create ~nodes:4 in
  let _l0 = Graph.add_link g 0 1 6.0 in
  let _l1 = Graph.add_link g 1 2 2.0 in
  let _l2 = Graph.add_link g 1 3 3.0 in
  let s node = Network.session ~session_type:Network.Single_rate ~sender:0 ~receivers:[| node |] () in
  Network.make g [| s 2; s 3; s 2 |]

let frozen_of net alloc =
  Mmfair_core.Pvec.init (Network.session_count net) (fun i ->
      let spec = Network.session_spec net i in
      Array.init (Array.length spec.Network.receivers) (fun index ->
          Allocation.rate alloc { Network.session = i; index }))

let engines = [ Solve_engine.allocator; Solve_engine.allocator_reference ]

let test_registry () =
  Alcotest.(check string) "default is the optimized allocator" "Allocator"
    (Solve_engine.name Solve_engine.default);
  Alcotest.(check bool) "names are distinct" true
    (Solve_engine.name Solve_engine.allocator
    <> Solve_engine.name Solve_engine.allocator_reference)

let test_all_engines_agree () =
  let net = common_net () in
  let reference = Allocator.max_min net in
  let check_rates name alloc =
    Array.iter
      (fun (r : Network.receiver_id) ->
        feq
          (Printf.sprintf "%s receiver (%d,%d)" name r.Network.session r.Network.index)
          (Allocation.rate reference r) (Allocation.rate alloc r))
      (Network.all_receivers net)
  in
  List.iter
    (fun e ->
      let module E = (val e : Solve_engine.S) in
      let alloc = E.solve net in
      check_rates E.name alloc;
      match E.solve_result net with
      | Ok alloc' ->
          Array.iter
            (fun (r : Network.receiver_id) ->
              feq (E.name ^ " solve_result matches solve") (Allocation.rate alloc r)
                (Allocation.rate alloc' r))
            (Network.all_receivers net)
      | Error err ->
          Alcotest.fail (E.name ^ " solve_result errored: " ^ Mmfair_core.Solver_error.to_string err))
    engines;
  let module Tzeng_siu = Mmfair_core.Tzeng_siu in
  check_rates "Tzeng_siu" (Tzeng_siu.to_allocation net (Tzeng_siu.max_min_session_rates net));
  check_rates "Unicast"
    (Allocation.make net
       (Array.map (fun r -> [| r |]) (Mmfair_core.Unicast.max_min_flow_rates net)))

let test_capabilities_honest () =
  (* Figure 2 (default): a three-receiver Single_rate session plus a
     Multi_rate unicast session.  Tzeng-Siu wants every session
     Single_rate (S2 is Multi_rate); Unicast rejects the three-receiver
     S1. *)
  let { Paper_nets.net = fig2; _ } = Paper_nets.figure2 () in
  let expect_rejects name solve =
    match solve fig2 with
    | exception Invalid_argument _ -> ()
    | _ -> Alcotest.fail (name ^ " solved a network outside its definition")
  in
  expect_rejects "tzeng_siu" Mmfair_core.Tzeng_siu.max_min_session_rates;
  expect_rejects "unicast" Mmfair_core.Unicast.max_min_flow_rates

let test_partial_capability () =
  let net = common_net () in
  List.iter
    (fun e ->
      let module E = (val e : Solve_engine.S) in
      let full = E.solve net in
      let frozen = frozen_of net full in
      if E.capabilities.Solve_engine.partial then (
        (* Re-solving one session with every other pinned at the
           optimum must reproduce the optimum. *)
        let partial = E.solve_partial ~sessions:[| 0 |] ~frozen net in
        Array.iter
          (fun (r : Network.receiver_id) ->
            feq (E.name ^ " warm start reproduces the optimum") (Allocation.rate full r)
              (Allocation.rate partial r))
          (Network.all_receivers net))
      else
        match E.solve_partial ~sessions:[| 0 |] ~frozen net with
        | exception Invalid_argument _ -> ()
        | _ -> Alcotest.fail (E.name ^ " claims no partial solves yet performed one"))
    engines;
  Alcotest.(check bool) "the allocator warm-starts" true
    (Solve_engine.capabilities Solve_engine.allocator).Solve_engine.partial;
  Alcotest.(check bool) "the reference does not" false
    (Solve_engine.capabilities Solve_engine.allocator_reference).Solve_engine.partial

let suite =
  [
    Alcotest.test_case "engine registry" `Quick test_registry;
    Alcotest.test_case "all engines agree on a common net" `Quick test_all_engines_agree;
    Alcotest.test_case "capabilities are honest" `Quick test_capabilities_honest;
    Alcotest.test_case "partial solves gated on the capability" `Quick test_partial_capability;
  ]
