(* Solve_engine seam tests: every solver reachable through the one
   signature, engines agreeing where their fairness definitions
   coincide, capabilities staying honest about what each solver
   rejects, and partial solves gated on the [partial] capability.

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

(* Three single-rate unicast sessions over a shared uplink: inside
   every engine's capabilities (single receivers, Single_rate,
   Efficient vfns, unit weights), so all four definitions coincide. *)
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

let test_registry () =
  let engines = Solve_engine.all () in
  Alcotest.(check int) "four engines" 4 (List.length engines);
  List.iter
    (fun (name, e) ->
      Alcotest.(check string) "registered under its own name" name (Solve_engine.name e))
    engines;
  let names = List.map fst engines in
  Alcotest.(check bool) "names are distinct" true
    (List.length (List.sort_uniq compare names) = List.length names);
  Alcotest.(check string) "default is the optimized allocator"
    (Solve_engine.name (Solve_engine.allocator))
    (Solve_engine.name Solve_engine.default)

let test_all_engines_agree () =
  let net = common_net () in
  let reference = Allocator.max_min net in
  List.iter
    (fun (name, e) ->
      Alcotest.(check bool) (name ^ " admits the common net") true (Solve_engine.admits e net);
      let module E = (val e : Solve_engine.S) in
      let alloc = E.solve net in
      Array.iter
        (fun (r : Network.receiver_id) ->
          feq
            (Printf.sprintf "%s receiver (%d,%d)" name r.Network.session r.Network.index)
            (Allocation.rate reference r) (Allocation.rate alloc r))
        (Network.all_receivers net);
      match E.solve_result net with
      | Ok alloc' ->
          Array.iter
            (fun (r : Network.receiver_id) ->
              feq (name ^ " solve_result matches solve") (Allocation.rate alloc r)
                (Allocation.rate alloc' r))
            (Network.all_receivers net)
      | Error err ->
          Alcotest.fail (name ^ " solve_result errored: " ^ Mmfair_core.Solver_error.to_string err))
    (Solve_engine.all ())

let test_capabilities_honest () =
  (* Figure 2 (default): a three-receiver Single_rate session plus a
     Multi_rate unicast session. *)
  let { Paper_nets.net = fig2; _ } = Paper_nets.figure2 () in
  let expect_rejects name e net =
    Alcotest.(check bool) (name ^ " does not admit") false (Solve_engine.admits e net);
    let module E = (val e : Solve_engine.S) in
    match E.solve net with
    | exception Invalid_argument _ -> ()
    | _ -> Alcotest.fail (name ^ " solved a network outside its capabilities")
  in
  Alcotest.(check bool) "allocator admits figure 2" true
    (Solve_engine.admits (Solve_engine.allocator) fig2);
  Alcotest.(check bool) "reference admits figure 2" true
    (Solve_engine.admits (Solve_engine.allocator_reference) fig2);
  (* Tzeng-Siu wants every session Single_rate (figure 2's S2 is
     Multi_rate); Unicast rejects the three-receiver S1. *)
  expect_rejects "tzeng_siu" Solve_engine.tzeng_siu fig2;
  expect_rejects "unicast" Solve_engine.unicast fig2;
  (* Weights: Tzeng-Siu's session-rate definition ignores them rather
     than raising, so admits must flag the net even though solve
     succeeds — its answer is for the unweighted problem. *)
  let g = Graph.create ~nodes:3 in
  let _ = Graph.add_link g 0 1 4.0 in
  let _ = Graph.add_link g 0 2 4.0 in
  let weighted =
    Network.make g
      [|
        Network.session ~session_type:Network.Single_rate ~weights:[| 2.0 |] ~sender:0
          ~receivers:[| 1 |] ();
        Network.session ~session_type:Network.Single_rate ~sender:0 ~receivers:[| 2 |] ();
      |]
  in
  Alcotest.(check bool) "tzeng_siu does not admit weights" false
    (Solve_engine.admits Solve_engine.tzeng_siu weighted);
  Alcotest.(check bool) "unicast does not admit weights" false
    (Solve_engine.admits Solve_engine.unicast weighted);
  Alcotest.(check bool) "allocator admits weights" true
    (Solve_engine.admits (Solve_engine.allocator) weighted)

let test_partial_capability () =
  let net = common_net () in
  List.iter
    (fun (name, e) ->
      let caps = Solve_engine.capabilities e in
      let module E = (val e : Solve_engine.S) in
      let full = E.solve net in
      let frozen = frozen_of net full in
      if caps.Solve_engine.partial then (
        (* Re-solving one session with every other pinned at the
           optimum must reproduce the optimum. *)
        let partial = E.solve_partial ~sessions:[| 0 |] ~frozen net in
        Array.iter
          (fun (r : Network.receiver_id) ->
            feq (name ^ " warm start reproduces the optimum") (Allocation.rate full r)
              (Allocation.rate partial r))
          (Network.all_receivers net))
      else
        match E.solve_partial ~sessions:[| 0 |] ~frozen net with
        | exception Invalid_argument _ -> ()
        | _ -> Alcotest.fail (name ^ " claims no partial solves yet performed one"))
    (Solve_engine.all ())

let suite =
  [
    Alcotest.test_case "engine registry" `Quick test_registry;
    Alcotest.test_case "all engines agree on a common net" `Quick test_all_engines_agree;
    Alcotest.test_case "capabilities are honest" `Quick test_capabilities_honest;
    Alcotest.test_case "partial solves gated on the capability" `Quick test_partial_capability;
  ]
