(* Tests for the Tzeng–Siu session-rate definition ([18]) and the
   network description round-trip. *)

module Network = Mmfair_core.Network
module Allocator = Mmfair_core.Allocator
module Allocation = Mmfair_core.Allocation
module Tzeng_siu = Mmfair_core.Tzeng_siu
module Ordering = Mmfair_core.Ordering
module Properties = Mmfair_core.Properties
module Net_parser = Mmfair_workload.Net_parser
module Random_nets = Mmfair_workload.Random_nets

let feq ?(eps = 1e-9) what a b =
  Alcotest.(check bool) (Printf.sprintf "%s: %g vs %g" what a b) true (Float.abs (a -. b) <= eps)

let single_rate_net seed =
  let rng = Mmfair_prng.Xoshiro.create ~seed:(Int64.of_int seed) () in
  Random_nets.generate ~rng { Random_nets.default with Random_nets.single_rate_prob = 1.0 }

let test_tzeng_siu_figure2 () =
  let { Mmfair_workload.Paper_nets.net; _ } = Mmfair_workload.Paper_nets.figure2 () in
  (* both sessions single-rate?  S2 is multi-rate by default; flip it
     (a unicast session's type does not change its allocation). *)
  let net = Network.with_session_types net [| Network.Single_rate; Network.Single_rate |] in
  let rates = Tzeng_siu.max_min_session_rates net in
  feq "S1 rate" 2.0 rates.(0);
  feq "S2 rate" 3.0 rates.(1)

let test_tzeng_siu_allocation_feasible () =
  let net = single_rate_net 5 in
  let rates = Tzeng_siu.max_min_session_rates net in
  let alloc = Tzeng_siu.to_allocation net rates in
  Alcotest.(check bool) "feasible" true (Allocation.is_feasible ~eps:1e-6 alloc)

let test_tzeng_siu_rejects_multi_rate () =
  let { Mmfair_workload.Paper_nets.net; _ } =
    Mmfair_workload.Paper_nets.figure2 ~session1_type:Network.Multi_rate ()
  in
  Alcotest.check_raises "multi-rate rejected"
    (Invalid_argument "Tzeng_siu: all sessions must be single-rate") (fun () ->
      ignore (Tzeng_siu.max_min_session_rates net))

let qcheck_equivalence =
  QCheck.Test.make
    ~name:"Tzeng-Siu session-rate MMF = receiver-rate MMF on single-rate networks" ~count:150
    QCheck.(int_range 0 100_000)
    (fun seed ->
      let net = single_rate_net seed in
      Tzeng_siu.agrees_with_receiver_definition net)

let test_render_roundtrip_paper_nets () =
  List.iter
    (fun net ->
      let doc = Net_parser.render net in
      let parsed = Net_parser.parse_string doc in
      let a = Allocation.ordered_vector (Allocator.max_min net) in
      let b = Allocation.ordered_vector (Allocator.max_min parsed.Net_parser.net) in
      Alcotest.(check int) "same receiver count" (Array.length a) (Array.length b);
      Array.iteri (fun i x -> feq ~eps:1e-9 (Printf.sprintf "rate %d" i) x b.(i)) a)
    [
      (Mmfair_workload.Paper_nets.figure1 ()).Mmfair_workload.Paper_nets.net;
      (Mmfair_workload.Paper_nets.figure2 ()).Mmfair_workload.Paper_nets.net;
      (fst (Mmfair_workload.Paper_nets.figure3a ())).Mmfair_workload.Paper_nets.net;
      (fst (Mmfair_workload.Paper_nets.figure3b ())).Mmfair_workload.Paper_nets.net;
    ]

let qcheck_render_roundtrip =
  QCheck.Test.make ~name:"render/parse round-trip preserves the MMF allocation" ~count:100
    QCheck.(int_range 0 100_000)
    (fun seed ->
      let rng = Mmfair_prng.Xoshiro.create ~seed:(Int64.of_int seed) () in
      let net = Random_nets.generate ~rng Random_nets.default in
      let parsed = Net_parser.parse_string (Net_parser.render net) in
      let a = Allocation.ordered_vector (Allocator.max_min net) in
      let b = Allocation.ordered_vector (Allocator.max_min parsed.Net_parser.net) in
      Array.length a = Array.length b
      && Array.for_all2 (fun x y -> Float.abs (x -. y) <= 1e-7 *. Stdlib.max 1.0 x) a b)

let test_render_rejects_custom () =
  let { Mmfair_workload.Paper_nets.net; _ } = Mmfair_workload.Paper_nets.figure4 () in
  Alcotest.check_raises "custom vfn"
    (Invalid_argument "Net_parser.render: link-rate function not expressible") (fun () ->
      ignore (Net_parser.render net))

let suite =
  [
    Alcotest.test_case "Tzeng-Siu on figure 2" `Quick test_tzeng_siu_figure2;
    Alcotest.test_case "Tzeng-Siu allocation feasible" `Quick test_tzeng_siu_allocation_feasible;
    Alcotest.test_case "Tzeng-Siu rejects multi-rate" `Quick test_tzeng_siu_rejects_multi_rate;
    QCheck_alcotest.to_alcotest qcheck_equivalence;
    Alcotest.test_case "render round-trip (paper nets)" `Quick test_render_roundtrip_paper_nets;
    QCheck_alcotest.to_alcotest qcheck_render_roundtrip;
    Alcotest.test_case "render rejects custom vfn" `Quick test_render_rejects_custom;
  ]

(* --- unicast (Bertsekas-Gallagher) reference --- *)

module Unicast = Mmfair_core.Unicast
module Graph = Mmfair_topology.Graph

let unicast_net seed =
  let rng = Mmfair_prng.Xoshiro.create ~seed:(Int64.of_int seed) () in
  Random_nets.generate ~rng
    { Random_nets.default with Random_nets.max_receivers = 1; single_rate_prob = 0.0; sessions = 5; nodes = 10 }

let test_unicast_textbook_example () =
  (* chain 0-1-2 caps (2, 4); flows A: 0->2, B: 0->1, C: 1->2.
     l0 (cap 2): A, B -> share 1 each; l1 (cap 4): A (1) + C -> C = 3. *)
  let g = Graph.create ~nodes:3 in
  ignore (Graph.add_link g 0 1 2.0);
  ignore (Graph.add_link g 1 2 4.0);
  let s a b = Network.session ~sender:a ~receivers:[| b |] () in
  let net = Network.make g [| s 0 2; s 0 1; s 1 2 |] in
  let rates = Unicast.max_min_flow_rates net in
  Alcotest.(check (array (float 1e-9))) "textbook rates" [| 1.0; 1.0; 3.0 |] rates

let test_unicast_rho () =
  let g = Graph.create ~nodes:3 in
  ignore (Graph.add_link g 0 1 9.0);
  ignore (Graph.add_link g 1 2 9.0);
  let net =
    Network.make g
      [|
        Network.session ~rho:1.0 ~sender:0 ~receivers:[| 2 |] ();
        Network.session ~sender:0 ~receivers:[| 2 |] ();
      |]
  in
  Alcotest.(check (array (float 1e-9))) "rho honored" [| 1.0; 8.0 |]
    (Unicast.max_min_flow_rates net)

(* One rate per unicast session, as an allocation of its one receiver. *)
let flow_allocation net rates = Allocation.make net (Array.map (fun r -> [| r |]) rates)

let test_unicast_properties_on_mmf () =
  let net = unicast_net 3 in
  let alloc = flow_allocation net (Unicast.max_min_flow_rates net) in
  Alcotest.(check int) "Unicast Property 1 holds" 0
    (List.length (Properties.fully_utilized_receiver_fair ~eps:1e-6 alloc));
  Alcotest.(check int) "Unicast Property 2 holds" 0
    (List.length (Properties.same_path_receiver_fair ~eps:1e-6 alloc))

let test_unicast_property_violations_detected () =
  let g = Graph.create ~nodes:3 in
  ignore (Graph.add_link g 0 1 4.0);
  ignore (Graph.add_link g 1 2 10.0);
  let s () = Network.session ~sender:0 ~receivers:[| 2 |] () in
  let net = Network.make g [| s (); s () |] in
  (* uneven split: same path, unequal, link full *)
  Alcotest.(check int) "P2 violated" 1
    (List.length (Properties.same_path_receiver_fair (flow_allocation net [| 1.0; 3.0 |])));
  (* wasteful: nothing full *)
  Alcotest.(check int) "P1 violated for both" 2
    (List.length (Properties.fully_utilized_receiver_fair (flow_allocation net [| 1.0; 1.0 |])))

let test_unicast_rejects_multicast () =
  let g = Graph.create ~nodes:3 in
  ignore (Graph.add_link g 0 1 1.0);
  ignore (Graph.add_link g 0 2 1.0);
  let net = Network.make g [| Network.session ~sender:0 ~receivers:[| 1; 2 |] () |] in
  Alcotest.check_raises "multicast rejected" (Invalid_argument "Unicast: all sessions must be unicast")
    (fun () -> ignore (Unicast.max_min_flow_rates net))

let qcheck_unicast_equivalence =
  QCheck.Test.make ~name:"Bertsekas-Gallagher = general allocator on unicast networks" ~count:150
    QCheck.(int_range 0 100_000)
    (fun seed ->
      let net = unicast_net seed in
      Unicast.agrees_with_general_allocator net)

let suite =
  suite
  @ [
      Alcotest.test_case "unicast textbook example" `Quick test_unicast_textbook_example;
      Alcotest.test_case "unicast rho" `Quick test_unicast_rho;
      Alcotest.test_case "unicast properties on MMF" `Quick test_unicast_properties_on_mmf;
      Alcotest.test_case "unicast violations detected" `Quick test_unicast_property_violations_detected;
      Alcotest.test_case "unicast rejects multicast" `Quick test_unicast_rejects_multicast;
      QCheck_alcotest.to_alcotest qcheck_unicast_equivalence;
    ]
