(* Tests for the Section-5 extension features: weighted (TCP)
   fairness, utility/Pareto views, multi-sender sessions, weighted
   routing, leave latency, priority dropping, multi-layer random
   joins, and session churn. *)

module Graph = Mmfair_topology.Graph
module Routing = Mmfair_topology.Routing
module Network = Mmfair_core.Network
module Allocator = Mmfair_core.Allocator
module Allocation = Mmfair_core.Allocation
module Weighted = Mmfair_core.Weighted
module Utility = Mmfair_core.Utility
module Multi_sender = Mmfair_core.Multi_sender
module Runner = Mmfair_protocols.Runner
module Protocol = Mmfair_protocols.Protocol
module Scheme = Mmfair_layering.Scheme
module Random_joins = Mmfair_layering.Random_joins
module E = Mmfair_experiments

let feq ?(eps = 1e-9) what a b =
  Alcotest.(check bool) (Printf.sprintf "%s: %g vs %g" what a b) true (Float.abs (a -. b) <= eps)

(* --- weighted max-min --- *)

let bottleneck_with_weights weights =
  let g = Graph.create ~nodes:2 in
  ignore (Graph.add_link g 0 1 12.0);
  let specs =
    Array.map
      (fun w ->
        let leaf = Graph.add_node g in
        ignore (Graph.add_link g 1 leaf 100.0);
        Network.session ~weights:[| w |] ~sender:0 ~receivers:[| leaf |] ())
      weights
  in
  Network.make g specs

let test_weighted_split () =
  (* weights 1:2:3 on a capacity-12 link -> rates 2, 4, 6 *)
  let net = bottleneck_with_weights [| 1.0; 2.0; 3.0 |] in
  let alloc = Allocator.max_min net in
  feq ~eps:1e-6 "flow 1" 2.0 (Allocation.rate alloc { Network.session = 0; index = 0 });
  feq ~eps:1e-6 "flow 2" 4.0 (Allocation.rate alloc { Network.session = 1; index = 0 });
  feq ~eps:1e-6 "flow 3" 6.0 (Allocation.rate alloc { Network.session = 2; index = 0 })

let test_weighted_equals_unweighted_with_unit () =
  let net = bottleneck_with_weights [| 1.0; 1.0; 1.0 |] in
  let alloc = Allocator.max_min net in
  Array.iter
    (fun (r : Network.receiver_id) -> feq "even split" 4.0 (Allocation.rate alloc r))
    (Network.all_receivers net)

let test_weighted_rho_caps_rate_not_normalized () =
  (* rho caps the absolute rate: weight 10 with rho 1 freezes at 1. *)
  let g = Graph.create ~nodes:3 in
  ignore (Graph.add_link g 0 1 10.0);
  ignore (Graph.add_link g 1 2 10.0);
  let s1 = Network.session ~weights:[| 10.0 |] ~rho:1.0 ~sender:0 ~receivers:[| 2 |] () in
  let s2 = Network.session ~sender:0 ~receivers:[| 2 |] () in
  let alloc = Allocator.max_min (Network.make g [| s1; s2 |]) in
  feq ~eps:1e-6 "rho-capped" 1.0 (Allocation.rate alloc { Network.session = 0; index = 0 });
  feq ~eps:1e-6 "rest to the other" 9.0 (Allocation.rate alloc { Network.session = 1; index = 0 })

let test_weighted_custom_split () =
  (* Non-unit weights and Custom functions each select bisection; both
     at once give the same 1:2:3 split as weights alone. *)
  let net = bottleneck_with_weights [| 1.0; 2.0; 3.0 |] in
  let net =
    Network.with_vfns net
      (Array.init (Network.session_count net) (fun i ->
           Mmfair_core.Redundancy_fn.as_custom (Network.vfn net i)))
  in
  let alloc = Allocator.max_min net in
  feq ~eps:1e-6 "flow 1" 2.0 (Allocation.rate alloc { Network.session = 0; index = 0 });
  feq ~eps:1e-6 "flow 2" 4.0 (Allocation.rate alloc { Network.session = 1; index = 0 });
  feq ~eps:1e-6 "flow 3" 6.0 (Allocation.rate alloc { Network.session = 2; index = 0 })

let test_weighted_validation () =
  let g = Graph.create ~nodes:3 in
  ignore (Graph.add_link g 0 1 1.0);
  ignore (Graph.add_link g 0 2 1.0);
  Alcotest.check_raises "non-positive weight"
    (Invalid_argument "Network.make: session 0 has a non-positive weight") (fun () ->
      ignore (Network.make g [| Network.session ~weights:[| 0.0 |] ~sender:0 ~receivers:[| 1 |] () |]));
  Alcotest.check_raises "unequal single-rate weights"
    (Invalid_argument "Network.make: single-rate session 0 has unequal weights") (fun () ->
      ignore
        (Network.make g
           [|
             Network.session ~session_type:Network.Single_rate ~weights:[| 1.0; 2.0 |] ~sender:0
               ~receivers:[| 1; 2 |] ();
           |]))

let test_weights_from_rtts () =
  let w = Weighted.weights_from_rtts [| 0.1; 0.2 |] in
  feq "w0" 10.0 w.(0);
  feq "w1" 5.0 w.(1);
  Alcotest.check_raises "bad rtt" (Invalid_argument "Weighted.weights_from_rtts: RTT must be positive")
    (fun () -> ignore (Weighted.weights_from_rtts [| 0.0 |]))

let test_weighted_properties () =
  let net = bottleneck_with_weights [| 1.0; 4.0 |] in
  let alloc = Allocator.max_min net in
  Alcotest.(check bool) "weighted properties hold on weighted MMF" true
    (Weighted.holds_all ~eps:1e-6 alloc);
  (* but the unweighted same-path check need not hold between the two
     flows' normalized view... build a same-path pair to check the
     violation detection: *)
  let g = Graph.create ~nodes:3 in
  ignore (Graph.add_link g 0 1 6.0);
  ignore (Graph.add_link g 1 2 10.0);
  let s w = Network.session ~weights:[| w |] ~sender:0 ~receivers:[| 2 |] () in
  let net2 = Network.make g [| s 1.0; s 2.0 |] in
  let alloc2 = Allocator.max_min net2 in
  feq ~eps:1e-6 "weighted split 2" 2.0 (Allocation.rate alloc2 { Network.session = 0; index = 0 });
  feq ~eps:1e-6 "weighted split 4" 4.0 (Allocation.rate alloc2 { Network.session = 1; index = 0 });
  Alcotest.(check int) "same-path weighted-fair" 0
    (List.length (Weighted.same_path_weighted_fair ~eps:1e-6 alloc2));
  (* an unbalanced allocation violates *)
  let bad = Allocation.make net2 [| [| 3.0 |]; [| 3.0 |] |] in
  Alcotest.(check int) "unbalanced violates" 1 (List.length (Weighted.same_path_weighted_fair bad))

let test_weighted_normalized_vector_maximal () =
  (* Lemma-1 analogue in normalized space, spot-checked. *)
  let net = bottleneck_with_weights [| 1.0; 2.0; 5.0 |] in
  let mmf = Allocator.max_min net in
  let nv = Weighted.normalized_vector mmf in
  let rng = Mmfair_prng.Xoshiro.create ~seed:41L () in
  for _ = 1 to 20 do
    let alt = Mmfair_workload.Random_nets.random_feasible_allocation ~rng net in
    let nalt = Weighted.normalized_vector alt in
    Alcotest.(check bool) "feasible ≼m weighted MMF (normalized)" true
      (Mmfair_core.Ordering.leq (Mmfair_core.Ordering.sort nalt) (Mmfair_core.Ordering.sort nv))
  done

(* --- utility / Pareto --- *)

let test_pareto_dominates () =
  let { Mmfair_workload.Paper_nets.net; _ } =
    Mmfair_workload.Paper_nets.figure2 ~session1_type:Network.Multi_rate ()
  in
  let a = Allocation.make net [| [| 2.0; 2.0; 2.0 |]; [| 2.0 |] |] in
  let b = Allocation.make net [| [| 2.0; 2.0; 3.0 |]; [| 2.0 |] |] in
  Alcotest.(check bool) "b dominates a" true (Utility.pareto_dominates b a);
  Alcotest.(check bool) "a does not dominate b" false (Utility.pareto_dominates a b);
  Alcotest.(check bool) "no self domination" false (Utility.pareto_dominates a a)

let test_mmf_pareto_optimal () =
  let { Mmfair_workload.Paper_nets.net; _ } =
    Mmfair_workload.Paper_nets.figure2 ~session1_type:Network.Multi_rate ()
  in
  let mmf = Allocator.max_min net in
  let rng = Mmfair_prng.Xoshiro.create ~seed:42L () in
  let candidates =
    List.init 50 (fun _ -> Mmfair_workload.Random_nets.random_feasible_allocation ~rng net)
  in
  Alcotest.(check bool) "MMF is Pareto-optimal among feasible samples" true
    (Utility.is_pareto_optimal mmf ~among:candidates)

let test_utility_consistent_with_ordering () =
  let { Mmfair_workload.Paper_nets.net; _ } =
    Mmfair_workload.Paper_nets.figure2 ~session1_type:Network.Multi_rate ()
  in
  let a = Allocation.make net [| [| 1.0; 1.0; 1.0 |]; [| 1.0 |] |] in
  let b = Allocator.max_min net in
  Alcotest.(check bool) "U(a) < U(b)" true (Utility.compare_utility a b < 0);
  let ranked = Utility.utility_rank [ b; a ] in
  let rank_of x = List.assq x ranked in
  Alcotest.(check bool) "rank(a) < rank(b)" true (rank_of a < rank_of b)

let test_utility_rank_ties () =
  let { Mmfair_workload.Paper_nets.net; _ } =
    Mmfair_workload.Paper_nets.figure2 ~session1_type:Network.Multi_rate ()
  in
  (* same ordered vector, different receiver assignment -> same rank *)
  let a = Allocation.make net [| [| 1.0; 2.0; 1.0 |]; [| 1.0 |] |] in
  let b = Allocation.make net [| [| 1.0; 1.0; 2.0 |]; [| 1.0 |] |] in
  let ranked = Utility.utility_rank [ a; b ] in
  Alcotest.(check int) "tied ranks" (List.assq a ranked) (List.assq b ranked)

(* --- multi-sender --- *)

let test_multi_sender_nearest_assignment () =
  (* chain: s0 - A - B - s1; receivers at A and B go to their ends. *)
  let c = Mmfair_topology.Builders.chain ~capacities:[| 4.0; 4.0; 4.0 |] in
  let g = c.Mmfair_topology.Builders.graph in
  let spec =
    Multi_sender.spec ~senders:[| 0; 3 |] ~receivers:[| 1; 2 |] ()
  in
  let t = Multi_sender.expand g [| spec |] in
  Alcotest.(check (array int)) "assignments" [| 0; 1 |] (Multi_sender.assignment t ~session:0);
  (* lowered network has two sub-sessions *)
  Alcotest.(check int) "sub-sessions" 2 (Network.session_count (Multi_sender.network t))

let test_multi_sender_relieves_bottleneck () =
  (* Single sender: both receivers' paths cross the first hop (cap 4);
     adding a replica at the far end gives each receiver a private
     path and doubles the worst rate. *)
  let c = Mmfair_topology.Builders.chain ~capacities:[| 4.0; 4.0; 4.0 |] in
  let g = c.Mmfair_topology.Builders.graph in
  let single = Multi_sender.expand g [| Multi_sender.spec ~senders:[| 0 |] ~receivers:[| 1; 2 |] () |] in
  let dual = Multi_sender.expand g [| Multi_sender.spec ~senders:[| 0; 3 |] ~receivers:[| 1; 2 |] () |] in
  let a1 = Multi_sender.max_min single and a2 = Multi_sender.max_min dual in
  let r t alloc k = Multi_sender.rate t alloc ~session:0 ~receiver:k in
  Alcotest.(check bool) "replication never hurts here" true
    (r dual a2 0 >= r single a1 0 -. 1e-9 && r dual a2 1 >= r single a1 1 -. 1e-9)

let test_multi_sender_tie_breaks_low_index () =
  let c = Mmfair_topology.Builders.chain ~capacities:[| 1.0; 1.0 |] in
  let g = c.Mmfair_topology.Builders.graph in
  (* receiver at node 1 is 1 hop from both senders 0 and 2 *)
  let t = Multi_sender.expand g [| Multi_sender.spec ~senders:[| 0; 2 |] ~receivers:[| 1 |] () |] in
  Alcotest.(check (array int)) "tie to lowest index" [| 0 |] (Multi_sender.assignment t ~session:0)

let test_multi_sender_skips_colocated () =
  let c = Mmfair_topology.Builders.chain ~capacities:[| 1.0; 1.0 |] in
  let g = c.Mmfair_topology.Builders.graph in
  (* a sender sits on the receiver's node: must be skipped, not used *)
  let t = Multi_sender.expand g [| Multi_sender.spec ~senders:[| 1; 0 |] ~receivers:[| 1 |] () |] in
  Alcotest.(check (array int)) "colocated sender skipped" [| 1 |] (Multi_sender.assignment t ~session:0)

let test_multi_sender_validation () =
  let c = Mmfair_topology.Builders.chain ~capacities:[| 1.0 |] in
  let g = c.Mmfair_topology.Builders.graph in
  Alcotest.check_raises "no senders"
    (Invalid_argument "Multi_sender.expand: session 0 has no senders") (fun () ->
      ignore (Multi_sender.expand g [| Multi_sender.spec ~senders:[||] ~receivers:[| 0 |] () |]))

(* --- weighted routing --- *)

let test_dijkstra_prefers_cheap_detour () =
  (* direct link has weight 10; two-hop detour weight 2 *)
  let g = Graph.create ~nodes:3 in
  let direct = Graph.add_link g 0 2 1.0 in
  let h1 = Graph.add_link g 0 1 1.0 in
  let h2 = Graph.add_link g 1 2 1.0 in
  let weight l = if l = direct then 10.0 else 1.0 in
  match (Routing.dijkstra g ~weight 0).(2) with
  | Some (path, cost) ->
      Alcotest.(check (list int)) "detour" [ h1; h2 ] path;
      feq "cost" 2.0 cost
  | None -> Alcotest.fail "unreachable"

let test_dijkstra_matches_bfs_on_unit_weights () =
  let rng = Mmfair_prng.Xoshiro.create ~seed:44L () in
  let g = Mmfair_topology.Builders.random_connected ~rng ~nodes:15 ~extra_links:10 ~cap_lo:1.0 ~cap_hi:5.0 in
  let dj = Routing.dijkstra g ~weight:(fun _ -> 1.0) 0 in
  let bfs = Routing.paths_from g 0 in
  Array.iteri
    (fun dst d ->
      match (d, bfs.(dst)) with
      | Some (p, cost), Some bp ->
          Alcotest.(check int) (Printf.sprintf "hop count to %d" dst) (List.length bp)
            (List.length p);
          feq "cost equals hops" (float_of_int (List.length bp)) cost
      | None, None -> ()
      | _ -> Alcotest.fail "reachability mismatch")
    dj

let test_dijkstra_negative_weight () =
  let g = Graph.create ~nodes:2 in
  ignore (Graph.add_link g 0 1 1.0);
  Alcotest.check_raises "negative weight" (Invalid_argument "Routing.dijkstra: negative weight")
    (fun () -> ignore (Routing.dijkstra g ~weight:(fun _ -> -1.0) 0))

let test_widest_path () =
  (* direct thin link vs fat two-hop detour *)
  let g = Graph.create ~nodes:3 in
  let _thin = Graph.add_link g 0 2 1.0 in
  let f1 = Graph.add_link g 0 1 10.0 in
  let f2 = Graph.add_link g 1 2 8.0 in
  match Routing.widest_path g 0 2 with
  | Some (path, width) ->
      Alcotest.(check (list int)) "fat detour" [ f1; f2 ] path;
      feq "bottleneck width" 8.0 width
  | None -> Alcotest.fail "unreachable"

(* --- runner extensions --- *)

let test_leave_latency_increases_redundancy () =
  let run leave_latency =
    let cfg =
      Runner.config ~packets:30_000 ~warmup:3_000 ~seed:4L ~leave_latency Protocol.Uncoordinated
    in
    (Runner.run_star cfg ~receivers:20 ~shared_loss:0.0001 ~independent_loss:0.05).Runner.redundancy
  in
  let r0 = run 0 and r_big = run 2048 in
  Alcotest.(check bool) (Printf.sprintf "latency raises redundancy (%.2f -> %.2f)" r0 r_big) true
    (r_big > r0)

let test_leave_latency_zero_unchanged () =
  (* explicit 0 must reproduce the default exactly *)
  let base = Runner.config ~packets:5_000 ~warmup:500 ~seed:5L Protocol.Deterministic in
  let zero = Runner.config ~packets:5_000 ~warmup:500 ~seed:5L ~leave_latency:0 Protocol.Deterministic in
  let r1 = Runner.run_star base ~receivers:10 ~shared_loss:0.001 ~independent_loss:0.03 in
  let r2 = Runner.run_star zero ~receivers:10 ~shared_loss:0.001 ~independent_loss:0.03 in
  feq "identical" r1.Runner.redundancy r2.Runner.redundancy

let test_priority_drop_changes_dynamics () =
  let run priority_drop =
    let cfg =
      Runner.config ~packets:20_000 ~warmup:2_000 ~seed:6L ~priority_drop Protocol.Coordinated
    in
    Runner.run_star cfg ~receivers:20 ~shared_loss:0.0001 ~independent_loss:0.05
  in
  let u = run false and p = run true in
  (* base layers protected -> receivers sit higher *)
  Alcotest.(check bool)
    (Printf.sprintf "priority raises mean level (%.2f -> %.2f)" u.Runner.mean_level p.Runner.mean_level)
    true
    (p.Runner.mean_level > u.Runner.mean_level)

let test_fixed_star_loss_floor () =
  let cfg = Runner.config ~layers:4 ~packets:50_000 ~warmup:5_000 ~seed:7L Protocol.Coordinated in
  let shared = 0.01 and indep = 0.05 in
  let r = Runner.run_fixed_star cfg ~receivers:10 ~level:3 ~shared_loss:shared ~independent_loss:indep in
  let floor = 1.0 /. ((1.0 -. shared) *. (1.0 -. indep)) in
  Alcotest.(check bool)
    (Printf.sprintf "static redundancy %.4f ~ loss floor %.4f" r.Runner.redundancy floor)
    true
    (Float.abs (r.Runner.redundancy -. floor) < 0.02);
  feq "mean level is the pinned level" 3.0 r.Runner.mean_level

let test_fixed_star_validation () =
  let cfg = Runner.config ~layers:4 ~packets:100 ~warmup:10 Protocol.Coordinated in
  Alcotest.check_raises "level out of range"
    (Invalid_argument "Runner.run_fixed_star: level out of range") (fun () ->
      ignore (Runner.run_fixed_star cfg ~receivers:2 ~level:5 ~shared_loss:0.0 ~independent_loss:0.0))

(* --- multi-layer random joins --- *)

let test_multi_layer_single_layer_matches_appendix_b () =
  let scheme = Scheme.uniform ~layers:1 ~rate:1.0 in
  let rates = Array.make 20 0.3 in
  feq ~eps:1e-12 "1 layer = Appendix B"
    (Random_joins.expected_redundancy ~lambda:1.0 ~rates)
    (Random_joins.multi_layer_redundancy ~scheme ~rates)

let test_multi_layer_never_worse_than_single () =
  List.iter
    (fun (receivers, rate) ->
      let rates = Array.make receivers rate in
      let single = Random_joins.expected_redundancy ~lambda:1.0 ~rates in
      List.iter
        (fun m ->
          let scheme = Scheme.uniform ~layers:m ~rate:(1.0 /. float_of_int m) in
          let multi = Random_joins.multi_layer_redundancy ~scheme ~rates in
          Alcotest.(check bool)
            (Printf.sprintf "%d layers (n=%d a=%g): %.3f <= %.3f" m receivers rate multi single)
            true
            (multi <= single +. 1e-9))
        [ 2; 3; 4; 5; 8; 10 ])
    [ (10, 0.1); (50, 0.35); (100, 0.5); (30, 0.9) ]

let test_multi_layer_exact_boundary () =
  (* rate exactly on a layer boundary: fully deterministic, redundancy 1 *)
  let scheme = Scheme.uniform ~layers:4 ~rate:0.25 in
  let rates = Array.make 50 0.5 in
  feq ~eps:1e-12 "boundary rate is free" 1.0 (Random_joins.multi_layer_redundancy ~scheme ~rates)

(* --- extension experiments --- *)

let test_tcp_fairness_outcome () =
  let o = E.Extensions.tcp_fairness ~bottleneck:9.0 ~rtts:[| 0.01; 0.02 |] () in
  (* weights 100, 50 -> rates 6, 3 *)
  feq ~eps:1e-5 "fast flow" 6.0 o.E.Extensions.rates.(0);
  feq ~eps:1e-5 "slow flow" 3.0 o.E.Extensions.rates.(1);
  feq ~eps:1e-6 "normalized equal" o.E.Extensions.normalized.(0) o.E.Extensions.normalized.(1);
  Alcotest.(check bool) "weighted fair" true o.E.Extensions.weighted_fair

let test_churn_outcome () =
  let o = E.Extensions.churn ~seed:23L ~sessions:3 () in
  Alcotest.(check int) "steps = 1 + arrivals + departures" 7 (List.length o.E.Extensions.steps);
  (* the observer must end where it started (same network) *)
  let first = List.hd o.E.Extensions.steps and last = List.nth o.E.Extensions.steps 6 in
  (match (first.E.Extensions.observer_rate, last.E.Extensions.observer_rate) with
  | Some a, Some b -> feq "returns to initial rate" a b
  | _ -> Alcotest.fail "observer missing");
  Alcotest.(check bool) "rates moved at least once" true
    (o.E.Extensions.observer_increases + o.E.Extensions.observer_decreases > 0)

let test_layers_experiment_shape () =
  let pts = E.Extensions.layers_vs_redundancy ~max_layers:8 ~receivers:40 ~rate:0.35 () in
  Alcotest.(check int) "8 points" 8 (List.length pts);
  let first = List.hd pts in
  List.iter
    (fun p ->
      Alcotest.(check bool) "never above single layer" true
        (p.E.Extensions.redundancy <= first.E.Extensions.redundancy +. 1e-9))
    pts

let suite =
  [
    Alcotest.test_case "weighted split" `Quick test_weighted_split;
    Alcotest.test_case "unit weights = unweighted" `Quick test_weighted_equals_unweighted_with_unit;
    Alcotest.test_case "weighted rho caps rate" `Quick test_weighted_rho_caps_rate_not_normalized;
    Alcotest.test_case "weighted custom split" `Quick test_weighted_custom_split;
    Alcotest.test_case "weighted validation" `Quick test_weighted_validation;
    Alcotest.test_case "weights from rtts" `Quick test_weights_from_rtts;
    Alcotest.test_case "weighted properties" `Quick test_weighted_properties;
    Alcotest.test_case "weighted normalized maximal" `Quick test_weighted_normalized_vector_maximal;
    Alcotest.test_case "pareto dominates" `Quick test_pareto_dominates;
    Alcotest.test_case "MMF pareto optimal" `Quick test_mmf_pareto_optimal;
    Alcotest.test_case "utility consistent with ≼m" `Quick test_utility_consistent_with_ordering;
    Alcotest.test_case "utility rank ties" `Quick test_utility_rank_ties;
    Alcotest.test_case "multi-sender nearest assignment" `Quick test_multi_sender_nearest_assignment;
    Alcotest.test_case "multi-sender relieves bottleneck" `Quick test_multi_sender_relieves_bottleneck;
    Alcotest.test_case "multi-sender tie-break" `Quick test_multi_sender_tie_breaks_low_index;
    Alcotest.test_case "multi-sender skips colocated" `Quick test_multi_sender_skips_colocated;
    Alcotest.test_case "multi-sender validation" `Quick test_multi_sender_validation;
    Alcotest.test_case "dijkstra cheap detour" `Quick test_dijkstra_prefers_cheap_detour;
    Alcotest.test_case "dijkstra matches BFS costs" `Quick test_dijkstra_matches_bfs_on_unit_weights;
    Alcotest.test_case "dijkstra negative weight" `Quick test_dijkstra_negative_weight;
    Alcotest.test_case "widest path" `Quick test_widest_path;
    Alcotest.test_case "leave latency raises redundancy" `Slow test_leave_latency_increases_redundancy;
    Alcotest.test_case "leave latency 0 unchanged" `Quick test_leave_latency_zero_unchanged;
    Alcotest.test_case "priority drop raises levels" `Slow test_priority_drop_changes_dynamics;
    Alcotest.test_case "fixed star loss floor" `Quick test_fixed_star_loss_floor;
    Alcotest.test_case "fixed star validation" `Quick test_fixed_star_validation;
    Alcotest.test_case "multi-layer = Appendix B at 1 layer" `Quick
      test_multi_layer_single_layer_matches_appendix_b;
    Alcotest.test_case "multi-layer never worse" `Quick test_multi_layer_never_worse_than_single;
    Alcotest.test_case "multi-layer boundary free" `Quick test_multi_layer_exact_boundary;
    Alcotest.test_case "tcp fairness outcome" `Quick test_tcp_fairness_outcome;
    Alcotest.test_case "churn outcome" `Quick test_churn_outcome;
    Alcotest.test_case "layers experiment shape" `Quick test_layers_experiment_shape;
  ]
