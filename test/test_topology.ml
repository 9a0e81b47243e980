(* Topology tests: graph construction, routing, builders. *)

module Graph = Mmfair_topology.Graph
module Routing = Mmfair_topology.Routing
module Builders = Mmfair_topology.Builders

let test_graph_basics () =
  let g = Graph.create ~nodes:3 in
  let l0 = Graph.add_link g 0 1 5.0 in
  let l1 = Graph.add_link g 1 2 3.0 in
  Alcotest.(check int) "nodes" 3 (Graph.node_count g);
  Alcotest.(check int) "links" 2 (Graph.link_count g);
  Alcotest.(check (float 0.0)) "cap l0" 5.0 (Graph.capacity g l0);
  Alcotest.(check (pair int int)) "endpoints" (1, 2) (Graph.endpoints g l1);
  Alcotest.(check int) "other end" 0 (Graph.other_end g l0 1)

let test_graph_add_node () =
  let g = Graph.create ~nodes:1 in
  let n = Graph.add_node g in
  Alcotest.(check int) "new id" 1 n;
  Alcotest.(check int) "count" 2 (Graph.node_count g);
  ignore (Graph.add_link g 0 1 1.0)

let test_graph_invalid () =
  let g = Graph.create ~nodes:2 in
  Alcotest.check_raises "self loop" (Invalid_argument "Graph.add_link: self-loop") (fun () ->
      ignore (Graph.add_link g 0 0 1.0));
  Alcotest.check_raises "bad capacity" (Invalid_argument "Graph.add_link: capacity must be positive")
    (fun () -> ignore (Graph.add_link g 0 1 0.0));
  Alcotest.check_raises "unknown node" (Invalid_argument "Graph.add_link: unknown node 5") (fun () ->
      ignore (Graph.add_link g 0 5 1.0))

(* Capacities live in one flat array beside the link records; the
   network surgery copies a graph and then sets capacities on the copy,
   so the copy must own its array. *)
let test_graph_copy_owns_capacities () =
  let g = Graph.create ~nodes:2 in
  let l = Graph.add_link g 0 1 5.0 in
  let c = Graph.copy g in
  Graph.set_capacity c l 7.0;
  Alcotest.(check (float 0.0)) "original" 5.0 (Graph.capacity g l);
  Alcotest.(check (float 0.0)) "copy" 7.0 (Graph.capacity c l);
  Graph.set_capacity g l 3.0;
  Alcotest.(check (float 0.0)) "copy after the original's change" 7.0 (Graph.capacity c l);
  Alcotest.(check (float 0.0)) "view of the original" 3.0 (Graph.unsafe_capacities g).(l)

let test_graph_capacities_survive_growth () =
  let g = Graph.create ~nodes:2 in
  let cap l = 1.0 +. (0.25 *. float_of_int l) in
  let ids = List.init 37 (fun l -> Graph.add_link g 0 1 (cap l)) in
  Alcotest.(check (list int)) "ids" (List.init 37 Fun.id) ids;
  let view = Graph.unsafe_capacities g in
  List.iter
    (fun l ->
      Alcotest.(check (float 0.0)) (Printf.sprintf "capacity l%d" l) (cap l) (Graph.capacity g l);
      Alcotest.(check (float 0.0)) (Printf.sprintf "view l%d" l) (cap l) view.(l))
    ids;
  Graph.set_capacity g 20 9.0;
  Alcotest.(check (float 0.0)) "set past the first slots" 9.0 (Graph.capacity g 20);
  Alcotest.(check (float 0.0)) "neighbour untouched" (cap 21) (Graph.capacity g 21)

let test_graph_unknown_link_capacity () =
  let g = Graph.create ~nodes:2 in
  ignore (Graph.add_link g 0 1 1.0);
  List.iter
    (fun l ->
      Alcotest.check_raises "capacity" (Invalid_argument (Printf.sprintf "Graph.capacity: unknown link %d" l))
        (fun () -> ignore (Graph.capacity g l));
      Alcotest.check_raises "set_capacity"
        (Invalid_argument (Printf.sprintf "Graph.set_capacity: unknown link %d" l))
        (fun () -> Graph.set_capacity g l 2.0))
    [ -1; 1; 8 ]

let test_graph_parallel_links () =
  let g = Graph.create ~nodes:2 in
  let a = Graph.add_link g 0 1 1.0 in
  let b = Graph.add_link g 0 1 2.0 in
  Alcotest.(check bool) "distinct ids" true (a <> b);
  Alcotest.(check int) "two neighbors entries" 2 (List.length (Graph.neighbors g 0))

let test_graph_neighbors_order () =
  let g = Graph.create ~nodes:4 in
  let l0 = Graph.add_link g 0 1 1.0 in
  let l1 = Graph.add_link g 0 2 1.0 in
  let l2 = Graph.add_link g 0 3 1.0 in
  Alcotest.(check (list (pair int int))) "insertion order" [ (1, l0); (2, l1); (3, l2) ]
    (Graph.neighbors g 0)

let test_graph_dot () =
  let g = Graph.create ~nodes:2 in
  ignore (Graph.add_link g 0 1 4.0);
  let dot = Graph.to_dot g in
  Alcotest.(check bool) "mentions edge" true
    (String.length dot > 0
    && String.split_on_char '\n' dot |> List.exists (fun l -> String.trim l = "n0 -- n1 [label=\"l0: 4\"];"))

let chain_graph n =
  let g = Graph.create ~nodes:n in
  for i = 0 to n - 2 do
    ignore (Graph.add_link g i (i + 1) 1.0)
  done;
  g

let test_routing_chain () =
  let g = chain_graph 5 in
  (match Routing.shortest_path g 0 4 with
  | Some p -> Alcotest.(check (list int)) "chain path" [ 0; 1; 2; 3 ] p
  | None -> Alcotest.fail "unreachable");
  match Routing.shortest_path g 2 2 with
  | Some p -> Alcotest.(check (list int)) "self path empty" [] p
  | None -> Alcotest.fail "self unreachable"

let test_routing_unreachable () =
  let g = Graph.create ~nodes:3 in
  ignore (Graph.add_link g 0 1 1.0);
  Alcotest.(check bool) "disconnected" true (Routing.shortest_path g 0 2 = None);
  Alcotest.(check bool) "connected" true (Routing.shortest_path g 0 1 <> None)

let test_routing_bad_nodes () =
  (* Each public entry names itself, for a bad source and a bad
     destination alike. *)
  let g = chain_graph 3 in
  let raises what msg f = Alcotest.check_raises what (Invalid_argument msg) (fun () -> ignore (f ())) in
  raises "paths_from source" "Routing.paths_from: unknown source" (fun () -> Routing.paths_from g 3);
  raises "shortest_path source" "Routing.shortest_path: unknown source" (fun () ->
      Routing.shortest_path g (-1) 0);
  raises "shortest_path destination" "Routing.shortest_path: unknown destination" (fun () ->
      Routing.shortest_path g 0 7);
  raises "routes source" "Routing.routes: unknown source" (fun () -> Routing.routes g [| (9, [| 0 |]) |]);
  raises "routes destination" "Routing.routes: unknown destination" (fun () ->
      Routing.routes g [| (0, [| 1 |]); (1, [| 0; 3 |]) |])

let test_routing_shortest_over_long () =
  (* Triangle with a two-hop detour: BFS must take the direct link. *)
  let g = Graph.create ~nodes:3 in
  let direct = Graph.add_link g 0 2 1.0 in
  ignore (Graph.add_link g 0 1 1.0);
  ignore (Graph.add_link g 1 2 1.0);
  match Routing.shortest_path g 0 2 with
  | Some p -> Alcotest.(check (list int)) "direct" [ direct ] p
  | None -> Alcotest.fail "unreachable"

let test_routing_paths_from_tree_property () =
  (* Paths from one source agree on shared prefixes. *)
  let star = Builders.modified_star ~shared_capacity:1.0 ~fanout_capacities:[| 1.0; 1.0; 1.0 |] in
  let paths = Routing.paths_from star.Builders.graph star.Builders.sender in
  Array.iter
    (fun r ->
      match paths.(r) with
      | Some (first :: _) ->
          Alcotest.(check int) "first hop is shared link" star.Builders.shared first
      | _ -> Alcotest.fail "bad path")
    star.Builders.receivers

let test_routing_deterministic () =
  let rng = Mmfair_prng.Xoshiro.create ~seed:5L () in
  let g = Builders.random_connected ~rng ~nodes:20 ~extra_links:15 ~cap_lo:1.0 ~cap_hi:2.0 in
  let p1 = Routing.shortest_path g 0 19 and p2 = Routing.shortest_path g 0 19 in
  Alcotest.(check bool) "same path twice" true (p1 = p2)

let test_builder_star () =
  let s = Builders.star ~leaf_capacities:[| 1.0; 2.0; 3.0 |] in
  Alcotest.(check int) "nodes" 4 (Graph.node_count s.Builders.graph);
  Alcotest.(check int) "links" 3 (Graph.link_count s.Builders.graph);
  Alcotest.(check (float 0.0)) "spoke cap" 2.0 (Graph.capacity s.Builders.graph s.Builders.spokes.(1))

let test_builder_modified_star () =
  let s = Builders.modified_star ~shared_capacity:10.0 ~fanout_capacities:[| 1.0; 2.0 |] in
  Alcotest.(check int) "nodes" 4 (Graph.node_count s.Builders.graph);
  Alcotest.(check (float 0.0)) "shared cap" 10.0 (Graph.capacity s.Builders.graph s.Builders.shared);
  (* Receiver paths go shared -> fanout. *)
  match Routing.shortest_path s.Builders.graph s.Builders.sender s.Builders.receivers.(1) with
  | Some p ->
      Alcotest.(check (list int)) "two-hop path" [ s.Builders.shared; s.Builders.fanout.(1) ] p
  | None -> Alcotest.fail "unreachable"

let test_builder_chain () =
  let c = Builders.chain ~capacities:[| 1.0; 2.0; 3.0 |] in
  Alcotest.(check int) "nodes" 4 (Array.length c.Builders.nodes);
  Alcotest.(check int) "hops" 3 (Array.length c.Builders.hops)

let test_builder_dumbbell () =
  let d =
    Builders.dumbbell ~left_capacities:[| 1.0; 1.0 |] ~bottleneck_capacity:5.0
      ~right_capacities:[| 2.0 |]
  in
  let g = d.Builders.graph in
  Alcotest.(check int) "links" 4 (Graph.link_count g);
  match Routing.shortest_path g d.Builders.left.(0) d.Builders.right.(0) with
  | Some p -> Alcotest.(check bool) "crosses bottleneck" true (List.mem d.Builders.bottleneck p)
  | None -> Alcotest.fail "unreachable"

let test_builder_balanced_tree () =
  let t = Builders.balanced_tree ~depth:3 ~fanout:2 ~capacity_at:(fun d -> float_of_int (10 - d)) in
  Alcotest.(check int) "leaves" 8 (Array.length t.Builders.level_nodes.(3));
  Alcotest.(check int) "total nodes" 15 (Graph.node_count t.Builders.graph);
  Alcotest.(check int) "total links" 14 (Graph.link_count t.Builders.graph)

let test_builder_random_connected () =
  let rng = Mmfair_prng.Xoshiro.create ~seed:6L () in
  for nodes = 1 to 20 do
    let g = Builders.random_connected ~rng ~nodes ~extra_links:3 ~cap_lo:1.0 ~cap_hi:2.0 in
    let paths = Routing.paths_from g 0 in
    Array.iteri
      (fun dst p ->
        Alcotest.(check bool) (Printf.sprintf "node %d reachable (n=%d)" dst nodes) true
          (Option.is_some p))
      paths
  done

(* --- generated internet-scale topologies ------------------------- *)

let path_len g a b =
  match Routing.shortest_path g a b with
  | Some p -> List.length p
  | None -> Alcotest.fail (Printf.sprintf "no path %d -> %d" a b)

let qcheck_fat_tree_counts =
  (* Al-Fares counts as functions of k: k³/4 hosts, k²/2 edge and k²/2
     aggregation switches, (k/2)² cores; one link per host plus
     (k/2)² edge-agg and (k/2)² agg-core links per pod. *)
  QCheck.Test.make ~name:"fat-tree node/link counts scale as k" ~count:5
    QCheck.(int_range 2 6)
    (fun half ->
      let k = 2 * half in
      let t = Builders.fat_tree ~k () in
      let g = t.Builders.graph in
      let hosts = k * k * k / 4 in
      Array.length t.Builders.hosts = hosts
      && Array.length t.Builders.edges = k * k / 2
      && Array.length t.Builders.aggs = k * k / 2
      && Array.length t.Builders.cores = half * half
      && Graph.node_count g = hosts + (k * k) + (half * half)
      && Graph.link_count g = 3 * hosts)

let qcheck_fat_tree_paths =
  (* Every host is exactly 3 hops from every core; same-edge hosts are
     2 apart and hosts in different pods 6 apart. *)
  QCheck.Test.make ~name:"fat-tree path lengths" ~count:5
    QCheck.(pair (int_range 2 4) (int_range 0 1000))
    (fun (half, salt) ->
      let k = 2 * half in
      let t = Builders.fat_tree ~k () in
      let g = t.Builders.graph in
      let host = t.Builders.hosts.(salt mod Array.length t.Builders.hosts) in
      let core = t.Builders.cores.(salt mod Array.length t.Builders.cores) in
      let h0 = t.Builders.hosts.(0) and h1 = t.Builders.hosts.(1) in
      let far = t.Builders.hosts.(Array.length t.Builders.hosts - 1) in
      path_len g host core = 3 && path_len g h0 h1 = 2 && path_len g h0 far = 6)

let power_law_at ~seed ~nodes =
  let rng = Mmfair_prng.Xoshiro.create ~seed () in
  Builders.power_law ~rng ~nodes ~attach:2 ~cap_lo:1.0 ~cap_hi:4.0

let qcheck_power_law_degrees =
  (* Preferential attachment grows hubs: the max degree at 512 nodes
     dominates the max at 64, every node keeps degree >= attach, and
     the degree array is consistent with the link count. *)
  QCheck.Test.make ~name:"power-law degree sanity" ~count:10
    QCheck.(int_range 1 1000)
    (fun s ->
      let seed = Int64.of_int s in
      let small = power_law_at ~seed ~nodes:64 in
      let big = power_law_at ~seed ~nodes:512 in
      let max_deg t = Array.fold_left Stdlib.max 0 t.Builders.degrees in
      let sum_deg t = Array.fold_left ( + ) 0 t.Builders.degrees in
      Array.for_all (fun d -> d >= 2) big.Builders.degrees
      && sum_deg big = 2 * Graph.link_count big.Builders.graph
      && Array.length big.Builders.degrees = 512
      && max_deg big > max_deg small)

let graph_fingerprint g =
  Graph.fold_links g ~init:[] ~f:(fun acc l ->
      (Graph.endpoints g l, Graph.capacity g l) :: acc)

let qcheck_power_law_deterministic =
  QCheck.Test.make ~name:"power-law is a pure function of the seed" ~count:10
    QCheck.(int_range 1 1000)
    (fun s ->
      let seed = Int64.of_int s in
      let a = power_law_at ~seed ~nodes:128 and b = power_law_at ~seed ~nodes:128 in
      a.Builders.degrees = b.Builders.degrees
      && graph_fingerprint a.Builders.graph = graph_fingerprint b.Builders.graph)

let test_star_of_stars_matches_scenario_shape () =
  (* The flow layer used to build its star-of-stars privately: root 0,
     then per cluster c a hub (2c+1), a leaf (2c+2), a trunk link (2c)
     and a leaf link (2c+1).  The shared builder at one leaf per
     cluster must reproduce that numbering exactly, or replaying old
     flow scenarios through it would silently reroute. *)
  List.iter
    (fun clusters ->
      let trunk = 4.0 and leaf = 16.0 in
      let t = Builders.star_of_stars ~clusters ~trunk_capacity:trunk ~leaf_capacity:leaf () in
      let old = Graph.create ~nodes:1 in
      for _ = 1 to clusters do
        let hub = Graph.add_node old in
        let lf = Graph.add_node old in
        ignore (Graph.add_link old 0 hub trunk);
        ignore (Graph.add_link old hub lf leaf)
      done;
      Alcotest.(check int) "root" 0 t.Builders.root;
      Alcotest.(check bool) "same fingerprint" true
        (graph_fingerprint t.Builders.graph = graph_fingerprint old);
      Array.iteri
        (fun c hub ->
          Alcotest.(check int) (Printf.sprintf "hub %d" c) ((2 * c) + 1) hub;
          Alcotest.(check int) (Printf.sprintf "leaf %d" c) ((2 * c) + 2) t.Builders.leaves.(c).(0);
          Alcotest.(check int) (Printf.sprintf "trunk %d" c) (2 * c) t.Builders.trunks.(c);
          Alcotest.(check int) (Printf.sprintf "leaf link %d" c) ((2 * c) + 1)
            t.Builders.leaf_links.(c).(0))
        t.Builders.hubs)
    [ 1; 2; 5; 8 ]

(* The pre-early-exit search, kept as an independent oracle: a full
   BFS sweep (insertion-order neighbors, parent fixed on first visit)
   extracting every node's path. *)
let full_sweep g src =
  let n = Graph.node_count g in
  let parent = Array.make n (-1) and parent_link = Array.make n (-1) in
  let visited = Array.make n false in
  visited.(src) <- true;
  let q = Queue.create () in
  Queue.add src q;
  while not (Queue.is_empty q) do
    let v = Queue.pop q in
    List.iter
      (fun (w, l) ->
        if not visited.(w) then begin
          visited.(w) <- true;
          parent.(w) <- v;
          parent_link.(w) <- l;
          Queue.add w q
        end)
      (Graph.neighbors g v)
  done;
  let rec path v acc = if v = src then acc else path parent.(v) (parent_link.(v) :: acc) in
  Array.init n (fun v -> if visited.(v) then Some (path v []) else None)

let qcheck_routes_match_full_sweep =
  (* Random graphs with parallel links and disconnected parts; each
     group's targets repeat nodes and may include the source. *)
  QCheck.Test.make ~name:"early-exit routes equal the full-tree paths" ~count:200
    QCheck.(int_range 0 100_000)
    (fun seed ->
      let rng = Mmfair_prng.Xoshiro.create ~seed:(Int64.of_int seed) () in
      let module X = Mmfair_prng.Xoshiro in
      let n = 1 + X.below rng 14 in
      let g = Graph.create ~nodes:n in
      if n > 1 then
        for _ = 1 to X.below rng (2 * n) do
          let a = X.below rng n and b = X.below rng n in
          if a <> b then begin
            ignore (Graph.add_link g a b 1.0 : int);
            if X.bernoulli rng 0.2 then ignore (Graph.add_link g a b 1.0 : int)
          end
        done;
      let groups =
        Array.init
          (1 + X.below rng 4)
          (fun _ ->
            let src = X.below rng n in
            let targets = Array.init (X.below rng (2 * n + 1)) (fun _ -> X.below rng n) in
            if X.bool rng then (src, Array.append targets [| src |]) else (src, targets))
      in
      let routed = Routing.routes g groups in
      Array.for_all2
        (fun (src, targets) got ->
          let oracle = full_sweep g src and tree = Routing.paths_from g src in
          tree = oracle
          && Array.length got = Array.length targets
          && Array.for_all2 (fun t p -> p = tree.(t) && p = oracle.(t)) targets got
          && Array.for_all2
               (fun t p ->
                 Array.for_all2
                   (fun t' p' ->
                     t <> t'
                     || match (p, p') with Some a, Some b -> a == b | None, None -> true | _ -> false)
                   targets got)
               targets got)
        groups routed)

let qcheck_random_graph_capacities =
  QCheck.Test.make ~name:"random graph capacities stay in range" ~count:50
    QCheck.(pair (int_range 2 15) (int_range 0 10))
    (fun (nodes, extra) ->
      let rng = Mmfair_prng.Xoshiro.create ~seed:(Int64.of_int ((nodes * 31) + extra)) () in
      let g = Builders.random_connected ~rng ~nodes ~extra_links:extra ~cap_lo:2.0 ~cap_hi:5.0 in
      Graph.fold_links g ~init:true ~f:(fun acc l ->
          acc && Graph.capacity g l >= 2.0 && Graph.capacity g l < 5.0))

let suite =
  [
    Alcotest.test_case "graph basics" `Quick test_graph_basics;
    Alcotest.test_case "graph add_node" `Quick test_graph_add_node;
    Alcotest.test_case "graph invalid" `Quick test_graph_invalid;
    Alcotest.test_case "graph copy owns its capacities" `Quick test_graph_copy_owns_capacities;
    Alcotest.test_case "graph capacities survive growth" `Quick test_graph_capacities_survive_growth;
    Alcotest.test_case "graph unknown link capacity raises" `Quick test_graph_unknown_link_capacity;
    Alcotest.test_case "graph parallel links" `Quick test_graph_parallel_links;
    Alcotest.test_case "graph neighbors order" `Quick test_graph_neighbors_order;
    Alcotest.test_case "graph dot export" `Quick test_graph_dot;
    Alcotest.test_case "routing chain" `Quick test_routing_chain;
    Alcotest.test_case "routing unreachable" `Quick test_routing_unreachable;
    Alcotest.test_case "routing shortest over long" `Quick test_routing_shortest_over_long;
    Alcotest.test_case "routing bad nodes name their entry" `Quick test_routing_bad_nodes;
    Alcotest.test_case "routing tree prefix property" `Quick test_routing_paths_from_tree_property;
    Alcotest.test_case "routing deterministic" `Quick test_routing_deterministic;
    Alcotest.test_case "builder star" `Quick test_builder_star;
    Alcotest.test_case "builder modified star" `Quick test_builder_modified_star;
    Alcotest.test_case "builder chain" `Quick test_builder_chain;
    Alcotest.test_case "builder dumbbell" `Quick test_builder_dumbbell;
    Alcotest.test_case "builder balanced tree" `Quick test_builder_balanced_tree;
    Alcotest.test_case "builder random connected" `Quick test_builder_random_connected;
    Alcotest.test_case "star-of-stars matches old scenario shape" `Quick
      test_star_of_stars_matches_scenario_shape;
    QCheck_alcotest.to_alcotest qcheck_fat_tree_counts;
    QCheck_alcotest.to_alcotest qcheck_fat_tree_paths;
    QCheck_alcotest.to_alcotest qcheck_power_law_degrees;
    QCheck_alcotest.to_alcotest qcheck_power_law_deterministic;
    QCheck_alcotest.to_alcotest qcheck_random_graph_capacities;
    QCheck_alcotest.to_alcotest qcheck_routes_match_full_sweep;
  ]
