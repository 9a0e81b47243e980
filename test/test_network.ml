(* Network-model tests: validation, data-paths, R_{i,j}/R_j sets,
   surgery operations. *)

module Graph = Mmfair_topology.Graph
module Routing = Mmfair_topology.Routing
module Network = Mmfair_core.Network
module Redundancy_fn = Mmfair_core.Redundancy_fn

(* sender 0 - l0 - 1 - l1 - 2; second branch 1 - l2 - 3 *)
let small_net () =
  let g = Graph.create ~nodes:4 in
  let _l0 = Graph.add_link g 0 1 10.0 in
  let _l1 = Graph.add_link g 1 2 5.0 in
  let _l2 = Graph.add_link g 1 3 3.0 in
  let s0 = Network.session ~sender:0 ~receivers:[| 2; 3 |] () in
  let s1 = Network.session ~session_type:Network.Single_rate ~sender:1 ~receivers:[| 2 |] () in
  Network.make g [| s0; s1 |]

let test_counts () =
  let net = small_net () in
  Alcotest.(check int) "sessions" 2 (Network.session_count net);
  Alcotest.(check int) "receivers" 3 (Network.receiver_count net)

let test_data_paths () =
  let net = small_net () in
  Alcotest.(check (list int)) "r0,0 path" [ 0; 1 ] (Network.data_path net { Network.session = 0; index = 0 });
  Alcotest.(check (list int)) "r0,1 path" [ 0; 2 ] (Network.data_path net { Network.session = 0; index = 1 });
  Alcotest.(check (list int)) "r1,0 path" [ 1 ] (Network.data_path net { Network.session = 1; index = 0 })

let test_session_links () =
  let net = small_net () in
  Alcotest.(check (list int)) "union of paths" [ 0; 1; 2 ] (Network.session_links net 0);
  Alcotest.(check (list int)) "unicast session" [ 1 ] (Network.session_links net 1)

let test_receivers_on_link () =
  let net = small_net () in
  let on l i = List.map (fun (r : Network.receiver_id) -> r.Network.index) (Network.receivers_on_link net ~session:i ~link:l) in
  Alcotest.(check (list int)) "R_{0,0}" [ 0; 1 ] (on 0 0);
  Alcotest.(check (list int)) "R_{0,1}" [ 0 ] (on 1 0);
  Alcotest.(check (list int)) "R_{1,1}" [ 0 ] (on 1 1);
  Alcotest.(check (list int)) "R_{1,0} empty" [] (on 0 1);
  Alcotest.(check int) "R_1 size" 2 (List.length (Network.all_on_link net ~link:1))

let test_crosses () =
  let net = small_net () in
  let r = { Network.session = 0; index = 0 } in
  Alcotest.(check bool) "crosses l1" true (List.mem 1 (Network.data_path net r));
  Alcotest.(check bool) "not l2" false (List.mem 2 (Network.data_path net r))

let test_is_unicast () =
  let net = small_net () in
  Alcotest.(check bool) "S0 not unicast" false (Network.is_unicast net 0);
  Alcotest.(check bool) "S1 unicast" true (Network.is_unicast net 1)

let test_validation_empty_receivers () =
  let g = Graph.create ~nodes:2 in
  ignore (Graph.add_link g 0 1 1.0);
  Alcotest.check_raises "no receivers" (Invalid_argument "Network.make: session 0 has no receivers")
    (fun () -> ignore (Network.make g [| Network.session ~sender:0 ~receivers:[||] () |]))

let test_validation_shared_member_node () =
  let g = Graph.create ~nodes:2 in
  ignore (Graph.add_link g 0 1 1.0);
  Alcotest.check_raises "sender = receiver node"
    (Invalid_argument "Network.make: session 0 maps two members to node 0") (fun () ->
      ignore (Network.make g [| Network.session ~sender:0 ~receivers:[| 1; 0 |] () |]))

let test_validation_unreachable () =
  let g = Graph.create ~nodes:3 in
  ignore (Graph.add_link g 0 1 1.0);
  Alcotest.check_raises "unreachable receiver"
    (Invalid_argument "Network.make: session 0 receiver 0 unreachable") (fun () ->
      ignore (Network.make g [| Network.session ~sender:0 ~receivers:[| 2 |] () |]))

let test_error_order () =
  (* Every session is validated before any is routed, and the lowest
     unreachable (session, receiver) is reported even when a later
     sender's search finds it. *)
  let g = Graph.create ~nodes:4 in
  ignore (Graph.add_link g 0 1 1.0);
  Alcotest.check_raises "validation before routing"
    (Invalid_argument "Network.make: session 1 has rho <= 0") (fun () ->
      ignore
        (Network.make g
           [| Network.session ~sender:0 ~receivers:[| 2 |] ();
              Network.session ~rho:0.0 ~sender:0 ~receivers:[| 1 |] () |]));
  Alcotest.check_raises "receiver range checked before routing"
    (Invalid_argument "Network.make: session 1 receiver 0 on unknown node") (fun () ->
      ignore
        (Network.make g
           [| Network.session ~sender:0 ~receivers:[| 3 |] ();
              Network.session ~sender:0 ~receivers:[| 9 |] () |]));
  Alcotest.check_raises "lowest unreachable receiver wins"
    (Invalid_argument "Network.make: session 1 receiver 1 unreachable") (fun () ->
      ignore
        (Network.make g
           [| Network.session ~sender:1 ~receivers:[| 0 |] ();
              Network.session ~sender:0 ~receivers:[| 1; 3; 2 |] ();
              Network.session ~sender:1 ~receivers:[| 2 |] () |]))

let test_shared_path_lists () =
  (* Sessions with one sender route in one search, so the same
     (sender, receiver) pair gets one path.  Paths are stored only as
     incidence rows, so the lists are equal, not shared. *)
  let net = small_net () in
  let g = Network.graph net in
  let s = Network.session ~sender:0 ~receivers:[| 2 |] () in
  let t = Network.session ~sender:0 ~receivers:[| 3; 2 |] () in
  let u = Network.session ~sender:1 ~receivers:[| 2 |] () in
  let net = Network.make g [| s; u; t; s |] in
  let path i k = Network.data_path net { Network.session = i; index = k } in
  Alcotest.(check bool) "same sender, same receiver" true (path 0 0 = path 2 1 && path 0 0 = path 3 0);
  Alcotest.(check (list int)) "other sender's path" [ 1 ] (path 1 0)

let test_validation_bad_rho () =
  let g = Graph.create ~nodes:2 in
  ignore (Graph.add_link g 0 1 1.0);
  Alcotest.check_raises "rho <= 0" (Invalid_argument "Network.make: session 0 has rho <= 0")
    (fun () -> ignore (Network.make g [| Network.session ~rho:0.0 ~sender:0 ~receivers:[| 1 |] () |]))

let test_different_sessions_share_nodes () =
  (* Members of different sessions may share a node. *)
  let g = Graph.create ~nodes:2 in
  ignore (Graph.add_link g 0 1 1.0);
  let s = Network.session ~sender:0 ~receivers:[| 1 |] () in
  let net = Network.make g [| s; s |] in
  Alcotest.(check int) "both sessions accepted" 2 (Network.session_count net)

let test_with_session_types () =
  let net = small_net () in
  let flipped = Network.with_session_types net [| Network.Single_rate; Network.Multi_rate |] in
  Alcotest.(check bool) "S0 flipped" true (Network.session_type flipped 0 = Network.Single_rate);
  Alcotest.(check bool) "S1 flipped" true (Network.session_type flipped 1 = Network.Multi_rate);
  (* original untouched *)
  Alcotest.(check bool) "original S0" true (Network.session_type net 0 = Network.Multi_rate)

let test_with_vfns () =
  let net = small_net () in
  let swapped = Network.with_vfns net [| Redundancy_fn.Scaled 2.0; Redundancy_fn.Efficient |] in
  Alcotest.(check string) "vfn swapped" "scaled(2)" (Redundancy_fn.name (Network.vfn swapped 0))

(* [with_vfns] and [with_session_types] re-validate like [make], so a
   network they return is as safe to hand to a solver. *)
let test_with_vfns_validates () =
  let net = small_net () in
  Alcotest.check_raises "Scaled 0.5"
    (Invalid_argument
       "Network.with_vfns: session 0 has Scaled redundancy factor 0.5 (need a finite factor >= 1)")
    (fun () -> ignore (Network.with_vfns net [| Redundancy_fn.Scaled 0.5; Redundancy_fn.Efficient |]));
  Alcotest.check_raises "Scaled nan"
    (Invalid_argument
       "Network.with_vfns: session 1 has Scaled redundancy factor nan (need a finite factor >= 1)")
    (fun () -> ignore (Network.with_vfns net [| Redundancy_fn.Efficient; Redundancy_fn.Scaled Float.nan |]))

let test_with_session_types_validates () =
  let g = Graph.create ~nodes:3 in
  ignore (Graph.add_link g 0 1 1.0);
  ignore (Graph.add_link g 0 2 1.0);
  let net = Network.make g [| Network.session ~weights:[| 1.0; 2.0 |] ~sender:0 ~receivers:[| 1; 2 |] () |] in
  Alcotest.check_raises "single-rate with unequal weights"
    (Invalid_argument "Network.with_session_types: single-rate session 0 has unequal weights")
    (fun () -> ignore (Network.with_session_types net [| Network.Single_rate |]))

let test_without_receiver () =
  let net = small_net () in
  let removed = Network.without_receiver net { Network.session = 0; index = 0 } in
  Alcotest.(check int) "one fewer receiver" 2 (Network.receiver_count removed);
  Alcotest.(check (list int)) "remaining receiver's path" [ 0; 2 ]
    (Network.data_path removed { Network.session = 0; index = 0 })

let test_without_receiver_last () =
  let net = small_net () in
  Alcotest.check_raises "cannot empty a session"
    (Invalid_argument "Network.without_receiver: session would become empty") (fun () ->
      ignore (Network.without_receiver net { Network.session = 1; index = 0 }))

let qcheck_random_nets_valid =
  QCheck.Test.make ~name:"random networks respect the tau restriction" ~count:100
    QCheck.(int_range 0 10_000)
    (fun seed ->
      let rng = Mmfair_prng.Xoshiro.create ~seed:(Int64.of_int seed) () in
      let net = Mmfair_workload.Random_nets.generate ~rng Mmfair_workload.Random_nets.default in
      (* every session: sender and receivers on distinct nodes, and
         every receiver's path non-empty *)
      let ok = ref true in
      for i = 0 to Network.session_count net - 1 do
        let spec = Network.session_spec net i in
        let members = Array.to_list (Array.append [| spec.Network.sender |] spec.Network.receivers) in
        if List.length (List.sort_uniq compare members) <> List.length members then ok := false;
        Array.iter
          (fun (r : Network.receiver_id) -> if Network.data_path net r = [] then ok := false)
          (Network.receivers_of_session net i)
      done;
      !ok)

let qcheck_incidence_matches_lists =
  (* The compact CSR incidence index — and the list views derived from
     it — must agree with the raw per-receiver routing, taken from
     [Routing.shortest_path] on each spec's sender and receiver nodes
     (independent of the index, which [data_path] reads): per-(link,
     session) cells, whole-link ranges, receiver rows, the
     [gid_session] inverse and the [recv_cell_of] back-pointers. *)
  QCheck.Test.make ~name:"incidence index agrees with the raw routing" ~count:100
    QCheck.(int_range 0 10_000)
    (fun seed ->
      let rng = Mmfair_prng.Xoshiro.create ~seed:(Int64.of_int seed) () in
      let net = Mmfair_workload.Random_nets.generate ~rng Mmfair_workload.Random_nets.default in
      let g = Network.graph net in
      let inc = Network.incidence net in
      let m = Network.session_count net in
      let gid_of (r : Network.receiver_id) = Network.receiver_gid net r in
      let route (r : Network.receiver_id) =
        let s = Network.session_spec net r.Network.session in
        Option.get (Routing.shortest_path g s.Network.sender s.Network.receivers.(r.Network.index))
      in
      let ok = ref true in
      if inc.Network.n_receivers <> Network.receiver_count net then ok := false;
      if Array.length inc.Network.gid_session <> inc.Network.n_receivers then ok := false;
      if inc.Network.n_cells <> inc.Network.link_row.(Graph.link_count g) then ok := false;
      (* Oracle from the raw routing: which gids cross (l, i)? *)
      let expected_cell l i =
        List.filter_map
          (fun (r : Network.receiver_id) ->
            if r.Network.session = i && List.mem l (route r) then Some (gid_of r)
            else None)
          (Array.to_list (Network.all_receivers net))
      in
      for l = 0 to Graph.link_count g - 1 do
        (* The link's compact cells carry ascending sessions and exactly
           the non-empty expected cells, in receiver-index order. *)
        let cells =
          List.init
            (inc.Network.link_row.(l + 1) - inc.Network.link_row.(l))
            (fun j ->
              let c = inc.Network.link_row.(l) + j in
              ( inc.Network.cell_session.(c),
                Array.to_list
                  (Array.sub inc.Network.link_cells
                     inc.Network.cell_first.(c)
                     (inc.Network.cell_first.(c + 1) - inc.Network.cell_first.(c))) ))
        in
        let expected =
          List.filter_map
            (fun i -> match expected_cell l i with [] -> None | gids -> Some (i, gids))
            (List.init m Fun.id)
        in
        if cells <> expected then ok := false;
        (* ...and the list views agree with the same oracle. *)
        List.iter
          (fun i ->
            if
              List.map gid_of (Network.receivers_on_link net ~session:i ~link:l)
              <> expected_cell l i
            then ok := false)
          (List.init m Fun.id);
        if
          List.map gid_of (Network.all_on_link net ~link:l)
          <> List.concat_map (fun i -> expected_cell l i) (List.init m Fun.id)
        then ok := false
      done;
      Array.iter
        (fun (r : Network.receiver_id) ->
          let gid = gid_of r in
          let i = inc.Network.gid_session.(gid) in
          if i <> r.Network.session || gid - inc.Network.session_first.(i) <> r.Network.index then
            ok := false;
          let row =
            Array.to_list
              (Array.sub inc.Network.recv_cells
                 inc.Network.recv_row.(gid)
                 (inc.Network.recv_row.(gid + 1) - inc.Network.recv_row.(gid)))
          in
          if row <> route r || Network.data_path net r <> route r then ok := false;
          (* Each path entry's back-pointer lands in its link's cell
             range, on this receiver's session. *)
          for p = inc.Network.recv_row.(gid) to inc.Network.recv_row.(gid + 1) - 1 do
            let l = inc.Network.recv_cells.(p) in
            let c = inc.Network.recv_cell_of.(p) in
            if c < inc.Network.link_row.(l) || c >= inc.Network.link_row.(l + 1) then ok := false;
            if inc.Network.cell_session.(c) <> r.Network.session then ok := false
          done)
        (Network.all_receivers net);
      !ok)

let qcheck_paths_match_shortest_path =
  (* Senders come from a small pool, so some sessions share a sender's
     search and others do not; every frozen data-path must be the one
     a lone [shortest_path] query returns. *)
  QCheck.Test.make ~name:"make routes every receiver by shortest_path" ~count:100
    QCheck.(int_range 0 10_000)
    (fun seed ->
      let module X = Mmfair_prng.Xoshiro in
      let rng = X.create ~seed:(Int64.of_int seed) () in
      let nodes = 3 + X.below rng 12 in
      let g =
        Mmfair_topology.Builders.random_connected ~rng ~nodes ~extra_links:(X.below rng nodes)
          ~cap_lo:1.0 ~cap_hi:2.0
      in
      let pool = Array.init (1 + X.below rng 3) (fun _ -> X.below rng nodes) in
      let specs =
        Array.init
          (1 + X.below rng 8)
          (fun _ ->
            let sender = X.pick rng pool in
            let others = Array.of_list (List.filter (( <> ) sender) (List.init nodes Fun.id)) in
            X.shuffle rng others;
            Network.session ~sender ~receivers:(Array.sub others 0 (1 + X.below rng (nodes - 1))) ())
      in
      let net = Network.make g specs in
      Array.for_all
        (fun (r : Network.receiver_id) ->
          let s = specs.(r.Network.session) in
          Routing.shortest_path g s.Network.sender s.Network.receivers.(r.Network.index)
          = Some (Network.data_path net r))
        (Network.all_receivers net))

let test_join_unreachable () =
  let g = Graph.create ~nodes:3 in
  ignore (Graph.add_link g 0 1 1.0);
  let net = Network.make g [| Network.session ~sender:0 ~receivers:[| 1 |] () |] in
  Alcotest.check_raises "join of an unreachable node"
    (Invalid_argument "Network.with_receiver: session 0 cannot reach node 2 from its sender")
    (fun () -> ignore (Network.with_receiver net ~session:0 ~node:2))

let test_surgery_sharing () =
  (* A surgery without a join or leave cannot move a path, so its
     commit shares the base's incidence; one that joins rebuilds it. *)
  let net = small_net () in
  let same what net' =
    Alcotest.(check bool) what true (Network.incidence net' == Network.incidence net)
  in
  same "rho change shares the incidence" (Network.with_rho net 0 2.0);
  same "capacity change shares the incidence" (Network.with_capacity net 1 7.0);
  let srg = Network.surgery_begin net in
  Network.surgery_rho srg 1 0.5;
  Network.surgery_capacity srg 0 4.0;
  Network.surgery_capacity srg 2 9.0;
  same "rho + capacity batch shares the incidence" (Network.surgery_commit srg);
  let joined = Network.with_receiver net ~session:1 ~node:3 in
  Alcotest.(check bool) "a join rebuilds the incidence" false
    (Network.incidence joined == Network.incidence net);
  Alcotest.(check (float 0.0)) "base capacity untouched" 5.0
    (Graph.capacity (Network.graph net) 1)

let qcheck_surgery_matches_rebuild =
  (* Every surgery — a random mix of joins, leaves, ρ and capacity
     changes committed at once — must leave the network
     indistinguishable from a from-scratch [Network.make] on the
     accumulated graph and specs: routing is deterministic BFS, so the
     frozen paths coincide and the whole incidence record — offsets,
     cells, back-pointers, padding — must be structurally equal.  This
     is the oracle the churn differential gate cannot provide (both of
     its sides share the surgical net).  A commit without a join or
     leave must also share the base's incidence physically. *)
  QCheck.Test.make ~name:"receiver surgery incidence equals scratch rebuild" ~count:60
    QCheck.(int_range 0 10_000)
    (fun seed ->
      let rng = Mmfair_prng.Xoshiro.create ~seed:(Int64.of_int seed) () in
      let below = Mmfair_prng.Xoshiro.below rng in
      (* Small, congested nets: joins must regularly give birth to new
         (link, session) cells mid-CSR.  The roomy default config
         barely exercises it. *)
      let cfg =
        {
          Mmfair_workload.Random_nets.default with
          Mmfair_workload.Random_nets.nodes = 8 + below 8;
          extra_links = 3 + below 5;
          sessions = 4 + below 4;
          max_receivers = 4;
        }
      in
      let net = ref (Mmfair_workload.Random_nets.generate ~rng cfg) in
      (* The oracle's own copy of the accumulated state. *)
      let graph = Graph.copy (Network.graph !net) in
      let specs = Array.init (Network.session_count !net) (Network.session_spec !net) in
      let n_nodes = Graph.node_count graph and n_links = Graph.link_count graph in
      let ok = ref true in
      for _step = 1 to 10 do
        let base = !net in
        let base_paths = Array.map (Network.data_path base) (Network.all_receivers base) in
        let srg = Network.surgery_begin base in
        let moved = ref false in
        for _op = 1 to 1 + below 4 do
          let i = below (Array.length specs) in
          let s = specs.(i) in
          let n_recv = Array.length s.Network.receivers in
          match below 4 with
          | 0 when n_recv >= 2 ->
              let k = below n_recv in
              let drop a = Array.of_list (List.filteri (fun j _ -> j <> k) (Array.to_list a)) in
              Network.surgery_leave srg { Network.session = i; index = k };
              specs.(i) <-
                { s with Network.receivers = drop s.Network.receivers; weights = drop s.Network.weights };
              moved := true
          | 0 | 1 -> (
              let node = below n_nodes in
              (* Skip draws the surgery legitimately rejects (member
                 node collisions, unreachable nodes); a rejected
                 operation leaves the builder untouched. *)
              match Network.surgery_join srg ~session:i ~node with
              | () ->
                  specs.(i) <-
                    {
                      s with
                      Network.receivers = Array.append s.Network.receivers [| node |];
                      weights = Array.append s.Network.weights [| s.Network.weights.(0) |];
                    };
                  moved := true
              | exception Invalid_argument _ -> ())
          | 2 ->
              let rho = 0.5 +. float_of_int (below 8) in
              Network.surgery_rho srg i rho;
              specs.(i) <- { s with Network.rho }
          | _ ->
              let link = below n_links and cap = 1.0 +. float_of_int (below 20) in
              Network.surgery_capacity srg link cap;
              Graph.set_capacity graph link cap
        done;
        net := Network.surgery_commit srg;
        if Array.map (Network.data_path base) (Network.all_receivers base) <> base_paths then
          ok := false;
        if (not !moved) && Network.incidence !net != Network.incidence base then ok := false;
        let scratch = Network.make graph specs in
        if Network.incidence !net <> Network.incidence scratch then ok := false;
        Array.iteri (fun i s -> if Network.session_spec !net i <> s then ok := false) specs;
        for l = 0 to n_links - 1 do
          if Graph.capacity (Network.graph !net) l <> Graph.capacity graph l then ok := false
        done;
        if Network.max_capacity !net
           <> Graph.fold_links graph ~init:0.0 ~f:(fun acc l -> Float.max acc (Graph.capacity graph l))
        then ok := false;
        Array.iter
          (fun (r : Network.receiver_id) ->
            if Network.data_path !net r <> Network.data_path scratch r then ok := false)
          (Network.all_receivers !net)
      done;
      !ok)

let suite =
  [
    Alcotest.test_case "counts" `Quick test_counts;
    Alcotest.test_case "data paths" `Quick test_data_paths;
    Alcotest.test_case "session links" `Quick test_session_links;
    Alcotest.test_case "receivers on link" `Quick test_receivers_on_link;
    Alcotest.test_case "crosses" `Quick test_crosses;
    Alcotest.test_case "is_unicast" `Quick test_is_unicast;
    Alcotest.test_case "validation: empty receivers" `Quick test_validation_empty_receivers;
    Alcotest.test_case "validation: shared member node" `Quick test_validation_shared_member_node;
    Alcotest.test_case "validation: unreachable" `Quick test_validation_unreachable;
    Alcotest.test_case "validation: bad rho" `Quick test_validation_bad_rho;
    Alcotest.test_case "validation errors precede routing errors" `Quick test_error_order;
    Alcotest.test_case "one sender's sessions share path lists" `Quick test_shared_path_lists;
    Alcotest.test_case "cross-session node sharing ok" `Quick test_different_sessions_share_nodes;
    Alcotest.test_case "with_session_types" `Quick test_with_session_types;
    Alcotest.test_case "with_vfns" `Quick test_with_vfns;
    Alcotest.test_case "with_vfns validates factors" `Quick test_with_vfns_validates;
    Alcotest.test_case "with_session_types validates weights" `Quick test_with_session_types_validates;
    Alcotest.test_case "without_receiver" `Quick test_without_receiver;
    Alcotest.test_case "without_receiver last" `Quick test_without_receiver_last;
    Alcotest.test_case "join of an unreachable node" `Quick test_join_unreachable;
    Alcotest.test_case "rho/capacity surgery shares incidence" `Quick test_surgery_sharing;
    QCheck_alcotest.to_alcotest qcheck_random_nets_valid;
    QCheck_alcotest.to_alcotest qcheck_incidence_matches_lists;
    QCheck_alcotest.to_alcotest qcheck_surgery_matches_rebuild;
    QCheck_alcotest.to_alcotest qcheck_paths_match_shortest_path;
  ]
