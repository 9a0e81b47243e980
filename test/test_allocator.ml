(* Allocator tests: paper goldens (Figures 1-4), engine agreement,
   and property-based verification of the paper's theorems.

   Theorem/lemma coverage:
   - Lemma 1: every feasible allocation is min-unfavorable to the MMF
     allocation (randomized feasible alternatives).
   - Theorem 1: in an all-multi-rate network the MMF allocation
     satisfies all four fairness properties (random networks).
   - Theorem 2(c): per-session-link-fairness holds for every session
     in mixed networks.
   - Lemma 3 / Corollary 1: replacing single-rate sessions with
     multi-rate ones is monotone under the min-unfavorable relation.
   - Lemma 4: dominating redundancy functions yield min-unfavorable
     MMF allocations.
   - Lemma 9 (TR): switching one session to multi-rate never lowers
     that session's receivers' rates. *)

module Graph = Mmfair_topology.Graph
module Network = Mmfair_core.Network
module Allocation = Mmfair_core.Allocation
module Allocator = Mmfair_core.Allocator
module Ordering = Mmfair_core.Ordering
module Properties = Mmfair_core.Properties
module Redundancy_fn = Mmfair_core.Redundancy_fn
module Paper_nets = Mmfair_workload.Paper_nets
module Random_nets = Mmfair_workload.Random_nets

let feq ?(eps = 1e-9) what a b =
  Alcotest.(check bool) (Printf.sprintf "%s: %g vs %g" what a b) true (Float.abs (a -. b) <= eps)

(* The same network with every link-rate function wrapped as [Custom]
   (same rates): the solve picks its engine from the input, and this
   input selects bisection. *)
let bisection_net net =
  Network.with_vfns net
    (Array.init (Network.session_count net) (fun i -> Redundancy_fn.as_custom (Network.vfn net i)))

let check_rates what net expected =
  let alloc = Allocator.max_min net in
  Array.iteri
    (fun i per ->
      Array.iteri
        (fun k e ->
          feq ~eps:1e-7 (Printf.sprintf "%s a%d,%d" what (i + 1) (k + 1)) e
            (Allocation.rate alloc { Network.session = i; index = k }))
        per)
    expected;
  alloc

(* --- paper goldens --- *)

let test_figure1 () =
  let { Paper_nets.net; _ } = Paper_nets.figure1 () in
  let alloc = check_rates "fig1" net [| [| 1.0 |]; [| 1.0; 2.0 |]; [| 1.0; 2.0 |] |] in
  Alcotest.(check bool) "all properties hold" true (Properties.holds_all alloc)

let test_figure2_single () =
  let { Paper_nets.net; _ } = Paper_nets.figure2 () in
  ignore (check_rates "fig2 single" net [| [| 2.0; 2.0; 2.0 |]; [| 3.0 |] |])

let test_figure2_multi () =
  let { Paper_nets.net; _ } = Paper_nets.figure2 ~session1_type:Network.Multi_rate () in
  let alloc = check_rates "fig2 multi" net [| [| 2.5; 2.0; 3.0 |]; [| 2.5 |] |] in
  Alcotest.(check bool) "Theorem 1 on fig2" true (Properties.holds_all alloc)

let test_figure3a () =
  let { Paper_nets.net; _ }, victim = Paper_nets.figure3a () in
  ignore (check_rates "fig3a before" net [| [| 2.0 |]; [| 2.0 |]; [| 8.0; 2.0 |] |]);
  let after = Network.without_receiver net victim in
  ignore (check_rates "fig3a after" after [| [| 4.0 |]; [| 2.0 |]; [| 6.0 |] |])

let test_figure3b () =
  let { Paper_nets.net; _ }, victim = Paper_nets.figure3b () in
  ignore (check_rates "fig3b before" net [| [| 6.0 |]; [| 2.0 |]; [| 6.0; 2.0 |] |]);
  let after = Network.without_receiver net victim in
  ignore (check_rates "fig3b after" after [| [| 5.0 |]; [| 4.0 |]; [| 7.0 |] |])

let test_figure4 () =
  let { Paper_nets.net; _ } = Paper_nets.figure4 () in
  let alloc = check_rates "fig4" net [| [| 2.0; 2.0; 2.0 |]; [| 2.0 |] |] in
  let report = Properties.check_all alloc in
  Alcotest.(check bool) "FP1 holds" true (report.Properties.fully_utilized_receiver = []);
  Alcotest.(check bool) "FP2 holds" true (report.Properties.same_path_receiver = []);
  Alcotest.(check bool) "FP3 fails" false (report.Properties.per_receiver_link = []);
  Alcotest.(check bool) "FP4 fails" false (report.Properties.per_session_link = [])

(* --- textbook scenarios --- *)

let test_unicast_bottleneck_sharing () =
  (* Two unicast flows over one link split it evenly. *)
  let g = Graph.create ~nodes:3 in
  ignore (Graph.add_link g 0 1 8.0);
  ignore (Graph.add_link g 1 2 8.0);
  let s () = Network.session ~sender:0 ~receivers:[| 2 |] () in
  let net = Network.make g [| s (); s () |] in
  ignore (check_rates "even split" net [| [| 4.0 |]; [| 4.0 |] |])

let test_rho_binding () =
  let g = Graph.create ~nodes:3 in
  ignore (Graph.add_link g 0 1 8.0);
  ignore (Graph.add_link g 1 2 8.0);
  let s rho = Network.session ~rho ~sender:0 ~receivers:[| 2 |] () in
  let net = Network.make g [| s 1.0; s infinity |] in
  (* S0 stops at rho=1; S1 takes the rest. *)
  ignore (check_rates "rho binding" net [| [| 1.0 |]; [| 7.0 |] |])

let test_classic_three_flow () =
  (* Bertsekas-Gallagher style: chain 0-1-2-3 with caps 2,4,4; flows:
     A: 0->3 (crosses all), B: 0->1, C: 1->3, D: 2->3.
     Water-fill: l0 (c2): A,B -> 1 each; l1 (c4): A,C -> C up to 3;
     l2 (c4): A,C,D -> D gets 4-1-3 = 0? order: t=1: l0 full (A,B=1).
     t: l1: 1 + t = 4 -> t=3; l2: 1 + t + t = 4 -> t=1.5 first: C=D=1.5.
     then l1 slack. So expected A=1, B=1, C=1.5, D=1.5. *)
  let g = Graph.create ~nodes:4 in
  ignore (Graph.add_link g 0 1 2.0);
  ignore (Graph.add_link g 1 2 4.0);
  ignore (Graph.add_link g 2 3 4.0);
  let s a b = Network.session ~sender:a ~receivers:[| b |] () in
  let net = Network.make g [| s 0 3; s 0 1; s 1 3; s 2 3 |] in
  ignore (check_rates "three-flow chain" net [| [| 1.0 |]; [| 1.0 |]; [| 1.5 |]; [| 1.5 |] |])

let test_multirate_shares_link_once () =
  (* One session, two receivers behind the same bottleneck: with
     Efficient layering the session pays max(a1,a2) once, so both can
     take the full capacity. *)
  let g = Graph.create ~nodes:4 in
  ignore (Graph.add_link g 0 1 4.0);
  ignore (Graph.add_link g 1 2 4.0);
  ignore (Graph.add_link g 1 3 2.0);
  let net = Network.make g [| Network.session ~sender:0 ~receivers:[| 2; 3 |] () |] in
  ignore (check_rates "sharing" net [| [| 4.0; 2.0 |] |])

let test_single_rate_binds_session () =
  let g = Graph.create ~nodes:4 in
  ignore (Graph.add_link g 0 1 4.0);
  ignore (Graph.add_link g 1 2 4.0);
  ignore (Graph.add_link g 1 3 2.0);
  let net =
    Network.make g
      [| Network.session ~session_type:Network.Single_rate ~sender:0 ~receivers:[| 2; 3 |] () |]
  in
  (* The slow branch caps the whole session. *)
  ignore (check_rates "single-rate bound" net [| [| 2.0; 2.0 |] |])

let test_additive_vfn_splits () =
  (* A 2-receiver "multicast" session realized as unicast connections
     (Additive) pays twice on the shared link. *)
  let g = Graph.create ~nodes:4 in
  ignore (Graph.add_link g 0 1 4.0);
  ignore (Graph.add_link g 1 2 4.0);
  ignore (Graph.add_link g 1 3 4.0);
  let net =
    Network.make g [| Network.session ~vfn:Redundancy_fn.Additive ~sender:0 ~receivers:[| 2; 3 |] () |]
  in
  ignore (check_rates "additive split" net [| [| 2.0; 2.0 |] |])

let test_trace_rounds () =
  let { Paper_nets.net; _ } = Paper_nets.figure2 ~session1_type:Network.Multi_rate () in
  let allocation, rounds = Mmfair_obs.Probe.rounds (fun () -> Allocator.max_min net) in
  Alcotest.(check bool) "at least two rounds" true (List.length rounds >= 2);
  let total_frozen =
    List.fold_left (fun acc (r : Mmfair_obs.Events.round) -> acc + List.length r.frozen) 0 rounds
  in
  Alcotest.(check int) "every receiver frozen exactly once" 4 total_frozen;
  List.iter
    (fun (r : Mmfair_obs.Events.round) ->
      Alcotest.(check bool) "increments non-negative" true (r.increment >= 0.0))
    rounds;
  Alcotest.(check bool) "result feasible" true (Allocation.is_feasible allocation)

(* With no probe sink a round allocates nothing (DESIGN §8), so a
   solve's minor allocation does not depend on how many rounds it runs:
   1,000 disjoint one-hop unicasts saturate one link per round under
   distinct capacities and all in one round under equal ones. *)
let test_rounds_allocation_free () =
  let n = 1000 in
  let net cap =
    let g = Graph.create ~nodes:(2 * n) in
    for i = 0 to n - 1 do
      ignore (Graph.add_link g (2 * i) ((2 * i) + 1) (cap i))
    done;
    Network.make g (Array.init n (fun i -> Network.session ~sender:(2 * i) ~receivers:[| (2 * i) + 1 |] ()))
  in
  let distinct = net (fun i -> 1.0 +. float_of_int i) and equal = net (fun _ -> 1.0) in
  let _, rounds = Mmfair_obs.Probe.rounds (fun () -> Allocator.max_min distinct) in
  Alcotest.(check int) "distinct capacities: one round per link" n (List.length rounds);
  let _, rounds = Mmfair_obs.Probe.rounds (fun () -> Allocator.max_min equal) in
  Alcotest.(check int) "equal capacities: one round" 1 (List.length rounds);
  let minor_words net =
    let w0 = Gc.minor_words () in
    ignore (Sys.opaque_identity (Allocator.max_min net));
    Gc.minor_words () -. w0
  in
  let many = minor_words distinct and one = minor_words equal in
  Alcotest.(check (float 0.0)) "minor words: 1,000 rounds vs 1 round" one many

(* A network without sessions solves to the empty allocation. *)
let test_zero_sessions () =
  let g = Graph.create ~nodes:2 in
  ignore (Graph.add_link g 0 1 1.0);
  match Allocator.max_min_result (Network.make g [||]) with
  | Ok a -> Alcotest.(check (float 0.0)) "no throughput" 0.0 (Allocation.total_throughput a)
  | Error e -> Alcotest.fail (Mmfair_core.Solver_error.to_string e)

let test_bottleneck_links () =
  let { Paper_nets.net; _ } = Paper_nets.figure2 ~session1_type:Network.Multi_rate () in
  let alloc = Allocator.max_min net in
  (* r1,2's bottleneck is l2 (graph id 1). *)
  Alcotest.(check (list int)) "r1,2 bottleneck" [ 1 ]
    (Allocator.bottleneck_links alloc { Network.session = 0; index = 1 })

(* --- engine agreement and generalized vfns --- *)

let test_engines_agree_on_paper_nets () =
  List.iter
    (fun net ->
      let lin = Allocator.max_min net in
      let bis = Allocator.max_min (bisection_net net) in
      Array.iter
        (fun (r : Network.receiver_id) ->
          feq ~eps:1e-6 "engine agreement" (Allocation.rate lin r) (Allocation.rate bis r))
        (Network.all_receivers net))
    [
      (Paper_nets.figure1 ()).Paper_nets.net;
      (Paper_nets.figure2 ()).Paper_nets.net;
      (Paper_nets.figure2 ~session1_type:Network.Multi_rate ()).Paper_nets.net;
      (fst (Paper_nets.figure3a ())).Paper_nets.net;
      (fst (Paper_nets.figure3b ())).Paper_nets.net;
    ]

let test_partial_ignores_distant_custom () =
  (* Two components share no link: a Custom session behind link 0-1 and
     two unicast flows on a capacity-6 link 2-3.  A partial solve of the
     flows reads only their component, so it runs the exact linear
     engine (3.0 each, bit for bit) despite the Custom session; the full
     solve runs bisection and agrees to within its tolerance. *)
  let g = Graph.create ~nodes:6 in
  ignore (Graph.add_link g 0 1 4.0);
  ignore (Graph.add_link g 2 3 6.0);
  ignore (Graph.add_link g 3 4 100.0);
  ignore (Graph.add_link g 3 5 100.0);
  let custom = Redundancy_fn.Custom ("2max", fun rs -> 2.0 *. List.fold_left Stdlib.max 0.0 rs) in
  let net =
    Network.make g
      [|
        Network.session ~vfn:custom ~sender:0 ~receivers:[| 1 |] ();
        Network.session ~sender:2 ~receivers:[| 4 |] ();
        Network.session ~sender:2 ~receivers:[| 5 |] ();
      |]
  in
  let frozen =
    Mmfair_core.Pvec.init 3 (fun i -> Array.map (fun _ -> 0.0) (Network.session_spec net i).receivers)
  in
  let partial = Allocator.max_min_partial ~sessions:[| 1; 2 |] ~frozen net in
  let full = Allocator.max_min net in
  List.iter
    (fun session ->
      let r = { Network.session; index = 0 } in
      Alcotest.(check (float 0.0)) "partial is exact" 3.0 (Allocation.rate partial r);
      feq ~eps:1e-6 "full agrees" 3.0 (Allocation.rate full r))
    [ 1; 2 ];
  feq ~eps:1e-6 "custom session" 2.0 (Allocation.rate full { Network.session = 0; index = 0 })

let test_custom_vfn_equals_scaled () =
  (* A Custom function equal to Scaled 2 must produce the same MMF
     allocation through the bisection engine. *)
  let build vfn =
    let g = Graph.create ~nodes:4 in
    ignore (Graph.add_link g 0 1 6.0);
    ignore (Graph.add_link g 1 2 6.0);
    ignore (Graph.add_link g 1 3 6.0);
    Network.make g
      [|
        Network.session ~vfn ~sender:0 ~receivers:[| 2; 3 |] ();
        Network.session ~sender:0 ~receivers:[| 2 |] ();
      |]
  in
  let scaled = Allocator.max_min (build (Redundancy_fn.Scaled 2.0)) in
  let custom =
    Allocator.max_min
      (build (Redundancy_fn.Custom ("2max", fun rs -> 2.0 *. List.fold_left Stdlib.max 0.0 rs)))
  in
  Array.iter
    (fun (r : Network.receiver_id) ->
      feq ~eps:1e-6 "custom = scaled" (Allocation.rate scaled r) (Allocation.rate custom r))
    (Network.all_receivers (Allocation.network scaled))

(* --- property-based theorem checks --- *)

let net_of_seed ?(config = Random_nets.default) seed =
  let rng = Mmfair_prng.Xoshiro.create ~seed:(Int64.of_int seed) () in
  Random_nets.generate ~rng config

let qcheck_mmf_feasible =
  QCheck.Test.make ~name:"MMF allocation is always feasible" ~count:150 QCheck.(int_range 0 100_000)
    (fun seed ->
      let net = net_of_seed seed in
      Allocation.is_feasible ~eps:1e-6 (Allocator.max_min net))

let qcheck_lemma1 =
  QCheck.Test.make ~name:"Lemma 1: feasible allocations are min-unfavorable to MMF" ~count:150
    QCheck.(int_range 0 100_000)
    (fun seed ->
      let rng = Mmfair_prng.Xoshiro.create ~seed:(Int64.of_int (seed + 1)) () in
      let net = net_of_seed seed in
      let mmf = Ordering.sort (Allocation.ordered_vector (Allocator.max_min net)) in
      let ok = ref true in
      for _ = 1 to 5 do
        let alt = Random_nets.random_feasible_allocation ~rng net in
        let v = Ordering.sort (Allocation.ordered_vector alt) in
        if not (Ordering.leq v mmf) then ok := false
      done;
      !ok)

let qcheck_theorem1 =
  QCheck.Test.make ~name:"Theorem 1: multi-rate MMF satisfies all four properties" ~count:150
    QCheck.(int_range 0 100_000)
    (fun seed ->
      let config = { Random_nets.default with Random_nets.single_rate_prob = 0.0 } in
      let net = net_of_seed ~config seed in
      Properties.holds_all ~eps:1e-6 (Allocator.max_min net))

let qcheck_theorem2c =
  QCheck.Test.make ~name:"Theorem 2(c): per-session-link-fairness holds in mixed networks"
    ~count:150
    QCheck.(int_range 0 100_000)
    (fun seed ->
      let config = { Random_nets.default with Random_nets.single_rate_prob = 0.5 } in
      let net = net_of_seed ~config seed in
      Mmfair_core.Properties.per_session_link_fair ~eps:1e-6 (Allocator.max_min net) = [])

let qcheck_theorem2_multi_sessions =
  QCheck.Test.make
    ~name:"Theorem 2(a,b): FP1 and FP3 hold for multi-rate sessions in mixed networks" ~count:150
    QCheck.(int_range 0 100_000)
    (fun seed ->
      let config = { Random_nets.default with Random_nets.single_rate_prob = 0.5 } in
      let net = net_of_seed ~config seed in
      let alloc = Allocator.max_min net in
      let fp1 = Mmfair_core.Properties.fully_utilized_receiver_fair ~eps:1e-6 alloc in
      let fp3 = Mmfair_core.Properties.per_receiver_link_fair ~eps:1e-6 alloc in
      let is_multi (i : int) = Network.session_type net i = Network.Multi_rate in
      List.for_all
        (fun (v : Mmfair_core.Properties.fully_utilized_violation) ->
          not (is_multi v.Mmfair_core.Properties.receiver.Network.session))
        fp1
      && List.for_all
           (fun (v : Mmfair_core.Properties.per_receiver_link_violation) ->
             not (is_multi v.Mmfair_core.Properties.receiver.Network.session))
           fp3)

let qcheck_lemma3 =
  QCheck.Test.make
    ~name:"Lemma 3: flipping single-rate sessions to multi-rate is ≼m-monotone" ~count:100
    QCheck.(int_range 0 100_000)
    (fun seed ->
      let config = { Random_nets.default with Random_nets.single_rate_prob = 1.0; sessions = 3 } in
      let net = net_of_seed ~config seed in
      let m = Network.session_count net in
      let vec types =
        Ordering.sort (Allocation.ordered_vector (Allocator.max_min (Network.with_session_types net types)))
      in
      let ok = ref true in
      let prev = ref (vec (Array.make m Network.Single_rate)) in
      for k = 1 to m do
        let types = Array.init m (fun i -> if i < k then Network.Multi_rate else Network.Single_rate) in
        let v = vec types in
        if not (Ordering.leq !prev v) then ok := false;
        prev := v
      done;
      !ok)

let qcheck_lemma4 =
  QCheck.Test.make ~name:"Lemma 4: higher redundancy gives a ≼m-smaller MMF allocation" ~count:100
    QCheck.(pair (int_range 0 100_000) (float_range 1.0 3.0))
    (fun (seed, v) ->
      let config = { Random_nets.default with Random_nets.single_rate_prob = 0.0 } in
      let net = net_of_seed ~config seed in
      let m = Network.session_count net in
      let base = Allocator.max_min net in
      let redundant =
        Allocator.max_min (Network.with_vfns net (Array.make m (Redundancy_fn.Scaled v)))
      in
      Ordering.leq
        (Ordering.sort (Allocation.ordered_vector redundant))
        (Ordering.sort (Allocation.ordered_vector base)))

let qcheck_lemma9 =
  QCheck.Test.make
    ~name:"Lemma 9 (TR): making one session multi-rate never lowers its receivers' rates"
    ~count:100
    QCheck.(int_range 0 100_000)
    (fun seed ->
      let config = { Random_nets.default with Random_nets.single_rate_prob = 1.0 } in
      let net = net_of_seed ~config seed in
      let m = Network.session_count net in
      let single = Allocator.max_min net in
      let ok = ref true in
      for i = 0 to m - 1 do
        let types =
          Array.init m (fun j -> if j = i then Network.Multi_rate else Network.Single_rate)
        in
        let multi = Allocator.max_min (Network.with_session_types net types) in
        Array.iter
          (fun (r : Network.receiver_id) ->
            if Allocation.rate multi r < Allocation.rate single r -. 1e-6 then ok := false)
          (Network.receivers_of_session net i)
      done;
      !ok)

let qcheck_engines_agree =
  QCheck.Test.make ~name:"linear and bisection engines agree on random networks" ~count:100
    QCheck.(int_range 0 100_000)
    (fun seed ->
      let config = { Random_nets.default with Random_nets.scaled_vfn_prob = 0.3 } in
      let net = net_of_seed ~config seed in
      let lin = Allocator.max_min net in
      let bis = Allocator.max_min (bisection_net net) in
      Array.for_all
        (fun (r : Network.receiver_id) ->
          Float.abs (Allocation.rate lin r -. Allocation.rate bis r)
          <= 1e-5 *. Stdlib.max 1.0 (Allocation.rate lin r))
        (Network.all_receivers net))

let qcheck_bottleneck_or_rho =
  QCheck.Test.make
    ~name:"every MMF receiver is bottlenecked or rho-bound (or single-rate coupled)" ~count:150
    QCheck.(int_range 0 100_000)
    (fun seed ->
      let net = net_of_seed seed in
      let alloc = Allocator.max_min net in
      Array.for_all
        (fun (r : Network.receiver_id) ->
          let i = r.Network.session in
          let rho = Network.rho net i in
          let at_rho = Float.is_finite rho && Allocation.rate alloc r >= rho -. 1e-6 in
          let bottlenecked (r' : Network.receiver_id) =
            Allocator.bottleneck_links alloc r' <> []
          in
          (* a single-rate session is pinned if ANY of its receivers is *)
          let session_pinned =
            Network.session_type net i = Network.Single_rate
            && Array.exists bottlenecked (Network.receivers_of_session net i)
          in
          at_rho || bottlenecked r || session_pinned)
        (Network.all_receivers net))

let suite =
  [
    Alcotest.test_case "figure 1 golden" `Quick test_figure1;
    Alcotest.test_case "figure 2 single-rate golden" `Quick test_figure2_single;
    Alcotest.test_case "figure 2 multi-rate golden" `Quick test_figure2_multi;
    Alcotest.test_case "figure 3a golden" `Quick test_figure3a;
    Alcotest.test_case "figure 3b golden" `Quick test_figure3b;
    Alcotest.test_case "figure 4 golden" `Quick test_figure4;
    Alcotest.test_case "unicast bottleneck sharing" `Quick test_unicast_bottleneck_sharing;
    Alcotest.test_case "rho binding" `Quick test_rho_binding;
    Alcotest.test_case "classic chain flows" `Quick test_classic_three_flow;
    Alcotest.test_case "multi-rate pays link once" `Quick test_multirate_shares_link_once;
    Alcotest.test_case "single-rate binds session" `Quick test_single_rate_binds_session;
    Alcotest.test_case "additive vfn splits" `Quick test_additive_vfn_splits;
    Alcotest.test_case "trace rounds" `Quick test_trace_rounds;
    Alcotest.test_case "bottleneck links" `Quick test_bottleneck_links;
    Alcotest.test_case "engines agree on paper nets" `Quick test_engines_agree_on_paper_nets;
    Alcotest.test_case "partial ignores distant custom" `Quick test_partial_ignores_distant_custom;
    Alcotest.test_case "custom vfn equals scaled" `Quick test_custom_vfn_equals_scaled;
    QCheck_alcotest.to_alcotest qcheck_mmf_feasible;
    QCheck_alcotest.to_alcotest qcheck_lemma1;
    QCheck_alcotest.to_alcotest qcheck_theorem1;
    QCheck_alcotest.to_alcotest qcheck_theorem2c;
    QCheck_alcotest.to_alcotest qcheck_theorem2_multi_sessions;
    QCheck_alcotest.to_alcotest qcheck_lemma3;
    QCheck_alcotest.to_alcotest qcheck_lemma4;
    QCheck_alcotest.to_alcotest qcheck_lemma9;
    QCheck_alcotest.to_alcotest qcheck_engines_agree;
    QCheck_alcotest.to_alcotest qcheck_bottleneck_or_rho;
  ]

let qcheck_certify_equals_fp1 =
  (* Certify's verdict must coincide with feasibility + FP1 on
     multi-rate efficient networks — the documented equivalence. *)
  QCheck.Test.make ~name:"Certify = feasible + FP1 on multi-rate networks" ~count:100
    QCheck.(int_range 0 100_000)
    (fun seed ->
      let config = { Random_nets.default with Random_nets.single_rate_prob = 0.0 } in
      let net = net_of_seed ~config seed in
      let rng = Mmfair_prng.Xoshiro.create ~seed:(Int64.of_int (seed + 7)) () in
      let candidates =
        Allocator.max_min net :: List.init 3 (fun _ -> Random_nets.random_feasible_allocation ~rng net)
      in
      List.for_all
        (fun alloc ->
          let certified = Mmfair_core.Certify.is_max_min ~eps:1e-6 alloc in
          let reference =
            Allocation.is_feasible ~eps:1e-6 alloc
            && Mmfair_core.Properties.fully_utilized_receiver_fair ~eps:1e-6 alloc = []
          in
          certified = reference)
        candidates)

let qcheck_weighted_unit_equals_unweighted =
  (* all-ones weights must change nothing (the weighted allocator's
     base case runs through the bisection engine). *)
  QCheck.Test.make ~name:"unit weights reproduce the unweighted allocation" ~count:75
    QCheck.(int_range 0 100_000)
    (fun seed ->
      let net = net_of_seed seed in
      let weights =
        Array.init (Network.session_count net) (fun i ->
            Array.map (fun _ -> 1.0) (Network.session_spec net i).Network.receivers)
      in
      let a = Allocator.max_min net in
      let b = Allocator.max_min (bisection_net (Network.with_weights net weights)) in
      Array.for_all
        (fun (r : Network.receiver_id) ->
          Float.abs (Allocation.rate a r -. Allocation.rate b r)
          <= 1e-5 *. Stdlib.max 1.0 (Allocation.rate a r))
        (Network.all_receivers net))

(* --- optimized hot path vs frozen reference --- *)

(* The incidence-indexed allocator must reproduce the pre-optimization
   implementation (Allocator_reference, kept verbatim from the seed)
   rate-for-rate: random networks mixing Single_rate/Multi_rate
   sessions, all three linear Redundancy_fn shapes (Efficient, Scaled,
   Additive), finite and infinite rho, for both engines, and under
   non-unit weights through the bisection engine. *)

let agree ?(eps = 1e-6) net =
  let opt = Allocator.max_min net in
  let reference = Mmfair_core.Allocator_reference.max_min net in
  Array.for_all
    (fun (r : Network.receiver_id) ->
      Float.abs (Allocation.rate opt r -. Allocation.rate reference r)
      <= eps *. Stdlib.max 1.0 (Allocation.rate reference r))
    (Network.all_receivers net)

let mixed_shape_net seed =
  let config =
    {
      Random_nets.default with
      Random_nets.single_rate_prob = 0.4;
      scaled_vfn_prob = 0.3;
      sessions = 4;
      finite_rho_prob = 0.3;
    }
  in
  let net = net_of_seed ~config seed in
  let rng = Mmfair_prng.Xoshiro.create ~seed:(Int64.of_int (seed + 31)) () in
  (* the generator emits Efficient and Scaled; sprinkle in Additive so
     all three linear shapes are exercised *)
  let vfns =
    Array.init (Network.session_count net) (fun i ->
        match Network.vfn net i with
        | Redundancy_fn.Scaled _ as v -> v
        | v -> if Mmfair_prng.Xoshiro.bernoulli rng 0.3 then Redundancy_fn.Additive else v)
  in
  (Network.with_vfns net vfns, rng)

let qcheck_optimized_equals_reference =
  QCheck.Test.make ~name:"optimized allocator equals frozen reference (both engines)" ~count:30
    QCheck.(int_range 0 100_000)
    (fun seed ->
      let net, rng = mixed_shape_net seed in
      let unit_ok = agree net && agree (bisection_net net) in
      let weights =
        Array.init (Network.session_count net) (fun i ->
            let k = Array.length (Network.session_spec net i).Network.receivers in
            if Network.session_type net i = Network.Single_rate then
              Array.make k (Mmfair_prng.Xoshiro.uniform rng 0.5 3.0)
            else Array.init k (fun _ -> Mmfair_prng.Xoshiro.uniform rng 0.5 3.0))
      in
      unit_ok && agree (Network.with_weights net weights))

let qcheck_certify_accepts_optimized =
  (* On the networks Certify covers (all multi-rate, Efficient), the
     optimized allocator's output must certify as max-min fair for
     both engines. *)
  QCheck.Test.make ~name:"Certify accepts the optimized allocator's output" ~count:30
    QCheck.(int_range 0 100_000)
    (fun seed ->
      let config = { Random_nets.default with Random_nets.single_rate_prob = 0.0 } in
      let net = net_of_seed ~config seed in
      (* Certify covers Efficient functions only, so the bisection
         engine's rates are certified on the unwrapped network. *)
      let bis = Allocator.max_min (bisection_net net) in
      Mmfair_core.Certify.is_max_min ~eps:1e-6 (Allocator.max_min net)
      && Mmfair_core.Certify.is_max_min ~eps:1e-6
           (Allocation.make net
              (Array.init (Network.session_count net) (Allocation.rates_of_session bis))))

(* --- event-driven water-filling on hub graphs --- *)

(* Power-law graphs are where almost every receiver gets its own
   level, so a solve runs hundreds of rounds through the link heap and
   the ρ cursor.  Capacities from {1, 2, 4} and ρ from a small set make
   levels tie; single-rate sessions, Scaled and Additive link-rate
   functions exercise the cascade and the slope bookkeeping. *)
let power_law_net seed =
  let rng = Mmfair_prng.Xoshiro.create ~seed:(Int64.of_int seed) () in
  let module X = Mmfair_prng.Xoshiro in
  let nodes = 64 + X.below rng 193 in
  let g = (Mmfair_topology.Builders.power_law ~rng ~nodes ~attach:2 ~cap_lo:1.0 ~cap_hi:2.0).graph in
  for l = 0 to Graph.link_count g - 1 do
    Graph.set_capacity g l [| 1.0; 2.0; 4.0 |].(X.below rng 3)
  done;
  let session receivers =
    let sender = ref (X.below rng nodes) in
    while Array.mem !sender receivers do
      sender := X.below rng nodes
    done;
    let rho = if X.bernoulli rng 0.3 then [| 0.25; 0.5; 1.0 |].(X.below rng 3) else infinity in
    let session_type = if X.bernoulli rng 0.3 then Network.Single_rate else Network.Multi_rate in
    let vfn =
      match X.below rng 5 with
      | 0 -> Redundancy_fn.Scaled 1.5
      | 1 -> Redundancy_fn.Additive
      | _ -> Redundancy_fn.Efficient
    in
    Network.session ~session_type ~rho ~vfn ~sender:!sender ~receivers ()
  in
  let unicast = Array.init nodes (fun v -> session [| v |]) in
  let multicast =
    Array.init 4 (fun _ ->
        let k = 2 + X.below rng 7 in
        let first = X.below rng (nodes - k) in
        session (Array.init k (fun j -> first + j)))
  in
  Network.make g (Array.append unicast multicast)

(* One reference solve per case: the seed implementation's bisection
   engine takes seconds on these graphs, and on linear shapes with unit
   weights its linear engine computes the same allocation. *)
let qcheck_power_law_equals_reference =
  QCheck.Test.make ~name:"power-law hub graphs: both engines equal the reference, partial = full"
    ~count:30
    QCheck.(int_range 0 100_000)
    (fun seed ->
      let net = power_law_net seed in
      let m = Network.session_count net in
      let close ~eps a b =
        Array.for_all
          (fun (r : Network.receiver_id) ->
            let x = Allocation.rate a r and y = Allocation.rate b r in
            Float.abs (x -. y) <= eps *. Stdlib.max 1.0 y)
          (Network.all_receivers net)
      in
      let reference = Mmfair_core.Allocator_reference.max_min net in
      let linear = Allocator.max_min net in
      let frozen =
        Mmfair_core.Pvec.init m (fun i -> Array.map (fun _ -> 0.0) (Network.session_spec net i).receivers)
      in
      let partial =
        Allocator.max_min_partial ~sessions:(Array.init m Fun.id) ~frozen net
      in
      close ~eps:1e-9 linear reference
      && close ~eps:1e-6 (Allocator.max_min (bisection_net net)) reference
      && close ~eps:1e-9 partial linear)

let test_near_tied_links_saturate_together () =
  (* Links 0 and 1 saturate 5e-10 apart — inside the 1e-9 tolerance —
     so they close in the same round; link 2 (5e-9 apart) does not. *)
  let g = Graph.create ~nodes:6 in
  let l0 = Graph.add_link g 0 1 1.0 in
  let l1 = Graph.add_link g 2 3 (1.0 +. 5e-10) in
  let l2 = Graph.add_link g 4 5 (1.0 +. 5e-9) in
  let s a b = Network.session ~sender:a ~receivers:[| b |] () in
  let net = Network.make g [| s 0 1; s 2 3; s 4 5 |] in
  List.iter
    (fun net ->
      match snd (Mmfair_obs.Probe.rounds (fun () -> Allocator.max_min net)) with
      | first :: _ ->
          Alcotest.(check (list int)) "round 1 saturates the near-tied pair" [ l0; l1 ]
            first.Mmfair_obs.Events.saturated_links;
          Alcotest.(check bool) "the farther link waits" false
            (List.mem l2 first.Mmfair_obs.Events.saturated_links)
      | [] -> Alcotest.fail "no rounds")
    [ net; bisection_net net ]

let test_nan_cliff_bracket_is_graph_wide () =
  (* Distilled from a fuzz case: one session behind link a (capacity
     3.6) whose Custom function returns NaN above 1.8, while link b,
     crossed by nobody, has capacity 9.55.  The bisection bracket is
     [0, max_cap + 1] clipped at rho = 9.5.  Over the whole graph that
     is rho itself, NaN usage passes the feasibility test, and the
     receiver freezes at rho — the reference's answer.  Taken over the
     crossed links only it would stop at 4.6, where the NaN stalls the
     solve. *)
  let g = Graph.create ~nodes:3 in
  ignore (Graph.add_link g 0 1 3.6);
  ignore (Graph.add_link g 1 2 9.55);
  let cliff =
    Redundancy_fn.Custom
      ("nan-cliff", fun rs -> let m = List.fold_left Float.max 0.0 rs in if m > 1.8 then Float.nan else m)
  in
  let net = Network.make g [| Network.session ~rho:9.5 ~vfn:cliff ~sender:0 ~receivers:[| 1 |] () |] in
  match (Allocator.max_min_result net, Mmfair_core.Allocator_reference.max_min_result net) with
  | Ok a, Ok b ->
      let r = { Network.session = 0; index = 0 } in
      feq "rate agrees with the reference" (Allocation.rate b r) (Allocation.rate a r)
  | Error _, Error _ -> ()
  | Ok _, Error e | Error e, Ok _ ->
      Alcotest.failf "optimized and reference disagree on validity: %s"
        (Mmfair_core.Solver_error.to_string e)

let test_nested_solves () =
  (* A probe sink that solves a second network from inside a
     [max_min_partial] round: the inner solves must not overwrite the
     outer one's arena state, and every result must equal the same
     solve run on its own. *)
  let chain caps =
    let n = List.length caps in
    let g = Graph.create ~nodes:(n + 1) in
    List.iteri (fun l c -> ignore (Graph.add_link g l (l + 1) c)) caps;
    Network.make g
      (Array.init n (fun k ->
           Network.session ~sender:0 ~receivers:(Array.init (n - k) (fun j -> k + j + 1)) ()))
  in
  let outer = chain [ 9.0; 4.0; 2.0; 1.0 ] and inner = chain [ 1.0; 5.0; 3.0 ] in
  let partial net =
    let m = Network.session_count net in
    let frozen =
      Mmfair_core.Pvec.init m (fun i ->
          Array.map (fun _ -> 0.0) (Network.session_spec net i).Network.receivers)
    in
    Allocator.max_min_partial ~sessions:(Array.init m Fun.id) ~frozen net
  in
  (* The inner solves emit rounds to the same sink: only the outer
     solve's first round solves. *)
  let fired = ref false and nested = ref None in
  let sink =
    Mmfair_obs.Sink.make
      ~on_round:(fun _ ->
        if not !fired then begin
          fired := true;
          nested := Some (Allocator.max_min inner, partial inner)
        end)
      ()
  in
  let got = Mmfair_obs.Probe.with_sink sink (fun () -> partial outer) in
  let same what a b =
    Array.iter
      (fun r -> feq what (Allocation.rate b r) (Allocation.rate a r))
      (Network.all_receivers (Allocation.network b))
  in
  same "outer partial" got (partial outer);
  match !nested with
  | None -> Alcotest.fail "the sink never ran"
  | Some (cold, warm) ->
      let alone = Allocator.max_min inner in
      same "inner max_min" cold alone;
      same "inner max_min_partial" warm alone

(* A partial solve over 100 sessions, five disjoint clusters of 20,
   every third session solved and the rest pinned at their cold rows,
   read through a frozen vector that [Pvec.update] built: chunk 1 is
   copied (it rewrites the rows of solved sessions there, which the
   solve never reads), chunks 0, 2 and 3 are the cold allocation's.  In
   cluster [k] every receiver sits at [0.25 (k + 1)] behind its trunk:
   the capacity is that level times the trunk's slope, every seventh
   session is [Scaled 2], and with these dyadic values every level,
   pinned sum and usage is exact, so each row and each carried usage
   must equal the cold solve's bit for bit. *)
let test_partial_over_chunks_bitwise () =
  let module Pvec = Mmfair_core.Pvec in
  let clusters = 5 and per = 20 and leaves = 3 in
  let m = clusters * per in
  let g = Graph.create ~nodes:(clusters * (2 + leaves)) in
  let node k j = (k * (2 + leaves)) + j in
  let vfn i = if i mod 7 = 0 then Redundancy_fn.Scaled 2.0 else Redundancy_fn.Efficient in
  for k = 0 to clusters - 1 do
    let slope = ref 0.0 in
    for i = k * per to ((k + 1) * per) - 1 do
      slope := !slope +. match vfn i with Redundancy_fn.Scaled v -> v | _ -> 1.0
    done;
    ignore (Graph.add_link g (node k 0) (node k 1) (0.25 *. float_of_int (k + 1) *. !slope));
    for j = 0 to leaves - 1 do
      ignore (Graph.add_link g (node k 1) (node k (2 + j)) 64.0)
    done
  done;
  let net =
    Network.make g
      (Array.init m (fun i ->
           let k = i / per in
           let receivers = Array.init (1 + (i mod leaves)) (fun j -> node k (2 + j)) in
           Network.session ~vfn:(vfn i) ~sender:(node k 0) ~receivers ()))
  in
  let cold = Allocator.max_min net in
  let sessions = Array.of_list (List.filter (fun i -> i mod 3 = 0) (List.init m Fun.id)) in
  let cold_rows = Allocation.unsafe_rows cold in
  let frozen =
    Pvec.update cold_rows (fun set ->
        Array.iter (fun i -> if i / 32 = 1 then set i (Array.map (fun _ -> 0.0) (Pvec.get cold_rows i))) sessions)
  in
  let bits a = Array.map Int64.bits_of_float a in
  Alcotest.(check bool) "chunk 1 copied" false (Pvec.get frozen 33 == Pvec.get cold_rows 33);
  Alcotest.(check bool) "chunk 2 shared" true (Pvec.get frozen 65 == Pvec.get cold_rows 65);
  let partial = Allocator.max_min_partial ~sessions ~frozen net in
  for i = 0 to m - 1 do
    Alcotest.(check (array int64))
      (Printf.sprintf "session %d's row" i)
      (bits (Allocation.rates_of_session cold i))
      (bits (Allocation.rates_of_session partial i))
  done;
  Alcotest.(check (float 0.0)) "cluster 4's rate" 1.25 (Allocation.rate cold { Network.session = 99; index = 0 });
  match Allocation.usage partial with
  | Allocation.Solved { links; usage } ->
      Array.iteri
        (fun k l ->
          Alcotest.(check int64)
            (Printf.sprintf "link %d's usage" l)
            (Int64.bits_of_float (Allocation.link_rate cold l))
            (Int64.bits_of_float usage.(k)))
        links
  | Allocation.No_usage | Allocation.Every_link _ -> Alcotest.fail "a partial solve carries its usages"

(* The words one cold solve allocates on the minor heap, pinned on the
   2,048-node power-law network (one unicast per node) that the
   solve-powerlaw benchmark solves.  The count is exact for one binary:
   6,782 words, mostly the 2,048 two-word result rows and the row
   vector's chunks.  It read the same before and after the typed row
   cut and the component loop replaced [Array.sub] and [Array.init]
   (the 2,048-entry component goes straight to the major heap either
   way), and again after one-receiver rows became inline literals (the
   same two words each, without the C call).  The bound leaves about
   10 % for compiler and library drift.
   A boxed float or a closure per session on the cold path (4,096
   words or more here) would cross it. *)
let test_cold_solve_minor_words () =
  let rng = Mmfair_prng.Xoshiro.create ~seed:1L () in
  let g, specs = Mmfair_workload.Standard_nets.power_law ~rng ~nodes:2048 ~attach:2 in
  let net = Network.make g specs in
  (* The first solve grows the per-domain arena. *)
  ignore (Sys.opaque_identity (Allocator.max_min net));
  let w0 = Gc.minor_words () in
  ignore (Sys.opaque_identity (Allocator.max_min net));
  let words = Gc.minor_words () -. w0 in
  let bound = 7460.0 in
  Alcotest.(check bool)
    (Printf.sprintf "%.0f minor words per cold solve <= %.0f" words bound)
    true (words <= bound)

(* Every link of [Standard_nets.full_heap] carries a receiver and every
   receiver has a finite ρ, so a cold solve fills the link heap and the
   ρ heap to their full size, and each heapify writes its [+∞] sentinel
   one slot past the last entry.  A freshly spawned domain starts with
   a fresh arena, whose key arrays are sized exactly [links + 1] and
   [receivers + 1]: one slot fewer and the checked sentinel store
   raises.  The rates must match the main domain's, bit for bit. *)
let test_full_heaps_in_fresh_arena () =
  let net = Mmfair_workload.Standard_nets.full_heap () in
  let here = Allocator.max_min net in
  let there = Domain.join (Domain.spawn (fun () -> Allocator.max_min net)) in
  let bits a = Array.map Int64.bits_of_float a in
  for i = 0 to Network.session_count net - 1 do
    Alcotest.(check (array int64))
      (Printf.sprintf "session %d's row" i)
      (bits (Allocation.rates_of_session here i))
      (bits (Allocation.rates_of_session there i))
  done

(* The per-domain arena grows only when a network is larger than every
   one it has solved, in links, sessions, receivers or cells.  One
   spawned domain (so the arena starts empty) solves a sequence in
   which each network exceeds the arena's high-water mark in exactly
   one of those dimensions, in that order, then a smaller network; each
   network's cold solve and its one-session restricted solves must
   match the same solve in a domain of its own, bit for bit.  Growing a
   dimension means using an index past the old arrays: link 3 of the
   second network is on the solved path, and the restricted solve of
   the fifth network's session 1 reads its cell 3.  A size check that
   missed a dimension would read or write past an arena array. *)
let test_arena_growth_by_dimension () =
  let net n links sessions =
    let g = Graph.create ~nodes:n in
    List.iter (fun (a, b, c) -> ignore (Graph.add_link g a b c)) links;
    Network.make g
      (Array.of_list
         (List.map
            (fun (sender, receivers, rho) -> Network.session ~rho ~sender ~receivers:(Array.of_list receivers) ())
            sessions))
  in
  let chain = [ (0, 1, 3.0); (1, 2, 2.0); (2, 3, 1.5) ] in
  let nets =
    [
      ("base: 3 links, 1 session, 2 receivers, 3 cells", net 4 chain [ (0, [ 2; 3 ], infinity) ]);
      ("links: 4", net 6 ((4, 5, 1.0) :: chain) [ (0, [ 2; 3 ], 1.25) ]);
      ("sessions: 2", net 4 chain [ (0, [ 1 ], infinity); (2, [ 3 ], 0.5) ]);
      ("receivers: 3", net 4 chain [ (0, [ 1; 2; 3 ], infinity) ]);
      ("cells: 4", net 4 chain [ (0, [ 2 ], infinity); (1, [ 3 ], 0.75) ]);
      ("smaller: 1 link", net 2 [ (0, 1, 2.0) ] [ (0, [ 1 ], infinity) ]);
    ]
  in
  let bits a = Array.map Int64.bits_of_float a in
  let rows alloc = Array.init (Network.session_count (Allocation.network alloc)) (fun i -> bits (Allocation.rates_of_session alloc i)) in
  let usage alloc =
    match Allocation.usage alloc with
    | Allocation.Solved { links; usage } -> (links, bits usage)
    | Allocation.No_usage | Allocation.Every_link _ -> ([||], [||])
  in
  let cold net = Allocator.max_min net in
  let partial net i =
    Allocator.max_min_partial ~sessions:[| i |] ~frozen:(Allocation.unsafe_rows (cold net)) net
  in
  let sessions net = List.init (Network.session_count net) Fun.id in
  let in_sequence =
    Domain.join
      (Domain.spawn (fun () ->
           List.map
             (fun (_, net) ->
               let c = cold net in
               (rows c, List.map (fun i -> let p = partial net i in (rows p, usage p)) (sessions net)))
             nets))
  in
  let fresh f = Domain.join (Domain.spawn f) in
  List.iter2
    (fun (what, net) (cold_rows, partials) ->
      Alcotest.(check (array (array int64))) (what ^ ": cold rows") (fresh (fun () -> rows (cold net))) cold_rows;
      List.iteri
        (fun i (p_rows, (p_links, p_usage)) ->
          let f_rows, (f_links, f_usage) = fresh (fun () -> let p = partial net i in (rows p, usage p)) in
          let what = Printf.sprintf "%s: session %d's restricted solve" what i in
          Alcotest.(check (array (array int64))) (what ^ ", rows") f_rows p_rows;
          Alcotest.(check (array int)) (what ^ ", links") f_links p_links;
          Alcotest.(check (array int64)) (what ^ ", usage") f_usage p_usage)
        partials)
    nets in_sequence

(* The words one one-session restricted solve allocates on the minor
   heap, pinned on [Standard_nets.churn_bench]: the result row, the
   copied spine and chunk of the row vector, the touched links and
   their usages, and the result's records and closures.  It read 166
   words before the arena's size check, the cell-maxima usage and the
   closure-free release, and 153 after.  The measured solve runs right
   after one that raised (every frozen row has the wrong length), so
   the count also shows the raise released the arena: a fresh scratch
   would grow its arrays, thousands of words here.  The bound leaves
   about 10 % for compiler and library drift. *)
let test_partial_solve_minor_words () =
  let net = Mmfair_workload.Standard_nets.churn_bench () in
  let m = Network.session_count net in
  let frozen = Allocation.unsafe_rows (Allocator.max_min net) in
  (* Grows the arena, if this domain's has not solved a network this large. *)
  ignore (Sys.opaque_identity (Allocator.max_min_partial ~sessions:[| 0 |] ~frozen net));
  let raised =
    match Allocator.max_min_partial ~sessions:[| 0 |] ~frozen:(Mmfair_core.Pvec.make m [||]) net with
    | _ -> false
    | exception Invalid_argument _ -> true
  in
  Alcotest.(check bool) "a frozen row of the wrong length raises" true raised;
  let w0 = Gc.minor_words () in
  ignore (Sys.opaque_identity (Allocator.max_min_partial ~sessions:[| 0 |] ~frozen net));
  let words = Gc.minor_words () -. w0 in
  let bound = 168.0 in
  Alcotest.(check bool)
    (Printf.sprintf "%.0f minor words per one-session restricted solve <= %.0f" words bound)
    true (words <= bound)

let suite =
  suite
  @ [
      Alcotest.test_case "near-tied links saturate in one round" `Quick
        test_near_tied_links_saturate_together;
      Alcotest.test_case "NaN-cliff bracket spans the whole graph" `Quick
        test_nan_cliff_bracket_is_graph_wide;
      Alcotest.test_case "solves nested in a probe sink" `Quick test_nested_solves;
      QCheck_alcotest.to_alcotest qcheck_power_law_equals_reference;
      QCheck_alcotest.to_alcotest qcheck_certify_equals_fp1;
      QCheck_alcotest.to_alcotest qcheck_weighted_unit_equals_unweighted;
      QCheck_alcotest.to_alcotest qcheck_optimized_equals_reference;
      QCheck_alcotest.to_alcotest qcheck_certify_accepts_optimized;
      Alcotest.test_case "rounds are allocation-free" `Quick test_rounds_allocation_free;
      Alcotest.test_case "zero sessions" `Quick test_zero_sessions;
      Alcotest.test_case "partial over chunks matches cold bitwise" `Quick
        test_partial_over_chunks_bitwise;
      Alcotest.test_case "cold solve allocates bounded minor words" `Quick test_cold_solve_minor_words;
      Alcotest.test_case "full heaps fit a fresh domain's arena" `Quick test_full_heaps_in_fresh_arena;
      Alcotest.test_case "arena grows one dimension at a time" `Quick test_arena_growth_by_dimension;
      Alcotest.test_case "restricted solve allocates bounded minor words" `Quick test_partial_solve_minor_words;
    ]
