(* Benchmark harness: one Bechamel test per reproduced table/figure,
   plus ablations for the design choices DESIGN.md calls out
   (linear vs bisection allocator engine, event-queue and PRNG
   throughput, multicast-tree delivery cost).

   Run with: dune exec bench/main.exe *)

open Bechamel
module Network = Mmfair_core.Network
module Allocator = Mmfair_core.Allocator
module Paper_nets = Mmfair_workload.Paper_nets
module E = Mmfair_experiments

(* --- figure reproductions ---------------------------------------- *)

let fig1_net = (Paper_nets.figure1 ()).Paper_nets.net
let fig2_single_net = (Paper_nets.figure2 ()).Paper_nets.net
let fig2_multi_net = (Paper_nets.figure2 ~session1_type:Network.Multi_rate ()).Paper_nets.net
let fig3a_net = (fst (Paper_nets.figure3a ())).Paper_nets.net
let fig3b_net = (fst (Paper_nets.figure3b ())).Paper_nets.net
let fig4_net = (Paper_nets.figure4 ()).Paper_nets.net

let allocate net () = ignore (Allocator.max_min net)

let test_fig1 = Test.make ~name:"fig1/allocate" (Staged.stage (allocate fig1_net))
let test_fig2_single = Test.make ~name:"fig2/single-rate" (Staged.stage (allocate fig2_single_net))
let test_fig2_multi = Test.make ~name:"fig2/multi-rate" (Staged.stage (allocate fig2_multi_net))
let test_fig3a = Test.make ~name:"fig3/removal-a" (Staged.stage (allocate fig3a_net))
let test_fig3b = Test.make ~name:"fig3/removal-b" (Staged.stage (allocate fig3b_net))

let test_fig4 =
  (* custom redundancy function -> bisection engine *)
  Test.make ~name:"fig4/redundant-allocate" (Staged.stage (allocate fig4_net))

let test_fig5 =
  Test.make ~name:"fig5/closed-form-curves"
    (Staged.stage (fun () -> ignore (E.Fig5_random_joins.run ())))

let test_fig6 =
  Test.make ~name:"fig6/fair-rate-series"
    (Staged.stage (fun () -> ignore (E.Fig6_fair_rate.run ~sessions:20 ())))

let test_fig8_point =
  Test.make ~name:"fig8/sim-point-reduced"
    (Staged.stage (fun () ->
         let cfg =
           Mmfair_protocols.Runner.config ~packets:2_000 ~warmup:200 ~seed:1L
             Mmfair_protocols.Protocol.Coordinated
         in
         ignore
           (Mmfair_protocols.Runner.run_star cfg ~receivers:10 ~shared_loss:0.0001
              ~independent_loss:0.02)))

let test_markov_small =
  Test.make ~name:"markov/uncoordinated-4-layers"
    (Staged.stage (fun () ->
         ignore
           (Mmfair_markov.Two_receiver.redundancy
              (Mmfair_markov.Two_receiver.params ~layers:4 Mmfair_protocols.Protocol.Uncoordinated))))

let test_markov_det =
  Test.make ~name:"markov/deterministic-3-layers"
    (Staged.stage (fun () ->
         ignore
           (Mmfair_markov.Two_receiver.redundancy
              (Mmfair_markov.Two_receiver.params ~layers:3 Mmfair_protocols.Protocol.Deterministic))))

let test_nonexistence =
  Test.make ~name:"section3/nonexistence-search"
    (Staged.stage (fun () -> ignore (E.Nonexistence.run ())))

let test_replacement =
  Test.make ~name:"lemma3/replacement-chain"
    (Staged.stage (fun () -> ignore (E.Replacement.run_figure2 ())))

(* --- ablations ----------------------------------------------------- *)

let net10 = Mmfair_workload.Standard_nets.ablation ~sessions:10
let net30 = Mmfair_workload.Standard_nets.ablation ~sessions:30

(* The same network with every link-rate function wrapped as [Custom]:
   the solve picks its engine from the input, and this one selects
   bisection. *)
let net10_custom =
  Network.with_vfns net10
    (Array.init (Network.session_count net10) (fun i ->
         Mmfair_core.Redundancy_fn.as_custom (Network.vfn net10 i)))

let test_linear_10 =
  Test.make ~name:"ablation/linear-engine-10-sessions"
    (Staged.stage (fun () -> ignore (Allocator.max_min net10)))

let test_bisection_10 =
  Test.make ~name:"ablation/bisection-engine-10-sessions"
    (Staged.stage (fun () -> ignore (Allocator.max_min net10_custom)))

let test_linear_30 =
  Test.make ~name:"ablation/linear-engine-30-sessions"
    (Staged.stage (fun () -> ignore (Allocator.max_min net30)))

let test_event_queue =
  Test.make ~name:"substrate/event-queue-1k-add-pop"
    (Staged.stage (fun () ->
         let q = Mmfair_sim.Event_queue.create () in
         let rng = Mmfair_prng.Xoshiro.create ~seed:7L () in
         for _ = 1 to 1_000 do
           Mmfair_sim.Event_queue.add q ~time:(Mmfair_prng.Xoshiro.float rng) ()
         done;
         while not (Mmfair_sim.Event_queue.is_empty q) do
           ignore (Mmfair_sim.Event_queue.pop q)
         done))

let test_prng =
  let rng = Mmfair_prng.Xoshiro.create ~seed:8L () in
  Test.make ~name:"substrate/xoshiro-1k-floats"
    (Staged.stage (fun () ->
         for _ = 1 to 1_000 do
           ignore (Mmfair_prng.Xoshiro.float rng)
         done))

let test_tree_deliver =
  let star =
    Mmfair_topology.Builders.modified_star ~shared_capacity:1.0 ~fanout_capacities:(Array.make 100 1.0)
  in
  let tree =
    Mmfair_sim.Mcast_tree.make star.Mmfair_topology.Builders.graph
      ~sender:star.Mmfair_topology.Builders.sender ~receivers:star.Mmfair_topology.Builders.receivers
  in
  let rng = Mmfair_prng.Xoshiro.create ~seed:9L () in
  Test.make ~name:"substrate/mcast-tree-deliver-100rcv"
    (Staged.stage (fun () ->
         ignore
           (Mmfair_sim.Mcast_tree.deliver tree
              ~subscribed:(fun _ -> true)
              ~drops:(fun _ -> Mmfair_prng.Xoshiro.bernoulli rng 0.02))))

let test_quantum_prefix =
  Test.make ~name:"quantum/prefix-schedule-100x64"
    (Staged.stage (fun () ->
         ignore
           (Mmfair_layering.Quantum.run ~strategy:Mmfair_layering.Quantum.Prefix
              ~packets_per_quantum:64 ~quanta:100 ~rates:[| 0.3; 0.5; 0.7 |] ())))

(* --- extensions ----------------------------------------------------- *)

let weighted_net =
  let g = Mmfair_topology.Graph.create ~nodes:2 in
  ignore (Mmfair_topology.Graph.add_link g 0 1 12.0);
  let specs =
    Array.init 10 (fun i ->
        let leaf = Mmfair_topology.Graph.add_node g in
        ignore (Mmfair_topology.Graph.add_link g 1 leaf 100.0);
        Network.session ~weights:[| float_of_int (i + 1) |] ~sender:0 ~receivers:[| leaf |] ())
  in
  Network.make g specs

let test_weighted =
  Test.make ~name:"extension/weighted-allocate-10-flows"
    (Staged.stage (fun () -> ignore (Allocator.max_min weighted_net)))

let multi_sender_setup =
  let chain = Mmfair_topology.Builders.chain ~capacities:(Array.make 9 4.0) in
  (chain.Mmfair_topology.Builders.graph,
   Mmfair_core.Multi_sender.spec ~senders:[| 0; 9 |]
     ~receivers:(Array.init 8 (fun i -> i + 1)) ())

let test_multi_sender =
  let g, spec = multi_sender_setup in
  Test.make ~name:"extension/multi-sender-expand-allocate"
    (Staged.stage (fun () ->
         ignore (Mmfair_core.Multi_sender.max_min (Mmfair_core.Multi_sender.expand g [| spec |]))))

let test_transient =
  Test.make ~name:"extension/markov-transient-512-slots"
    (Staged.stage (fun () ->
         let p =
           Mmfair_markov.Two_receiver.params ~layers:3 Mmfair_protocols.Protocol.Uncoordinated
         in
         ignore (Mmfair_markov.Transient.trajectory ~sample_every:64 p ~start_level:1 ~slots:512)))

let test_bootstrap =
  let xs = Array.init 30 (fun i -> float_of_int (i mod 7)) in
  Test.make ~name:"extension/bootstrap-ci-2k-resamples"
    (Staged.stage (fun () ->
         ignore
           (Mmfair_stats.Bootstrap.mean_ci
              ~rng:(Mmfair_prng.Xoshiro.create ~seed:5L ())
              xs)))

let test_single_rate_choice =
  Test.make ~name:"extension/single-rate-sweep-fig2"
    (Staged.stage (fun () -> ignore (E.Single_rate_study.run_figure2 ~grid:12 ())))

let test_multi_layer_formula =
  let scheme = Mmfair_layering.Scheme.uniform ~layers:8 ~rate:0.125 in
  let rates = Array.make 100 0.35 in
  Test.make ~name:"extension/multi-layer-redundancy-100rcv"
    (Staged.stage (fun () ->
         ignore (Mmfair_layering.Random_joins.multi_layer_redundancy ~scheme ~rates)))

let test_closed_loop_point =
  Test.make ~name:"extension/closed-loop-30s-star"
    (Staged.stage (fun () ->
         let cfg =
           Mmfair_protocols.Qrunner.config ~layers:5 ~unit_rate:8.0 ~duration:30.0 ~warmup:5.0
             ~seed:2L Mmfair_protocols.Protocol.Coordinated
         in
         ignore
           (Mmfair_protocols.Qrunner.run_star cfg ~shared_capacity:200.0
              ~fanout_capacities:[| 100.0; 30.0 |])))

let test_qlink_throughput =
  Test.make ~name:"substrate/qlink-1k-offers"
    (Staged.stage (fun () ->
         let l = Mmfair_sim.Qlink.create ~capacity:1000.0 ~delay:0.0 ~buffer:32 () in
         for i = 1 to 1_000 do
           ignore (Mmfair_sim.Qlink.offer l ~now:(float_of_int i *. 0.0011))
         done))

(* --- driver -------------------------------------------------------- *)

let tests =
  [
    test_fig1; test_fig2_single; test_fig2_multi; test_fig3a; test_fig3b; test_fig4; test_fig5;
    test_fig6; test_fig8_point; test_markov_small; test_markov_det; test_nonexistence;
    test_replacement; test_linear_10; test_bisection_10; test_linear_30; test_event_queue;
    test_prng; test_tree_deliver; test_quantum_prefix; test_weighted; test_multi_sender;
    test_transient; test_bootstrap; test_single_rate_choice; test_multi_layer_formula;
    test_closed_loop_point; test_qlink_throughput;
  ]

let pp_time fmt ns =
  if ns < 1e3 then Format.fprintf fmt "%8.1f ns" ns
  else if ns < 1e6 then Format.fprintf fmt "%8.2f us" (ns /. 1e3)
  else if ns < 1e9 then Format.fprintf fmt "%8.2f ms" (ns /. 1e6)
  else Format.fprintf fmt "%8.2f s " (ns /. 1e9)

let () =
  let grouped = Test.make_grouped ~name:"mmfair" ~fmt:"%s/%s" tests in
  let instance = Toolkit.Instance.monotonic_clock in
  let cfg = Benchmark.cfg ~limit:2_000 ~quota:(Time.second 0.5) ~kde:None () in
  let raw = Benchmark.all cfg [ instance ] grouped in
  let ols = Analyze.ols ~r_square:false ~bootstrap:0 ~predictors:[| Measure.run |] in
  let results = Analyze.all ols instance raw in
  let rows =
    Hashtbl.fold
      (fun name ols acc ->
        let ns =
          match Analyze.OLS.estimates ols with Some (x :: _) -> x | _ -> Float.nan
        in
        (name, ns) :: acc)
      results []
    |> List.sort compare
  in
  Format.printf "%-45s %12s@." "benchmark" "time/run";
  Format.printf "%s@." (String.make 60 '-');
  List.iter (fun (name, ns) -> Format.printf "%-45s %a@." name pp_time ns) rows;
  Format.printf "@.(one bench per reproduced table/figure; ablations cover the allocator engines@.";
  Format.printf " and the simulator substrates -- see DESIGN.md section 7)@."
