(* Benchmark harness: one timed row per reproduced figure or table that
   bench/scaling.exe does not already track, plus the simulator
   substrates and the extensions.  Each row is a [(name, thunk)] pair
   timed with Timing.best, the same sample scaling.exe and churn.exe
   commit; the allocator rows (fig1-fig4 and the engine ablations) live
   only in scaling.exe and BENCH_allocator.json.

   Run with: dune exec bench/main.exe *)

module Network = Mmfair_core.Network
module Allocator = Mmfair_core.Allocator
module Timing = Mmfair_bench.Timing
module E = Mmfair_experiments

let row name f = (name, fun () -> ignore (f ()))

(* --- figure reproductions ---------------------------------------- *)

let figures =
  [
    row "fig5/closed-form-curves" (fun () -> E.Fig5_random_joins.run ());
    row "fig6/fair-rate-series" (fun () -> E.Fig6_fair_rate.run ~sessions:20 ());
    row "fig8/sim-point-reduced" (fun () ->
        let cfg =
          Mmfair_protocols.Runner.config ~packets:2_000 ~warmup:200 ~seed:1L
            Mmfair_protocols.Protocol.Coordinated
        in
        Mmfair_protocols.Runner.run_star cfg ~receivers:10 ~shared_loss:0.0001
          ~independent_loss:0.02);
    row "markov/uncoordinated-4-layers" (fun () ->
        Mmfair_markov.Two_receiver.redundancy
          (Mmfair_markov.Two_receiver.params ~layers:4 Mmfair_protocols.Protocol.Uncoordinated));
    row "markov/deterministic-3-layers" (fun () ->
        Mmfair_markov.Two_receiver.redundancy
          (Mmfair_markov.Two_receiver.params ~layers:3 Mmfair_protocols.Protocol.Deterministic));
    row "section3/nonexistence-search" (fun () -> E.Nonexistence.run ());
    row "lemma3/replacement-chain" (fun () -> E.Replacement.run_figure2 ());
  ]

(* --- substrates ---------------------------------------------------- *)

let substrates =
  let prng_rng = Mmfair_prng.Xoshiro.create ~seed:8L () in
  let star =
    Mmfair_topology.Builders.modified_star ~shared_capacity:1.0 ~fanout_capacities:(Array.make 100 1.0)
  in
  let tree =
    Mmfair_sim.Mcast_tree.make star.Mmfair_topology.Builders.graph
      ~sender:star.Mmfair_topology.Builders.sender ~receivers:star.Mmfair_topology.Builders.receivers
  in
  let drop_rng = Mmfair_prng.Xoshiro.create ~seed:9L () in
  [
    row "substrate/event-queue-1k-add-pop" (fun () ->
        let q = Mmfair_sim.Event_queue.create () in
        let rng = Mmfair_prng.Xoshiro.create ~seed:7L () in
        for _ = 1 to 1_000 do
          Mmfair_sim.Event_queue.add q ~time:(Mmfair_prng.Xoshiro.float rng) ()
        done;
        while not (Mmfair_sim.Event_queue.is_empty q) do
          ignore (Mmfair_sim.Event_queue.pop q)
        done);
    row "substrate/xoshiro-1k-floats" (fun () ->
        for _ = 1 to 1_000 do
          ignore (Mmfair_prng.Xoshiro.float prng_rng)
        done);
    row "substrate/mcast-tree-deliver-100rcv" (fun () ->
        Mmfair_sim.Mcast_tree.deliver tree
          ~subscribed:(fun _ -> true)
          ~drops:(fun _ -> Mmfair_prng.Xoshiro.bernoulli drop_rng 0.02));
    row "quantum/prefix-schedule-100x64" (fun () ->
        Mmfair_layering.Quantum.run ~strategy:Mmfair_layering.Quantum.Prefix ~packets_per_quantum:64
          ~quanta:100 ~rates:[| 0.3; 0.5; 0.7 |] ());
    row "substrate/qlink-1k-offers" (fun () ->
        let l = Mmfair_sim.Qlink.create ~capacity:1000.0 ~delay:0.0 ~buffer:32 () in
        for i = 1 to 1_000 do
          ignore (Mmfair_sim.Qlink.offer l ~now:(float_of_int i *. 0.0011))
        done);
  ]

(* --- extensions ----------------------------------------------------- *)

let extensions =
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
  in
  let chain = Mmfair_topology.Builders.chain ~capacities:(Array.make 9 4.0) in
  let multi_sender_spec =
    Mmfair_core.Multi_sender.spec ~senders:[| 0; 9 |] ~receivers:(Array.init 8 (fun i -> i + 1)) ()
  in
  let bootstrap_xs = Array.init 30 (fun i -> float_of_int (i mod 7)) in
  let scheme = Mmfair_layering.Scheme.uniform ~layers:8 ~rate:0.125 in
  let rates = Array.make 100 0.35 in
  [
    row "extension/weighted-allocate-10-flows" (fun () -> Allocator.max_min weighted_net);
    row "extension/multi-sender-expand-allocate" (fun () ->
        Mmfair_core.Multi_sender.max_min
          (Mmfair_core.Multi_sender.expand chain.Mmfair_topology.Builders.graph
             [| multi_sender_spec |]));
    row "extension/markov-transient-512-slots" (fun () ->
        let p =
          Mmfair_markov.Two_receiver.params ~layers:3 Mmfair_protocols.Protocol.Uncoordinated
        in
        Mmfair_markov.Transient.trajectory ~sample_every:64 p ~start_level:1 ~slots:512);
    row "extension/bootstrap-ci-2k-resamples" (fun () ->
        Mmfair_stats.Bootstrap.mean_ci ~rng:(Mmfair_prng.Xoshiro.create ~seed:5L ()) bootstrap_xs);
    row "extension/single-rate-sweep-fig2" (fun () -> E.Single_rate_study.run_figure2 ~grid:12 ());
    row "extension/multi-layer-redundancy-100rcv" (fun () ->
        Mmfair_layering.Random_joins.multi_layer_redundancy ~scheme ~rates);
    row "extension/closed-loop-30s-star" (fun () ->
        let cfg =
          Mmfair_protocols.Qrunner.config ~layers:5 ~unit_rate:8.0 ~duration:30.0 ~warmup:5.0
            ~seed:2L Mmfair_protocols.Protocol.Coordinated
        in
        Mmfair_protocols.Qrunner.run_star cfg ~shared_capacity:200.0
          ~fanout_capacities:[| 100.0; 30.0 |]);
  ]

(* --- driver -------------------------------------------------------- *)

let min_time = 0.2

let pp_time fmt ns =
  if ns < 1e3 then Format.fprintf fmt "%8.1f ns" ns
  else if ns < 1e6 then Format.fprintf fmt "%8.2f us" (ns /. 1e3)
  else if ns < 1e9 then Format.fprintf fmt "%8.2f ms" (ns /. 1e6)
  else Format.fprintf fmt "%8.2f s " (ns /. 1e9)

let () =
  Format.printf "%-45s %12s %12s@." "benchmark" "best" "median";
  Format.printf "%s@." (String.make 71 '-');
  List.iter
    (fun (name, f) ->
      let t = Timing.best ~min_time f in
      Format.printf "%-45s %a %a@." name pp_time t.Timing.ns pp_time
        (Mmfair_stats.Descriptive.median (Array.of_list t.Timing.samples_ns)))
    (figures @ substrates @ extensions);
  Format.printf "@.(best and median of %d samples of at least %.1f s each; the allocator rows@."
    Timing.best_of min_time;
  Format.printf " are bench/scaling.exe's -- see DESIGN.md section 7)@."
