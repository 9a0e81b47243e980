type entry = {
  id : string;
  paper_ref : string;
  description : string;
  command : string;
  run : seed:int64 -> Table.t list;
}

let entry id paper_ref description command run = { id; paper_ref; description; command; run }

module Network = Mmfair_core.Network

let fig8 shared_loss ~seed =
  [ Fig8_protocols.to_table ~shared_loss (Fig8_protocols.run ~shared_loss ~seed ()) ]

let all =
  [
    entry "fig1" "Figure 1" "multi-rate max-min fair example; all four properties hold" "mmfair fig1"
      (fun ~seed:_ -> [ (Fig_examples.run_figure1 ()).Fig_examples.table ]);
    entry "fig2" "Figure 2" "single-rate max-min allocation fails FP1-FP3" "mmfair fig2"
      (fun ~seed:_ ->
        [ (Fig_examples.run_figure2 ~session1_type:Network.Single_rate ()).Fig_examples.table ]);
    entry "fig2m" "Figure 2" "the same network, multi-rate: all four properties hold" "mmfair fig2 --multi"
      (fun ~seed:_ ->
        [ (Fig_examples.run_figure2 ~session1_type:Network.Multi_rate ()).Fig_examples.table ]);
    entry "fig3" "Figure 3" "receiver removal moves other fair rates both ways" "mmfair fig3"
      (fun ~seed:_ ->
        let a = Fig_examples.run_figure3a () in
        [ a.Fig_examples.table; (Fig_examples.run_figure3b ()).Fig_examples.table ]);
    entry "fig4" "Figure 4" "redundancy 2 breaks per-session/per-receiver-link fairness" "mmfair fig4"
      (fun ~seed:_ -> [ (Fig_examples.run_figure4 ()).Fig_examples.table ]);
    entry "nonexist" "Section 3" "fixed layers admit no max-min fair allocation" "mmfair nonexist"
      (fun ~seed:_ -> [ (Nonexistence.run ()).Nonexistence.table ]);
    entry "fig5" "Figure 5" "single-layer redundancy under random joins (Appendix B)" "mmfair fig5"
      (fun ~seed -> [ Fig5_random_joins.to_table (Fig5_random_joins.run ~seed ()) ]);
    entry "fig6" "Figure 6" "normalized fair rate vs redundancy, closed form = allocator" "mmfair fig6"
      (fun ~seed:_ -> [ Fig6_fair_rate.to_table (Fig6_fair_rate.run ()) ]);
    entry "markov" "Figure 7(a)" "exact 2-receiver chains; equal loss maximizes redundancy" "mmfair markov"
      (fun ~seed:_ -> List.map Markov_redundancy.to_table (Markov_redundancy.run ~shared_loss:0.0001 ()));
    entry "fig8a" "Figure 8(a)" "protocol redundancy vs independent loss, shared loss 1e-4"
      "mmfair fig8 --shared 0.0001 --scale paper"
      (fig8 0.0001);
    entry "fig8b" "Figure 8(b)" "protocol redundancy vs independent loss, shared loss 0.05"
      "mmfair fig8 --shared 0.05 --scale paper"
      (fig8 0.05);
    entry "replace" "Lemma 3" "single-rate -> multi-rate replacement chains are ≼m-monotone"
      "mmfair replace"
      (fun ~seed:_ -> [ (Replacement.run_figure2 ()).Replacement.table ]);
    entry "claims" "Section 4" "side claims: receiver-count saturation; equal loss is worst"
      "mmfair claims"
      (fun ~seed ->
        let scaling = Scaling_claims.receiver_scaling ~seed ~packets:20_000 ~independent_loss:0.03 () in
        [ Scaling_claims.scaling_table scaling;
          Scaling_claims.hetero_table
            (Scaling_claims.heterogeneous_loss ~seed ~receivers:60 ~packets:20_000 ~mean_loss:0.03 ()) ]);
    entry "ext-latency" "Section 5" "leave latency increases redundancy" "mmfair latency"
      (fun ~seed ->
        [ Extensions.latency_table (Extensions.leave_latency ~seed ~independent_loss:0.03 ()) ]);
    entry "ext-priority" "Section 5" "priority dropping reduces redundancy" "mmfair priority"
      (fun ~seed ->
        [ Extensions.priority_table (Extensions.priority_dropping ~seed ~independent_loss:0.03 ()) ]);
    entry "ext-layers" "TR App. E" "more layers reduce random-join redundancy" "mmfair layers"
      (fun ~seed:_ ->
        [ Extensions.layers_table ~receivers:50 ~rate:0.35
            (Extensions.layers_vs_redundancy ~receivers:50 ~rate:0.35 ()) ]);
    entry "ext-tcpfair" "Section 5" "weighted (1/RTT) max-min fairness" "mmfair tcpfair"
      (fun ~seed:_ -> [ (Extensions.tcp_fairness ~rtts:[| 0.01; 0.02; 0.05; 0.1 |] ()).Extensions.table ]);
    entry "ext-churn" "Section 5" "fair rates under session arrivals/departures" "mmfair session-churn"
      (fun ~seed -> [ (Extensions.churn ~seed ~sessions:4 ()).Extensions.table ]);
    entry "ext-convergence" "Section 4" "ramp time from layer 1: transient chains vs simulation"
      "mmfair convergence"
      (fun ~seed -> [ Convergence.to_table (Convergence.run ~seed ()) ]);
    entry "ext-single-rate" "Related [6]" "inter-receiver-fair single-rate choice" "mmfair single-rate"
      (fun ~seed:_ -> [ (Single_rate_study.run_figure2 ()).Single_rate_study.table ]);
    entry "ext-closed-loop" "Overall claim" "protocols reach the allocator's fair rates on real queues"
      "mmfair closed-loop"
      (fun ~seed:_ -> List.map (fun o -> o.Closed_loop.table) (Closed_loop.run ()));
    entry "ext-ecn" "Section 4 / RFC 2481" "ECN marking vs drop-tail congestion signalling" "mmfair ecn"
      (fun ~seed -> [ Ecn_study.to_table (Ecn_study.run ~seed ()) ]);
    entry "ext-compete" "Section 3" "two sessions, one bottleneck: nonexistence live" "mmfair compete"
      (fun ~seed -> [ Competition.to_table (Competition.run ~seed ()) ]);
    entry "ext-tcpfriendly" "Section 5" "layered multicast vs an AIMD (TCP-like) flow" "mmfair tcpfriendly"
      (fun ~seed -> [ Tcp_friendly.to_table (Tcp_friendly.run ~seed ()) ]);
    entry "ext-membership" "Section 5" "IGMP leave timeouts vs redundancy (emergent latency)" "mmfair membership"
      (fun ~seed -> [ Membership_study.to_table (Membership_study.run ~seed ~duration:90.0 ()) ]);
  ]

let to_table () =
  Table.make ~title:"Experiment index (see DESIGN.md and EXPERIMENTS.md)"
    ~columns:[ "id"; "paper"; "what"; "command" ]
    (List.map (fun e -> [ e.id; e.paper_ref; e.description; e.command ]) all)

let find id = List.find_opt (fun e -> e.id = id) all
