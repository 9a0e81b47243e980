(* Smoke tests for printers, renderers and small validation paths not
   covered elsewhere — a release should not ship an untested pp. *)

module Graph = Mmfair_topology.Graph
module Network = Mmfair_core.Network
module Allocation = Mmfair_core.Allocation
module E = Mmfair_experiments

let render_to_string pp x =
  let buf = Buffer.create 128 in
  let fmt = Format.formatter_of_buffer buf in
  pp fmt x;
  Format.pp_print_flush fmt ();
  Buffer.contents buf

let contains hay needle =
  let lh = String.length hay and ln = String.length needle in
  let rec go i = i + ln <= lh && (String.sub hay i ln = needle || go (i + 1)) in
  ln = 0 || go 0

let test_graph_pp () =
  let g = Graph.create ~nodes:2 in
  ignore (Graph.add_link g 0 1 4.0);
  let s = render_to_string Graph.pp g in
  Alcotest.(check bool) "mentions the link" true (contains s "l0: 0 -- 1 (cap 4)")

let test_network_pp () =
  let { Mmfair_workload.Paper_nets.net; _ } = Mmfair_workload.Paper_nets.figure2 () in
  let s = render_to_string Network.pp net in
  Alcotest.(check bool) "session line present" true (contains s "S1 [S, rho=100");
  Alcotest.(check bool) "receiver path present" true (contains s "via {")

let test_allocation_pp () =
  let { Mmfair_workload.Paper_nets.net; _ } = Mmfair_workload.Paper_nets.figure2 () in
  let alloc = Mmfair_core.Allocator.max_min net in
  let s = render_to_string Allocation.pp alloc in
  Alcotest.(check bool) "rates present" true (contains s "a1,1=2");
  Alcotest.(check bool) "full links flagged" true (contains s "(full)")

let test_violation_pp () =
  let s = render_to_string Allocation.pp_violation (Allocation.Link_overutilized 3) in
  Alcotest.(check bool) "names the link" true (contains s "l3")

let test_vec_pp () =
  let s = render_to_string Mmfair_numerics.Vec.pp [| 1.0; 2.5 |] in
  Alcotest.(check string) "vector form" "[1; 2.5]" s

let test_mat_pp () =
  let m = Mmfair_numerics.Mat.identity 2 in
  let s = render_to_string Mmfair_numerics.Mat.pp m in
  Alcotest.(check bool) "rows rendered" true (contains s "|")

let test_ci_pp () =
  let ci = { Mmfair_stats.Ci.mean = 1.5; half_width = 0.25; level = 0.95; n = 30 } in
  let s = render_to_string Mmfair_stats.Ci.pp ci in
  Alcotest.(check bool) "format" true (contains s "1.5000" && contains s "n=30")

let test_scheme_pp () =
  let s = render_to_string Mmfair_layering.Scheme.pp (Mmfair_layering.Scheme.exponential ~layers:3) in
  Alcotest.(check bool) "cumulative rates listed" true (contains s "1 2 4")

let test_redundancy_fn_names () =
  Alcotest.(check string) "efficient" "efficient"
    (Mmfair_core.Redundancy_fn.name Mmfair_core.Redundancy_fn.Efficient);
  Alcotest.(check string) "additive" "additive"
    (Mmfair_core.Redundancy_fn.name Mmfair_core.Redundancy_fn.Additive)

let test_engine_schedule_at_validation () =
  let e = Mmfair_sim.Engine.create () in
  Mmfair_sim.Engine.schedule_at e ~time:5.0 ();
  Mmfair_sim.Engine.run e ~handler:(fun _ () -> Mmfair_sim.Engine.Continue);
  Alcotest.check_raises "past time rejected"
    (Invalid_argument "Engine.schedule_at: time precedes now") (fun () ->
      Mmfair_sim.Engine.schedule_at e ~time:1.0 ())

let test_layer_schedule_reset () =
  let sched =
    Mmfair_protocols.Layer_schedule.create (Mmfair_layering.Scheme.exponential ~layers:3)
  in
  let rng = Mmfair_prng.Xoshiro.create ~seed:1L () in
  let first_run = List.init 8 (fun _ -> Mmfair_protocols.Layer_schedule.next sched ~rng) in
  Mmfair_protocols.Layer_schedule.reset sched;
  let second_run = List.init 8 (fun _ -> Mmfair_protocols.Layer_schedule.next sched ~rng) in
  Alcotest.(check (list int)) "reset restarts the cycle" first_run second_run

let test_index_entries () =
  Alcotest.(check bool) "covers the paper and extensions" true (List.length E.Index.all >= 20);
  (* ids unique *)
  let ids = List.map (fun e -> e.E.Index.id) E.Index.all in
  Alcotest.(check int) "unique ids" (List.length ids) (List.length (List.sort_uniq compare ids));
  (match E.Index.find "fig8a" with
  | Some e -> Alcotest.(check bool) "command recorded" true (contains e.E.Index.command "fig8")
  | None -> Alcotest.fail "fig8a missing");
  Alcotest.(check bool) "unknown id" true (E.Index.find "nope" = None);
  let t = E.Index.to_table () in
  Alcotest.(check int) "a row per entry" (List.length E.Index.all) (List.length t.E.Table.rows)

let test_graph_to_dot_full () =
  let { Mmfair_workload.Paper_nets.net; _ } = Mmfair_workload.Paper_nets.figure1 () in
  let dot = Graph.to_dot (Network.graph net) in
  Alcotest.(check bool) "graph header" true (contains dot "graph network {");
  Alcotest.(check bool) "all four links" true (contains dot "l3")

let suite =
  [
    Alcotest.test_case "Graph.pp" `Quick test_graph_pp;
    Alcotest.test_case "Network.pp" `Quick test_network_pp;
    Alcotest.test_case "Allocation.pp" `Quick test_allocation_pp;
    Alcotest.test_case "violation pp" `Quick test_violation_pp;
    Alcotest.test_case "Vec.pp" `Quick test_vec_pp;
    Alcotest.test_case "Mat.pp" `Quick test_mat_pp;
    Alcotest.test_case "Ci.pp" `Quick test_ci_pp;
    Alcotest.test_case "Scheme.pp" `Quick test_scheme_pp;
    Alcotest.test_case "Redundancy_fn names" `Quick test_redundancy_fn_names;
    Alcotest.test_case "Engine.schedule_at validation" `Quick test_engine_schedule_at_validation;
    Alcotest.test_case "Layer_schedule.reset" `Quick test_layer_schedule_reset;
    Alcotest.test_case "experiment index" `Quick test_index_entries;
    Alcotest.test_case "Graph.to_dot" `Quick test_graph_to_dot_full;
  ]

(* a few extra validation paths *)

let test_weighted_violation_detected () =
  (* hand allocation where the slow-normalized receiver has no
     bottleneck: weighted FP1 must flag it *)
  let g = Graph.create ~nodes:3 in
  ignore (Graph.add_link g 0 1 10.0);
  ignore (Graph.add_link g 1 2 10.0);
  let s w = Network.session ~weights:[| w |] ~sender:0 ~receivers:[| 2 |] () in
  let net = Network.make g [| s 1.0; s 1.0 |] in
  let alloc = Allocation.make net [| [| 1.0 |]; [| 2.0 |] |] in
  (* nothing saturated: both receivers unjustified *)
  Alcotest.(check int) "both flagged" 2
    (List.length (Mmfair_core.Weighted.fully_utilized_weighted_fair alloc))

let test_metrics_reference_mismatch () =
  let g = Graph.create ~nodes:2 in
  ignore (Graph.add_link g 0 1 1.0);
  let net = Network.make g [| Network.session ~sender:0 ~receivers:[| 1 |] () |] in
  let alloc = Mmfair_core.Allocator.max_min net in
  Alcotest.check_raises "reference shape"
    (Invalid_argument "Metrics.satisfaction: reference length mismatch") (fun () ->
      ignore (Mmfair_core.Metrics.satisfaction ~reference:[| 1.0; 2.0 |] alloc))

let test_transient_sample_every_validation () =
  let p = Mmfair_markov.Two_receiver.params ~layers:2 Mmfair_protocols.Protocol.Uncoordinated in
  Alcotest.check_raises "sample_every >= 1"
    (Invalid_argument "Transient.trajectory: sample_every must be >= 1") (fun () ->
      ignore (Mmfair_markov.Transient.trajectory ~sample_every:0 p ~start_level:1 ~slots:10))

let test_table_cell_f_large () =
  Alcotest.(check string) "large magnitude keeps scientific form" "1e+20"
    (E.Table.cell_f 1e20)

let suite =
  suite
  @ [
      Alcotest.test_case "weighted FP1 violation detected" `Quick test_weighted_violation_detected;
      Alcotest.test_case "metrics reference mismatch" `Quick test_metrics_reference_mismatch;
      Alcotest.test_case "transient validation" `Quick test_transient_sample_every_validation;
      Alcotest.test_case "cell_f large values" `Quick test_table_cell_f_large;
    ]
