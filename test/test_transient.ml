(* Tests for transient Markov analysis, bootstrap CIs, metrics, and
   the convergence experiment. *)

module Two_receiver = Mmfair_markov.Two_receiver
module Transient = Mmfair_markov.Transient
module Protocol = Mmfair_protocols.Protocol
module Bootstrap = Mmfair_stats.Bootstrap
module Ci = Mmfair_stats.Ci
module Metrics = Mmfair_core.Metrics
module Network = Mmfair_core.Network
module Allocation = Mmfair_core.Allocation
module Allocator = Mmfair_core.Allocator
module Graph = Mmfair_topology.Graph
module Vec = Mmfair_numerics.Vec
module E = Mmfair_experiments

let feq ?(eps = 1e-9) what a b =
  Alcotest.(check bool) (Printf.sprintf "%s: %g vs %g" what a b) true (Float.abs (a -. b) <= eps)

(* --- transient --- *)

let test_start_distribution () =
  List.iter
    (fun kind ->
      let p = Two_receiver.params ~layers:3 kind in
      let pi = Transient.start_at_level p 2 in
      feq "mass 1" 1.0 (Vec.sum pi);
      let s = ref (-1) in
      Array.iteri (fun i x -> if x = 1.0 then s := i) pi;
      let l1, l2 = Two_receiver.levels_of_state p !s in
      Alcotest.(check (pair int int)) "both at level 2" (2, 2) (l1, l2))
    Protocol.all_kinds

let test_distribution_preserves_mass () =
  let p = Two_receiver.params ~layers:3 ~shared_loss:0.01 ~loss1:0.02 ~loss2:0.03 Protocol.Deterministic in
  let m = Two_receiver.transition_matrix p in
  let pi = Transient.distribution_after m ~start:(Transient.start_at_level p 1) ~steps:100 in
  feq ~eps:1e-9 "mass preserved" 1.0 (Vec.sum pi);
  Array.iter (fun x -> Alcotest.(check bool) "non-negative" true (x >= -1e-12)) pi

let test_trajectory_converges_to_stationary () =
  List.iter
    (fun kind ->
      let p = Two_receiver.params ~layers:3 ~shared_loss:0.001 ~loss1:0.02 ~loss2:0.02 kind in
      let analysis = Two_receiver.analyze p in
      let steady = fst analysis.Two_receiver.mean_levels in
      let tr = Transient.trajectory ~sample_every:64 p ~start_level:1 ~slots:8192 in
      let last = tr.Transient.mean_level.(Array.length tr.Transient.mean_level - 1) in
      Alcotest.(check bool)
        (Printf.sprintf "%s: trajectory end %.3f ~ stationary %.3f" (Protocol.kind_name kind) last steady)
        true
        (Float.abs (last -. steady) < 0.02))
    Protocol.all_kinds

let test_trajectory_monotone_climb () =
  (* from level 1 with tiny loss the mean level climbs (near-)monotonically *)
  let p = Two_receiver.params ~layers:4 ~shared_loss:0.0001 ~loss1:0.001 ~loss2:0.001 Protocol.Uncoordinated in
  let tr = Transient.trajectory ~sample_every:32 p ~start_level:1 ~slots:2048 in
  let ok = ref true in
  for i = 1 to Array.length tr.Transient.mean_level - 1 do
    if tr.Transient.mean_level.(i) < tr.Transient.mean_level.(i - 1) -. 0.02 then ok := false
  done;
  Alcotest.(check bool) "climbing" true !ok;
  feq "starts at 1" 1.0 tr.Transient.mean_level.(0)

let test_slots_to_reach () =
  let p = Two_receiver.params ~layers:4 ~shared_loss:0.0001 ~loss1:0.01 ~loss2:0.01 Protocol.Coordinated in
  (match Transient.slots_to_reach p ~start_level:1 ~target_mean_level:2.0 ~max_slots:4096 with
  | Some s -> Alcotest.(check bool) "positive finite" true (s >= 0 && s <= 4096)
  | None -> Alcotest.fail "should reach level 2");
  (* unreachable target *)
  Alcotest.(check bool) "unreachable" true
    (Transient.slots_to_reach p ~start_level:1 ~target_mean_level:10.0 ~max_slots:256 = None)

let test_trajectory_validation () =
  let p = Two_receiver.params ~layers:3 Protocol.Uncoordinated in
  Alcotest.check_raises "bad level" (Invalid_argument "Transient.start_at_level: level out of range")
    (fun () -> ignore (Transient.start_at_level p 9))

(* --- bootstrap --- *)

let test_bootstrap_agrees_with_t () =
  let rng = Mmfair_prng.Xoshiro.create ~seed:61L () in
  let xs =
    Array.init 40 (fun _ ->
        let s = ref 0.0 in
        for _ = 1 to 12 do
          s := !s +. Mmfair_prng.Xoshiro.float rng
        done;
        !s -. 6.0 +. 5.0)
  in
  let t_ci = Ci.of_samples xs in
  let b_ci = Bootstrap.mean_ci ~rng xs in
  feq ~eps:1e-12 "same point estimate" t_ci.Ci.mean b_ci.Ci.mean;
  Alcotest.(check bool)
    (Printf.sprintf "half widths comparable (%.3f vs %.3f)" t_ci.Ci.half_width b_ci.Ci.half_width)
    true
    (Float.abs (t_ci.Ci.half_width -. b_ci.Ci.half_width) < 0.5 *. t_ci.Ci.half_width)

let test_bootstrap_validation () =
  let rng = Mmfair_prng.Xoshiro.create ~seed:63L () in
  Alcotest.check_raises "too few samples" (Invalid_argument "Bootstrap: need at least two samples")
    (fun () -> ignore (Bootstrap.mean_ci ~rng [| 1.0 |]))

let test_bootstrap_deterministic () =
  let xs = Array.init 30 (fun i -> float_of_int i) in
  let a = Bootstrap.mean_ci ~rng:(Mmfair_prng.Xoshiro.create ~seed:64L ()) xs in
  let b = Bootstrap.mean_ci ~rng:(Mmfair_prng.Xoshiro.create ~seed:64L ()) xs in
  feq "same seed same interval" a.Ci.half_width b.Ci.half_width

(* --- metrics --- *)

let two_flow_net () =
  let g = Graph.create ~nodes:3 in
  ignore (Graph.add_link g 0 1 8.0);
  ignore (Graph.add_link g 1 2 8.0);
  let s () = Network.session ~sender:0 ~receivers:[| 2 |] () in
  Network.make g [| s (); s () |]

let test_jain_index () =
  let net = two_flow_net () in
  feq "equal rates -> 1" 1.0 (Metrics.jain_index (Allocation.make net [| [| 3.0 |]; [| 3.0 |] |]));
  (* one starved flow: (a+0)^2 / (2(a^2)) = 0.5 *)
  feq "starved -> 0.5" 0.5 (Metrics.jain_index (Allocation.make net [| [| 4.0 |]; [| 0.0 |] |]));
  feq "all zero -> 1" 1.0 (Metrics.jain_index (Allocation.zero net))

let test_min_rate_throughput () =
  let net = two_flow_net () in
  let a = Allocation.make net [| [| 3.0 |]; [| 5.0 |] |] in
  feq "min" 3.0 (Metrics.min_rate a);
  feq "throughput" 8.0 (Metrics.throughput a)

let test_isolated_rates () =
  let net = two_flow_net () in
  let iso = Metrics.isolated_rates net in
  (* alone, each flow gets the whole 8 *)
  Alcotest.(check (array (float 1e-9))) "isolated" [| 8.0; 8.0 |] iso

let test_satisfaction () =
  let net = two_flow_net () in
  let mmf = Allocator.max_min net in
  (* each gets 4 of its isolated 8 -> satisfaction 0.5 *)
  feq "MMF satisfaction" 0.5 (Metrics.satisfaction mmf);
  feq "explicit reference" 1.0 (Metrics.satisfaction ~reference:[| 4.0; 4.0 |] mmf)

let test_summary_keys () =
  let net = two_flow_net () in
  let s = Metrics.summary (Allocator.max_min net) in
  Alcotest.(check (list string)) "keys" [ "jain"; "min-rate"; "throughput"; "satisfaction" ]
    (List.map fst s)

(* --- convergence experiment --- *)

let test_convergence_rows () =
  let rows = E.Convergence.run ~layers:3 ~horizon:2048 () in
  Alcotest.(check int) "three protocols" 3 (List.length rows);
  List.iter
    (fun r ->
      Alcotest.(check bool) "steady level sane" true
        (r.E.Convergence.steady_mean_level > 1.0 && r.E.Convergence.steady_mean_level <= 3.0);
      (match (r.E.Convergence.markov_slots, r.E.Convergence.sim_slots) with
      | Some m, Some s ->
          (* the two substrates agree on the timescale *)
          Alcotest.(check bool)
            (Printf.sprintf "%s: markov %d vs sim %d same ballpark"
               (Protocol.kind_name r.E.Convergence.kind) m s)
            true
            (float_of_int (abs (m - s)) <= 0.75 *. float_of_int (Stdlib.max m s) +. 32.0)
      | _ -> Alcotest.fail "convergence not reached in horizon");
      Alcotest.(check bool) "redundancy >= 1" true (r.E.Convergence.steady_redundancy >= 1.0))
    rows

let test_observer_sees_every_slot () =
  let star = Mmfair_topology.Builders.modified_star ~shared_capacity:1e9 ~fanout_capacities:[| 1e9; 1e9 |] in
  let count = ref 0 and last = ref (-1) in
  let observer ~slot ~levels =
    incr count;
    last := slot;
    Alcotest.(check int) "level array size" 2 (Array.length levels)
  in
  let cfg = Mmfair_protocols.Runner.config ~packets:500 ~warmup:0 Protocol.Coordinated in
  ignore
    (Mmfair_protocols.Runner.run_tree ~observer cfg ~graph:star.Mmfair_topology.Builders.graph
       ~sender:star.Mmfair_topology.Builders.sender
       ~receivers:star.Mmfair_topology.Builders.receivers
       ~loss_rate:(fun _ -> 0.01)
       ~measured_link:star.Mmfair_topology.Builders.shared);
  Alcotest.(check int) "called once per slot" 500 !count;
  Alcotest.(check int) "last slot" 499 !last

let suite =
  [
    Alcotest.test_case "transient start distribution" `Quick test_start_distribution;
    Alcotest.test_case "transient preserves mass" `Quick test_distribution_preserves_mass;
    Alcotest.test_case "trajectory converges to stationary" `Slow test_trajectory_converges_to_stationary;
    Alcotest.test_case "trajectory climbs" `Quick test_trajectory_monotone_climb;
    Alcotest.test_case "slots to reach" `Quick test_slots_to_reach;
    Alcotest.test_case "transient validation" `Quick test_trajectory_validation;
    Alcotest.test_case "bootstrap agrees with t" `Quick test_bootstrap_agrees_with_t;
    Alcotest.test_case "bootstrap validation" `Quick test_bootstrap_validation;
    Alcotest.test_case "bootstrap deterministic" `Quick test_bootstrap_deterministic;
    Alcotest.test_case "jain index" `Quick test_jain_index;
    Alcotest.test_case "min rate / throughput" `Quick test_min_rate_throughput;
    Alcotest.test_case "isolated rates" `Quick test_isolated_rates;
    Alcotest.test_case "satisfaction" `Quick test_satisfaction;
    Alcotest.test_case "summary keys" `Quick test_summary_keys;
    Alcotest.test_case "convergence rows" `Slow test_convergence_rows;
    Alcotest.test_case "observer sees every slot" `Quick test_observer_sees_every_slot;
  ]
