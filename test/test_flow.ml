(* Flow-level stochastic workload engine: stability physics.

   The load-bearing checks: the M/M/1-equivalent single-link scenario
   must obey Little's law, the star-of-stars must be empirically stable
   at rho = 0.8 and divergent at rho = 1.2 (the Bramson boundary), the
   departure order on the figure-2 topology is golden, and a fixed seed
   must give identical trajectories at every domain-pool size. *)

module Size = Mmfair_flow.Size
module Scenario = Mmfair_flow.Scenario
module Sim = Mmfair_flow.Sim
module Stability = Mmfair_flow.Stability
module Graph = Mmfair_topology.Graph
module LH = Mmfair_stats.Log_histogram

let check_accounting (r : Sim.result) =
  (* Every offered flow is admitted (and later departs or is still in
     system) or was blocked; nothing is lost. *)
  Alcotest.(check int)
    "arrivals = departures + blocked + in-system"
    r.Sim.arrivals
    (r.Sim.departures + r.Sim.blocked + r.Sim.final_population)

let test_mm1_littles_law () =
  let scn =
    Scenario.scale_to_load
      (Scenario.single_link ~capacity:1.0 ~slots:64 ~size:(Size.Exponential 1.0) ~rate:1.0 ())
      ~load:0.6
  in
  let config = { Sim.default with Sim.horizon = 400.0; seed = 42L } in
  let r = Sim.run ~config scn in
  check_accounting r;
  Alcotest.(check bool) "no blocking at rho=0.6" true (r.Sim.blocked = 0);
  (* Little's law: time-averaged population = completion rate x mean
     sojourn.  Path-wise the identity is exact up to the flows cut by
     the window edges, so a long run must land within a few percent. *)
  let lhs = r.Sim.time_avg_population in
  let rhs = Sim.completion_rate r *. Sim.mean_sojourn r in
  Alcotest.(check bool)
    (Printf.sprintf "Little: N=%.3f vs lambda*T=%.3f" lhs rhs)
    true
    (Float.abs (lhs -. rhs) <= 0.15 *. Float.max lhs 1e-9);
  (* M/M/1-PS closed form E[N] = rho/(1-rho) = 1.5; one finite run
     fluctuates, so only a factor-2 band is asserted. *)
  Alcotest.(check bool)
    (Printf.sprintf "E[N]=%.3f near 1.5" lhs)
    true
    (lhs > 0.75 && lhs < 3.0);
  let rep = Stability.assess r in
  Alcotest.(check string) "stable" "stable" (Stability.verdict_to_string rep.Stability.verdict)

let star ~load =
  Scenario.scale_to_load
    (Scenario.star_of_stars ~clusters:4 ~trunk_capacity:2.0 ~slots:72
       ~size:(Size.Exponential 1.0) ~rate:1.0 ())
    ~load

let test_star_stable_at_08 () =
  let config = { Sim.default with Sim.horizon = 80.0; seed = 42L } in
  let r = Sim.run ~config (star ~load:0.8) in
  check_accounting r;
  let rep = Stability.assess r in
  Alcotest.(check string) "verdict" "stable" (Stability.verdict_to_string rep.Stability.verdict);
  (* Stable means the running max stays far from the pool and the two
     half-means agree: population is tight, not drifting. *)
  Alcotest.(check bool)
    (Printf.sprintf "max population %d bounded" r.Sim.max_population)
    true (r.Sim.max_population < 100);
  Alcotest.(check bool) "no blocked arrivals" true (r.Sim.blocked = 0)

let test_star_divergent_at_12 () =
  let config = { Sim.default with Sim.horizon = 80.0; seed = 42L } in
  let r = Sim.run ~config (star ~load:1.2) in
  check_accounting r;
  let rep = Stability.assess r in
  Alcotest.(check string) "verdict" "divergent"
    (Stability.verdict_to_string rep.Stability.verdict);
  (* Overload grows the backlog linearly: the second half's time
     average must clearly dominate the first's. *)
  Alcotest.(check bool)
    (Printf.sprintf "monotone growth: m1=%.2f m2=%.2f" r.Sim.first_half_mean
       r.Sim.second_half_mean)
    true
    (r.Sim.second_half_mean > 2.0 *. r.Sim.first_half_mean);
  Alcotest.(check bool) "population piles up" true (r.Sim.max_population > 80)

let test_deterministic_across_domains () =
  let run domains =
    let config =
      { Sim.default with Sim.horizon = 40.0; seed = 7L; domains; record_departures = true }
    in
    Sim.run ~config (star ~load:0.9)
  in
  let r1 = run 1 in
  List.iter
    (fun domains ->
      let r = run domains in
      let tag what = Printf.sprintf "%s at domains=%d" what domains in
      Alcotest.(check int) (tag "arrivals") r1.Sim.arrivals r.Sim.arrivals;
      Alcotest.(check int) (tag "departures") r1.Sim.departures r.Sim.departures;
      Alcotest.(check int) (tag "epochs") r1.Sim.epochs r.Sim.epochs;
      Alcotest.(check int) (tag "max population") r1.Sim.max_population r.Sim.max_population;
      (* Allocations are bitwise identical at every pool size, so the
         whole trajectory — including float accumulators — must be. *)
      Alcotest.(check (float 0.0))
        (tag "time-avg population") r1.Sim.time_avg_population r.Sim.time_avg_population;
      Alcotest.(check bool) (tag "departure log") true
        (List.map
           (fun (d : Sim.departure) -> (d.Sim.d_time, d.Sim.d_cls, d.Sim.d_slot))
           r1.Sim.departure_log
        = List.map
            (fun (d : Sim.departure) -> (d.Sim.d_time, d.Sim.d_cls, d.Sim.d_slot))
            r.Sim.departure_log))
    [ 2; 4 ]

(* Figure 2's topology (nodes 0..4; l4: 0-1 cap 6, l1: 1-2 cap 5,
   l2: 1-3 cap 2, l3: 1-4 cap 3) carrying one deterministic flow class
   per paper receiver.  The shared l4 trunk couples the classes, the
   asymmetric leaf capacities separate their service rates, and with
   deterministic sizes the departure order is a frozen artifact of the
   max-min dynamics. *)
let figure2_scenario () =
  let g = Graph.create ~nodes:5 in
  ignore (Graph.add_link g 1 2 5.0);
  ignore (Graph.add_link g 1 3 2.0);
  ignore (Graph.add_link g 1 4 3.0);
  ignore (Graph.add_link g 0 1 6.0);
  Scenario.make ~slots:8 g
    [|
      Scenario.cls ~label:"r1" ~sender:0 ~attach:2 ~size:(Size.Deterministic 4.0) ~rate:0.25 ();
      Scenario.cls ~label:"r2" ~sender:0 ~attach:3 ~size:(Size.Deterministic 2.0) ~rate:0.25 ();
      Scenario.cls ~label:"r3" ~sender:0 ~attach:4 ~size:(Size.Deterministic 3.0) ~rate:0.25 ();
    |]

let test_figure2_departure_order_golden () =
  let config =
    { Sim.default with Sim.horizon = 30.0; seed = 1999L; record_departures = true }
  in
  let r = Sim.run ~config (figure2_scenario ()) in
  check_accounting r;
  let got = List.map (fun (d : Sim.departure) -> (d.Sim.d_cls, d.Sim.d_slot)) r.Sim.departure_log in
  (* Golden: captured from this seed and asserted verbatim — any drift
     in routing, water-filling or the fluid loop shows up here. *)
  let expected =
    [ (0, 0); (2, 0); (0, 1); (1, 0); (2, 0); (2, 1); (1, 0); (2, 1); (0, 1); (1, 0); (0, 1);
      (2, 1); (2, 1); (2, 1); (0, 1); (1, 0); (0, 1); (0, 0); (2, 1); (1, 0); (0, 0); (2, 1);
      (1, 0); (2, 1); (2, 1) ]
  in
  Alcotest.(check (list (pair int int))) "departure order" expected got

let test_nominal_load_pinning () =
  let scn = Scenario.single_link ~capacity:2.0 ~size:(Size.Deterministic 4.0) ~rate:0.3 () in
  (* One class, lambda E[W] / C = 0.3 * 4 / 2. *)
  Alcotest.(check (float 1e-12)) "single-link load" 0.6 (Scenario.offered_load scn);
  let pinned = Scenario.scale_to_load scn ~load:0.95 in
  Alcotest.(check (float 1e-9)) "pinned load" 0.95 (Scenario.offered_load pinned);
  let star = star ~load:1.1 in
  Alcotest.(check (float 1e-9)) "star pinned load" 1.1 (Scenario.offered_load star);
  (* The trunk is the bottleneck: every other link sits strictly below. *)
  let loads = Scenario.link_loads star in
  let at_max = Array.to_list loads |> List.filter (fun l -> l > 1.1 -. 1e-9) in
  Alcotest.(check int) "one bottleneck per class" (Scenario.class_count star)
    (List.length at_max)

let test_blocked_accounting () =
  let scn =
    Scenario.single_link ~capacity:1.0 ~slots:2 ~size:(Size.Deterministic 50.0) ~rate:1.0 ()
  in
  let config = { Sim.default with Sim.horizon = 30.0; seed = 5L } in
  let r = Sim.run ~config scn in
  check_accounting r;
  (* Two slots, 50-unit flows on a unit link: the pool exhausts almost
     immediately and later arrivals must be counted as blocked. *)
  Alcotest.(check bool) (Printf.sprintf "blocked=%d > 0" r.Sim.blocked) true (r.Sim.blocked > 0);
  Alcotest.(check bool) "population capped by pool" true (r.Sim.max_population <= 2)

let test_flash_crowd_pulse () =
  let scn =
    Scenario.scale_to_load
      (Scenario.single_link ~capacity:1.0 ~slots:64 ~size:(Size.Exponential 1.0) ~rate:1.0 ())
      ~load:0.5
  in
  let config =
    { Sim.default with Sim.horizon = 120.0; seed = 42L; pulses = [ (10.0, 24) ] }
  in
  let r = Sim.run ~config scn in
  check_accounting r;
  Alcotest.(check int) "pulse arrivals" 24 r.Sim.pulse_arrivals;
  Alcotest.(check bool) "pulse visible in max population" true (r.Sim.max_population >= 24);
  (* Half-loaded, the crowd drains: the run still reads stable and the
     backlog is gone by the horizon. *)
  let rep = Stability.assess r in
  Alcotest.(check string) "stable" "stable" (Stability.verdict_to_string rep.Stability.verdict);
  Alcotest.(check bool) "drained" true (r.Sim.final_population < 10)

let test_inconclusive_on_tiny_sample () =
  let scn = Scenario.single_link ~size:(Size.Exponential 1.0) ~rate:0.1 () in
  let config = { Sim.default with Sim.horizon = 1.0; seed = 42L } in
  let rep = Stability.assess (Sim.run ~config scn) in
  Alcotest.(check string) "inconclusive" "inconclusive"
    (Stability.verdict_to_string rep.Stability.verdict)

let test_arrivals_shared_process () =
  let module Churn_gen = Mmfair_workload.Churn_gen in
  let module Xoshiro = Mmfair_prng.Xoshiro in
  let mk () = Churn_gen.Arrivals.poisson ~rate:2.0 (Xoshiro.create ~seed:9L ()) in
  let a = mk () and b = mk () in
  for i = 1 to 100 do
    let peeked = Churn_gen.Arrivals.peek a in
    let popped = Churn_gen.Arrivals.pop a in
    Alcotest.(check bool) (Printf.sprintf "peek %d = pop" i) true (peeked = popped);
    Alcotest.(check bool) "same seed, same instants" true (popped = Churn_gen.Arrivals.pop b)
  done;
  (* generate_timed's event sequence is exactly the untimed trace for
     the same seed; only the timestamps consume further draws. *)
  let net = (Mmfair_workload.Paper_nets.figure2 ()).Mmfair_workload.Paper_nets.net in
  let cfg = { Churn_gen.default with Churn_gen.events = 40 } in
  let plain = Churn_gen.generate ~rng:(Xoshiro.create ~seed:21L ()) net cfg in
  let timed = Churn_gen.generate_timed ~rng:(Xoshiro.create ~seed:21L ()) net cfg ~rate:50.0 in
  Alcotest.(check bool) "same events" true (List.map snd timed = plain);
  let rec ascending = function
    | (t1, _) :: ((t2, _) :: _ as rest) -> t1 < t2 && ascending rest
    | _ -> true
  in
  Alcotest.(check bool) "instants strictly ascend" true (ascending timed);
  Alcotest.(check bool) "instants positive" true
    (match timed with (t, _) :: _ -> t > 0.0 | [] -> false)

let test_size_parsing_and_means () =
  List.iter
    (fun s ->
      Alcotest.(check string) ("round-trip " ^ s) s (Size.to_string (Size.of_string s)))
    [ "det:4"; "exp:1.5"; "pareto:1.5,0.1,100" ];
  (* Bounded-Pareto closed form at alpha=2, lo=1, hi=4:
     2 * (1 - 1/4) / (1 - 1/16) = 1.6. *)
  Alcotest.(check (float 1e-12)) "pareto mean" 1.6
    (Size.mean (Size.Pareto_bounded { alpha = 2.0; lo = 1.0; hi = 4.0 }));
  Alcotest.(check (float 1e-12)) "det mean" 4.0 (Size.mean (Size.of_string "det:4"));
  Alcotest.(check (float 1e-12)) "exp mean" 1.5 (Size.mean (Size.of_string "exp:1.5"));
  List.iter
    (fun s ->
      match Size.of_string s with
      | (_ : Size.t) -> Alcotest.failf "%S: expected Invalid_argument" s
      | exception Invalid_argument _ -> ())
    [ "exp"; "gauss:1"; "pareto:1.5,5,1"; "det:-2"; "exp:nope"; "pareto:1.5,0.1" ];
  (* Sampled mean matches the closed form the load calculator uses. *)
  let rng = Mmfair_prng.Xoshiro.create ~seed:3L () in
  let dist = Size.Pareto_bounded { alpha = 1.2; lo = 0.5; hi = 200.0 } in
  let n = 200_000 in
  let sum = ref 0.0 in
  for _ = 1 to n do
    sum := !sum +. Size.sample rng dist
  done;
  let mean = !sum /. float_of_int n in
  Alcotest.(check bool)
    (Printf.sprintf "sampled %.3f vs closed form %.3f" mean (Size.mean dist))
    true
    (Float.abs (mean -. Size.mean dist) < 0.1 *. Size.mean dist)

(* The whole trajectory of one seeded run on a star of stars, pinned
   bit for bit: counts, the float bits of the time-average population,
   and a digest of the departure log (each entry's time bits, class and
   slot, in log order).  Any change to the event order, the slot free
   lists, the drain arithmetic or the allocations shows up here. *)
let test_star_trajectory_golden () =
  let scn =
    Scenario.scale_to_load
      (Scenario.star_of_stars ~clusters:8 ~slots:32 ~size:(Size.Exponential 1.0) ~rate:1.0 ())
      ~load:0.8
  in
  let config = { Sim.default with Sim.horizon = 40.0; seed = 7L; record_departures = true } in
  let r = Sim.run ~config scn in
  let log =
    String.concat ""
      (List.map
         (fun (d : Sim.departure) ->
           Printf.sprintf "%Lx %d %d\n" (Int64.bits_of_float d.Sim.d_time) d.Sim.d_cls d.Sim.d_slot)
         r.Sim.departure_log)
  in
  Alcotest.(check int) "epochs" 2123 r.Sim.epochs;
  Alcotest.(check int) "arrivals" 1074 r.Sim.arrivals;
  Alcotest.(check int) "departures" 1051 r.Sim.departures;
  Alcotest.(check int) "blocked" 2 r.Sim.blocked;
  Alcotest.(check int64)
    "time-avg population bits" 4631735825557151708L
    (Int64.bits_of_float r.Sim.time_avg_population);
  Alcotest.(check int) "departure log length" 1051 (List.length r.Sim.departure_log);
  Alcotest.(check string)
    "departure log digest" "3c7b754298bd05869069d6f42125ceca"
    (Digest.to_hex (Digest.string log))

(* The same run, watched epoch by epoch: no epoch takes a second
   solve.  An arrival re-solves its trunk's live flows and itself, a
   departure the remaining live flows or, when it was the cluster's
   last, the parked slot alone; neither leaves a binding link the
   boundary scan must absorb. *)
let test_star_epochs_solve_once () =
  let scn =
    Scenario.scale_to_load
      (Scenario.star_of_stars ~clusters:8 ~slots:32 ~size:(Size.Exponential 1.0) ~rate:1.0 ())
      ~load:0.8
  in
  let config = { Sim.default with Sim.horizon = 40.0; seed = 7L } in
  let epochs = ref 0 and multi = ref 0 in
  let sink =
    Mmfair_obs.Sink.make
      ~on_epoch:(fun ev ->
        incr epochs;
        if ev.Mmfair_obs.Events.solves > 1 then incr multi)
      ()
  in
  let r = Mmfair_obs.Probe.with_sink sink (fun () -> Sim.run ~config scn) in
  Alcotest.(check int) "every epoch observed" r.Sim.epochs !epochs;
  Alcotest.(check int) "epochs with more than one solve" 0 !multi

(* A too-small series capacity is a config error: [Sim.run] must
   reject it up front, under its own name, not after the initial solve
   from inside [Timeseries.create]. *)
let test_series_capacity_validated () =
  let scn = Scenario.single_link ~size:(Size.Exponential 1.0) ~rate:0.5 () in
  List.iter
    (fun series_capacity ->
      Alcotest.check_raises
        (Printf.sprintf "series_capacity %d" series_capacity)
        (Invalid_argument "Sim.run: series_capacity must be >= 2")
        (fun () -> ignore (Sim.run ~config:{ Sim.default with Sim.series_capacity } scn)))
    [ 1; 0; -3 ]

(* The refresh's cancellation edge.  One slot, unit sizes at unit
   capacity, a negligible Poisson stream and a pulse at the exact
   instant the first flow completes: the departure parks the slot and
   the pulse's arrival takes it back in the same epoch, so the two ρ
   writes net out and the slot's row is not re-solved.  The second
   flow must still run at the rate the slot holds, and finish one
   time unit later. *)
let test_cancelled_slot_keeps_its_rate () =
  let scn = Scenario.single_link ~slots:1 ~size:(Size.Deterministic 1.0) ~rate:1e-9 () in
  let config =
    {
      Sim.default with
      Sim.horizon = 3.5;
      seed = 3L;
      pulses = [ (0.0, 1); (1.0, 1) ];
      record_departures = true;
    }
  in
  let epochs = ref [] in
  let sink = Mmfair_obs.Sink.make ~on_epoch:(fun ev -> epochs := ev :: !epochs) () in
  let r = Mmfair_obs.Probe.with_sink sink (fun () -> Sim.run ~config scn) in
  check_accounting r;
  (match List.rev !epochs with
  | [ _; swap; _ ] ->
      Alcotest.(check int) "the swap's two writes" 2 swap.Mmfair_obs.Events.events;
      Alcotest.(check int) "the swap nets out" 0 swap.Mmfair_obs.Events.net_events;
      Alcotest.(check int) "nothing re-solved" 0 swap.Mmfair_obs.Events.solves
  | evs -> Alcotest.failf "%d epoch events, expected 3" (List.length evs));
  Alcotest.(check int) "arrivals" 2 r.Sim.arrivals;
  Alcotest.(check int) "blocked" 0 r.Sim.blocked;
  Alcotest.(check (list (pair (float 0.0) (float 0.0))))
    "departures (time, sojourn)"
    [ (1.0, 1.0); (2.0, 1.0) ]
    (List.map (fun (d : Sim.departure) -> (d.Sim.d_time, d.Sim.d_sojourn)) r.Sim.departure_log);
  Alcotest.(check int) "epochs" 3 r.Sim.epochs

let suite =
  [
    Alcotest.test_case "M/M/1 single link obeys Little's law" `Quick test_mm1_littles_law;
    Alcotest.test_case "star-of-stars stable at rho=0.8" `Quick test_star_stable_at_08;
    Alcotest.test_case "star-of-stars divergent at rho=1.2" `Quick test_star_divergent_at_12;
    Alcotest.test_case "fixed seed identical across domains 1/2/4" `Quick
      test_deterministic_across_domains;
    Alcotest.test_case "figure-2 departure order golden" `Quick
      test_figure2_departure_order_golden;
    Alcotest.test_case "star-of-stars trajectory golden" `Quick test_star_trajectory_golden;
    Alcotest.test_case "star-of-stars epochs solve once" `Quick test_star_epochs_solve_once;
    Alcotest.test_case "nominal load pinning" `Quick test_nominal_load_pinning;
    Alcotest.test_case "slot exhaustion counts blocked arrivals" `Quick test_blocked_accounting;
    Alcotest.test_case "flash-crowd pulse injects and drains" `Quick test_flash_crowd_pulse;
    Alcotest.test_case "inconclusive on tiny sample" `Quick test_inconclusive_on_tiny_sample;
    Alcotest.test_case "arrival process is shared and seeded" `Quick test_arrivals_shared_process;
    Alcotest.test_case "size distributions parse and integrate" `Quick
      test_size_parsing_and_means;
    Alcotest.test_case "series_capacity is validated up front" `Quick
      test_series_capacity_validated;
    Alcotest.test_case "a cancelled slot keeps its rate" `Quick test_cancelled_slot_keeps_its_rate;
  ]
