(* Churn bench: incremental re-solve (lib/dynamic) vs from-scratch
   Allocator.max_min, per event class, on the 100-session ablation
   topology (Standard_nets.churn_bench, reshaped from the
   Standard_nets.ablation net that BENCH_allocator.json's sweep rows
   time).

   For each class (join / leave / rho / cap) a bucket of generated
   events is timed two ways:

   - incremental: restore an engine on the pre-event allocation
     (trusted warm restore) and apply the event — surgery, fairness
     component, restricted solve;
   - scratch: the same network surgery followed by a full
     Allocator.max_min on the post-event network.

   The "batch" section times a 16-event flash-crowd join burst two
   ways on the same restored engine: applied per event (16 epochs) vs
   coalesced into one Batch.apply (a single union-component solve).

   The "parallel" section (schema v3) times one 16-join batch on a
   star-of-stars network whose 16 clusters are link-disjoint — the
   batch partitions into 16 independent fairness components — at
   --domains 1, 2, 4 and 8 on the shared domain pool.  Allocations are
   asserted bitwise identical across domain counts before any timing.

   The "serving" section (schema v4) measures the churnd daemon's
   sustained ingest throughput: a feeder domain streams a rendered
   churn trace through a real pipe into Daemon.serve_fd (kernel pipe
   buffer = genuine backpressure), the daemon coalescing each wakeup
   into one epoch under max_batch.  Recorded: events/sec end to end,
   epochs (so mean coalesced batch size is events/epochs), and the
   max observed staleness from the daemon's own monotonic gauge.

   The serving "sampler" subsection (schema v5) prices the PR-8
   time-series sampler: the same trace is served a second time with
   the sampler running at an aggressive 20 Hz cadence (20x the 1 Hz
   default — "bench scale"), and one sampler tick (GC gauges +
   registry walk + per-series append) is then timed directly against
   the fully populated registry.  The gated number is the duty cycle —
   mean tick cost over the bench cadence — which must stay <= 5%, the
   same tolerance as the disabled-probe overhead gate; the A/B
   throughput delta is recorded for the trajectory but not gated
   (single-run throughput noise on a CI box exceeds any honest
   sampler cost).

   Run:      dune exec bench/churn.exe                 (full sweep)
             dune exec bench/churn.exe -- --quick      (CI smoke)
   Validate: dune exec bench/churn.exe -- --validate BENCH_churn.json

   The JSON schema is documented in README.md ("Benchmarking").  The
   acceptance gates live in Checks.churn (bench/checks.ml), which
   --validate runs and test/test_bench_gates.ml pins: a non-quick file
   must record a median speedup >= 3x for the join and leave classes,
   a batch speedup >= 1.5x for the flash-crowd burst, a serving
   throughput of >= 1000 events/sec with max staleness <= 0.5 s, and —
   when the generating host had >= 4 CPUs ("host_cpus") — a parallel
   speedup >= 2x at 4 domains; on smaller hosts the parallel gate is
   waived with a warning, since domains cannot beat cores.  Non-quick
   files must also keep the sampler duty cycle <= 5%. *)

module Network = Mmfair_core.Network
module Allocator = Mmfair_core.Allocator
module Allocation = Mmfair_core.Allocation
module Graph = Mmfair_topology.Graph
module Builders = Mmfair_topology.Builders
module Batch = Mmfair_dynamic.Batch
module Event = Mmfair_dynamic.Event
module Churn_gen = Mmfair_workload.Churn_gen
module Flow = Mmfair_flow
module LH = Mmfair_stats.Log_histogram
module Obs = Mmfair_obs
module Json = Mmfair_obs.Json
module Descriptive = Mmfair_stats.Descriptive
module Checks = Mmfair_bench.Checks
module Timing = Mmfair_bench.Timing
module Standard_nets = Mmfair_workload.Standard_nets

(* --- workload ------------------------------------------------------- *)

(* The network is Standard_nets.churn_bench: the 100-session ablation
   net with its capacities reshaped into a last-mile bottleneck regime.
   On the raw net the binding links percolate into one backbone, every
   fairness component covers all 100 sessions, and incremental replay
   correctly degenerates to full solves (the engine's honest worst
   case, still gated by test/churn_differential.ml's random nets).  The
   reshaped net keeps saturation on access links private to one
   session, as in the paper's receiver-heterogeneity discussion, so a
   membership event's component stays a small island. *)

(* The engine's network surgery, so the scratch side pays the same
   edit cost before its full solve. *)
let surgery net event =
  let srg = Network.surgery_begin net in
  Event.apply srg event;
  Network.surgery_commit srg

(* Draw one generated trace and bucket its events by class.  Every
   event is benchmarked against the SAME base network (not the evolving
   one): each measurement is then an independent single-event epoch,
   which is what the per-class medians claim to measure.  Leaves of
   receivers the trace added earlier would not type-check against the
   base network, so buckets only keep events applicable to it. *)
let bucket_events ~per_class net =
  let rng = Mmfair_prng.Xoshiro.create ~seed:321L () in
  let trace =
    Churn_gen.generate ~rng net
      { Churn_gen.default with Churn_gen.events = 40 * per_class; max_receivers = 4 }
  in
  let applicable = function
    | Event.Join { session; node; _ } ->
        let spec = Network.session_spec net session in
        spec.Network.sender <> node && not (Array.exists (( = ) node) spec.Network.receivers)
    | Event.Leave { session; node } ->
        let spec = Network.session_spec net session in
        Array.length spec.Network.receivers > 1 && Array.exists (( = ) node) spec.Network.receivers
    | Event.Rho_change _ | Event.Capacity_change _ -> true
  in
  let buckets = Hashtbl.create 4 in
  List.iter
    (fun e ->
      let k = Event.kind e in
      let have = Option.value (Hashtbl.find_opt buckets k) ~default:[] in
      if List.length have < per_class && applicable e then Hashtbl.replace buckets k (e :: have))
    trace;
  List.map
    (fun k -> (k, List.rev (Option.value (Hashtbl.find_opt buckets k) ~default:[])))
    Checks.churn_classes

let int n = Json.Num (float_of_int n)

(* The allocation every timed reset restores: an engine's own, which
   carries every link's usage, so [Batch.create] adopts it in O(1) and
   each timed apply starts where the daemon's and [Sim.run]'s do. *)
let engine_allocation net = Batch.allocation (Batch.create net)

(* One "classes" row: medians over events of the per-event best-of
   times and of the per-event scratch/incremental speedup. *)
let measure ~min_time net base_alloc (kind, bucket) =
  let per_event =
    List.map
      (fun event ->
        let incr_ns =
          (Timing.best ~min_time (fun () ->
               let eng = Batch.create ~allocation:base_alloc net in
               Batch.apply eng [ event ])).ns
        in
        let scratch_ns =
          (Timing.best ~min_time (fun () -> Allocator.max_min (surgery net event))).ns
        in
        (* One untimed apply for the component statistics. *)
        let eng = Batch.create ~allocation:base_alloc net in
        let stats = Batch.apply eng [ event ] in
        (incr_ns, scratch_ns, stats))
      bucket
  in
  let events = List.length per_event in
  let median f = Descriptive.median (Array.of_list (List.map f per_event)) in
  let mean f = List.fold_left (fun acc e -> acc +. f e) 0.0 per_event /. float_of_int events in
  let incremental_ns = median (fun (i, _, _) -> i) in
  let scratch_ns = median (fun (_, s, _) -> s) in
  let speedup = median (fun (i, s, _) -> s /. i) in
  let mean_reuse = mean (fun (_, _, st) -> st.Batch.reuse_fraction) in
  let full_fraction = mean (fun (_, _, st) -> if st.Batch.full_solve then 1.0 else 0.0) in
  Printf.printf
    "%-6s %3d events  incremental %10.1f ns  scratch %12.1f ns  speedup %6.2fx  reuse %.2f  full %.2f\n%!"
    kind events incremental_ns scratch_ns speedup mean_reuse full_fraction;
  Json.Obj
    [ ("kind", Json.Str kind); ("events", int events);
      ("incremental_time_ns", Json.fixed 1 incremental_ns);
      ("scratch_time_ns", Json.fixed 1 scratch_ns); ("median_speedup", Json.fixed 2 speedup);
      ("mean_reuse_fraction", Json.fixed 4 mean_reuse);
      ("full_solve_fraction", Json.fixed 4 full_fraction) ]

(* --- flash-crowd batch ---------------------------------------------- *)

(* The coalescing gate: a 16-event join burst (flash crowd) applied on
   one restored engine, per event (16 epochs, 16 component solves) vs
   as a single Batch.apply (one union-component solve).  Join-only so
   the burst models the paper's flash-crowd scenario and nothing nets
   out — the speedup comes purely from coalescing the solves, not from
   cancellation. *)

let flash_crowd net =
  let rng = Mmfair_prng.Xoshiro.create ~seed:777L () in
  let burst =
    Churn_gen.generate ~rng net
      {
        Churn_gen.default with
        Churn_gen.events = 16;
        join_weight = 1.0;
        leave_weight = 0.0;
        rho_weight = 0.0;
        cap_weight = 0.0;
        max_receivers = 8;
      }
  in
  if List.length burst <> 16 then (
    Printf.eprintf "churn bench: flash-crowd burst came out at %d events, want 16\n%!"
      (List.length burst);
    exit 1);
  burst

let measure_batch ~min_time net base_alloc burst =
  let per_event_ns =
    (Timing.best ~min_time (fun () ->
         let eng = Batch.create ~allocation:base_alloc net in
         List.iter (fun ev -> ignore (Batch.apply eng [ ev ])) burst)).ns
  in
  let batched_ns =
    (Timing.best ~min_time (fun () ->
         let eng = Batch.create ~allocation:base_alloc net in
         Batch.apply eng burst)).ns
  in
  (* One untimed batched apply for the coalescing statistics. *)
  let eng = Batch.create ~allocation:base_alloc net in
  let stats = Batch.apply eng burst in
  let burst_events = List.length burst in
  let speedup = per_event_ns /. batched_ns in
  Printf.printf
    "batch  %3d events  per-event   %10.1f ns  batched %12.1f ns  speedup %6.2fx  net %d  solves %d\n%!"
    burst_events per_event_ns batched_ns speedup stats.Batch.net_events stats.Batch.solves;
  Json.Obj
    [ ("burst_events", int burst_events); ("per_event_time_ns", Json.fixed 1 per_event_ns);
      ("batched_time_ns", Json.fixed 1 batched_ns); ("speedup", Json.fixed 2 speedup);
      ("net_events", int stats.Batch.net_events); ("solves", int stats.Batch.solves);
      ("full_solve", Json.Bool stats.Batch.full_solve) ]

(* --- parallel disjoint components ----------------------------------- *)

(* Star-of-stars (Builders.star_of_stars): a root R with [clusters]
   hubs hanging off it, one tight trunk link R--hub per cluster, and
   [cluster_sessions] sessions per cluster sending from R through the
   trunk to [receivers_per_session] leaves each below the hub.  The
   trunk is the only link that can bind (leaf links are
   overprovisioned), so each cluster's sessions form one fairness
   component and no link is shared between clusters: a batch with one
   join per cluster partitions into [clusters] link-disjoint
   components, each solvable on its own domain.  One spare leaf per
   cluster (the last) hosts the joining receiver. *)

let clusters = 16
let cluster_sessions = 6
let receivers_per_session = 3
let parallel_domain_counts = [ 1; 2; 4; 8 ]

let star_of_stars () =
  let s =
    Builders.star_of_stars
      ~leaves_per_cluster:((cluster_sessions * receivers_per_session) + 1)
      ~clusters
      ~trunk_capacity:(2.5 *. float_of_int cluster_sessions)
      ~leaf_capacity:10.0 ()
  in
  let specs =
    Array.init (clusters * cluster_sessions) (fun i ->
        let c = i / cluster_sessions and k = i mod cluster_sessions in
        Network.session ~sender:s.Builders.root
          ~receivers:(Array.sub s.Builders.leaves.(c) (k * receivers_per_session) receivers_per_session)
          ())
  in
  let spares =
    List.init clusters (fun c -> s.Builders.leaves.(c).(cluster_sessions * receivers_per_session))
  in
  (Network.make s.Builders.graph specs, spares)

let rate_matrix net alloc =
  Array.init (Network.session_count net) (fun i -> Allocation.rates_of_session alloc i)

let measure_parallel ~min_time () =
  let net, spares = star_of_stars () in
  let base_alloc = engine_allocation net in
  let burst =
    List.mapi
      (fun c spare ->
        Event.Join { session = c * cluster_sessions; node = spare; weight = None })
      spares
  in
  let apply ~domains =
    let eng = Batch.create ~domains ~allocation:base_alloc net in
    let stats = Batch.apply eng burst in
    (stats, rate_matrix (Batch.network eng) (Batch.allocation eng))
  in
  (* Correctness preflight, before any timing: the batch must actually
     split into [clusters] disjoint components, and every domain count
     must land on bitwise identical allocations. *)
  let stats1, rates1 = apply ~domains:1 in
  if stats1.Batch.components <> clusters then (
    Printf.eprintf "churn bench: parallel batch produced %d components, want %d\n%!"
      stats1.Batch.components clusters;
    exit 1);
  List.iter
    (fun domains ->
      let _, rates = apply ~domains in
      if rates <> rates1 then (
        Printf.eprintf
          "churn bench: parallel batch at %d domains is not bitwise identical to 1 domain\n%!"
          domains;
        exit 1))
    (List.filter (fun d -> d > 1) parallel_domain_counts);
  let timings =
    List.map
      (fun domains ->
        ( domains,
          (Timing.best ~min_time (fun () ->
               let eng = Batch.create ~domains ~allocation:base_alloc net in
               Batch.apply eng burst)).ns ))
      parallel_domain_counts
  in
  let t1 = List.assoc 1 timings in
  let rows =
    List.map
      (fun (domains, ns) ->
        let speedup = t1 /. ns in
        Printf.printf "parallel %2d domains  batched %12.1f ns  speedup vs 1 %6.2fx\n%!" domains ns
          speedup;
        Json.Obj
          [ ("domains", int domains); ("batched_time_ns", Json.fixed 1 ns);
            ("speedup_vs_1", Json.fixed 2 speedup) ])
      timings
  in
  Json.Obj
    [ ( "topology",
        Json.Obj
          [ ("clusters", int clusters); ("sessions", int (Network.session_count net));
            ("links", int (Graph.link_count (Network.graph net))) ] );
      ("burst_events", int (List.length burst)); ("components", int stats1.Batch.components);
      ("host_cpus", int (Domain.recommended_domain_count ())); ("rows", Json.List rows) ]

(* --- serving throughput (churnd) ------------------------------------ *)

(* End-to-end daemon ingest: a feeder domain streams the rendered
   trace through a real pipe (the kernel pipe buffer provides genuine
   backpressure) into Daemon.serve_fd; the daemon coalesces each
   wakeup's arrivals into one epoch under [serving_max_batch].  The
   trace is the same evolving-membership generator the churn replay
   uses, over the same 100-session bench topology.  The cap is sized
   so throughput on the full topology is bounded by coalescing, not by
   one solve per few dozen events: a full-net solve costs ~0.1-0.2 s
   here, so small caps make events/s track solve latency instead of
   the daemon's drain loop. *)

let serving_max_batch = 512

(* The sampler's bench cadence: 20x the 1 Hz default, so the duty
   cycle measured here bounds the default-configuration overhead with
   a 20x margin. *)
let serving_sample_interval = 0.05

(* Daemon.create wants parsed names; the bench network is synthetic, so
   give it the n<i>/l<j>/s<i> names Churn_parser.render defaults to —
   the rendered trace and the daemon then agree on every name. *)
let synthetic_names net =
  let g = Network.graph net in
  {
    Mmfair_workload.Net_parser.net;
    node_names = Array.init (Graph.node_count g) (Printf.sprintf "n%d");
    link_names = Array.init (Graph.link_count g) (Printf.sprintf "l%d");
    session_names = Array.init (Network.session_count net) (Printf.sprintf "s%d");
  }

(* One full pipe-fed serving run; [sample_interval = 0.0] disables the
   sampler so the plain run stays the headline throughput. *)
let serving_run ~sample_interval net trace rendered =
  let module Daemon = Mmfair_serve.Daemon in
  let config =
    {
      Daemon.default_config with
      Daemon.max_batch = serving_max_batch;
      poll_interval = 0.005;
      sample_interval;
    }
  in
  let daemon =
    match Daemon.create ~config (synthetic_names net) with
    | Ok d -> d
    | Error e ->
        Printf.eprintf "churn bench: serving daemon: %s\n%!"
          (Mmfair_core.Solver_error.to_string e);
        exit 1
  in
  let input, wr = Unix.pipe () in
  let devnull = Unix.openfile "/dev/null" [ Unix.O_WRONLY ] 0 in
  let feeder =
    Domain.spawn (fun () ->
        let b = Bytes.of_string rendered in
        let rec go pos =
          if pos < Bytes.length b then
            match Unix.write wr b pos (Bytes.length b - pos) with
            | n -> go (pos + n)
            | exception Unix.Unix_error (Unix.EINTR, _, _) -> go pos
        in
        go 0;
        Unix.close wr)
  in
  let t0 = Obs.Clock.now_ns () in
  Daemon.serve_fd daemon ~input ~output:devnull;
  let elapsed = Obs.Clock.since_s t0 in
  Domain.join feeder;
  Unix.close input;
  Unix.close devnull;
  let reg = Daemon.registry daemon in
  let counter name = Obs.Registry.counter_value (Obs.Registry.counter reg name) in
  let ingested = counter "serve.events.ingested.total" in
  let rejected = counter "serve.events.rejected.total" in
  if ingested <> List.length trace || rejected > 0 then (
    Printf.eprintf "churn bench: serving ingested %d/%d events (%d rejected)\n%!" ingested
      (List.length trace) rejected;
    exit 1);
  (daemon, elapsed, ingested)

let measure_serving ~quick net =
  let module Daemon = Mmfair_serve.Daemon in
  let events = if quick then 500 else 5000 in
  let rng = Mmfair_prng.Xoshiro.create ~seed:555L () in
  let trace =
    Churn_gen.generate ~rng net
      { Churn_gen.default with Churn_gen.events; max_receivers = 4 }
  in
  let rendered = Mmfair_workload.Churn_parser.render trace in
  (* A/B with the bench's usual best-of discipline, plain and sampled
     runs alternating: single-run elapsed times on a loaded (or
     1-CPU) host wobble far more than any honest sampler cost, but
     the per-variant minimum converges on the uncontaminated run. *)
  let reps = if quick then 1 else 3 in
  let best = ref None in
  let sampled_elapsed = ref Float.infinity in
  let sampled_daemon = ref None in
  for _ = 1 to reps do
    let (_, e, _) as plain = serving_run ~sample_interval:0.0 net trace rendered in
    (match !best with
    | Some (_, be, _) when be <= e -> ()
    | _ -> best := Some plain);
    let sd, se, _ = serving_run ~sample_interval:serving_sample_interval net trace rendered in
    if se < !sampled_elapsed then sampled_elapsed := se;
    sampled_daemon := Some sd
  done;
  let daemon, elapsed, ingested = Option.get !best in
  let sampled_elapsed = !sampled_elapsed in
  let sampled_daemon = Option.get !sampled_daemon in
  let reg = Daemon.registry daemon in
  let counter name = Obs.Registry.counter_value (Obs.Registry.counter reg name) in
  let sampler_ticks =
    List.length (Mmfair_obs.Timeseries.points (Daemon.series sampled_daemon) "serve.epochs.total")
  in
  (* Direct tick pricing against the now fully populated registry
     (every instrument the serve path touches exists, so the walk cost
     is the steady-state one, not an empty-registry best case). *)
  let tick_cost_s =
    for _ = 1 to 3 do
      Daemon.sample sampled_daemon
    done;
    let ticks = 100 in
    let t0 = Obs.Clock.now_ns () in
    for _ = 1 to ticks do
      Daemon.sample sampled_daemon
    done;
    Obs.Clock.since_s t0 /. float_of_int ticks
  in
  let events_per_s = float_of_int ingested /. elapsed in
  let epochs = counter "serve.epochs.total" in
  let max_staleness_s =
    Obs.Registry.gauge_value (Obs.Registry.gauge reg "serve.staleness.max.seconds")
  in
  let sampled_events_per_s = float_of_int ingested /. sampled_elapsed in
  (* 1 - sampled/plain throughput: informational only. *)
  let overhead = 1.0 -. (sampled_events_per_s /. events_per_s) in
  (* Tick cost over the bench cadence: gated <= 5%. *)
  let duty = tick_cost_s /. serving_sample_interval in
  Printf.printf
    "serving %5d events in %6.3f s  %10.1f events/s  %4d epochs  max staleness %.4f s\n%!"
    ingested elapsed events_per_s epochs max_staleness_s;
  Printf.printf "serving   engine: %d batches  %d solves (%d full)  %d rounds\n%!"
    (counter "dynamic.batches.total") (counter "dynamic.solves.total")
    (counter "dynamic.full_solves.total") (counter "solver.rounds.total");
  Printf.printf
    "serving   sampler: %d ticks at %g s, %10.1f events/s sampled (overhead %+.1f%%), tick %.1f us, duty %.4f%%\n%!"
    sampler_ticks serving_sample_interval sampled_events_per_s (overhead *. 100.0)
    (tick_cost_s *. 1e6) (duty *. 100.0);
  Json.Obj
    [ ("events", int ingested); ("elapsed_s", Json.fixed 4 elapsed);
      ("events_per_s", Json.fixed 1 events_per_s); ("epochs", int epochs);
      ("max_batch", int serving_max_batch); ("max_staleness_s", Json.fixed 6 max_staleness_s);
      ( "sampler",
        Json.Obj
          [ ("interval_s", Json.Num serving_sample_interval); ("ticks", int sampler_ticks);
            ("events_per_s", Json.fixed 1 sampled_events_per_s);
            ("overhead_fraction", Json.fixed 4 overhead); ("tick_cost_s", Json.fixed 9 tick_cost_s);
            ("duty_cycle", Json.fixed 6 duty) ] ) ]

(* --- flow-level stability (mmfair_flow) ----------------------------- *)

(* Schema v6: the flow-level stochastic workload engine.  Two seeded
   runs on a star-of-stars bracket the Bramson stability boundary:
   sessions arrive Poisson, carry exponential workloads, are served at
   max-min rates and depart on completion.  The rho = 0.8 run must read
   stable and rho = 1.2 divergent — the verdicts are deterministic
   (fixed seed, virtual time), so they gate even in quick files.  The
   rho = 0.8 run's wall clock prices the fluid loop (Batch.apply
   epochs + rate refreshes) as events/s, gated only in full files like
   every other timing number. *)

let measure_stability ~quick () =
  let clusters = if quick then 4 else 8 in
  let slots = if quick then 72 else 96 in
  let trunk = if quick then 2.0 else 4.0 in
  let horizon = if quick then 60.0 else 120.0 in
  let base =
    Flow.Scenario.star_of_stars ~clusters ~trunk_capacity:trunk ~slots
      ~size:(Flow.Size.Exponential 1.0) ~rate:1.0 ()
  in
  let row load =
    let scn = Flow.Scenario.scale_to_load base ~load in
    let config = { Flow.Sim.default with Flow.Sim.horizon; seed = 42L } in
    let t0 = Obs.Clock.now_ns () in
    let r = Obs.Probe.with_sink Obs.Sink.null (fun () -> Flow.Sim.run ~config scn) in
    let elapsed = Obs.Clock.since_s t0 in
    let rep = Flow.Stability.assess r in
    let verdict = Flow.Stability.verdict_to_string rep.Flow.Stability.verdict in
    let events = r.Flow.Sim.applied_events in
    let events_per_s = float_of_int events /. elapsed in
    Printf.printf
      "stability rho=%.1f: %-9s %5d arrivals %5d departures  max pop %4d  mean %7.2f  %6d events in %6.3f s (%8.1f events/s)\n%!"
      load verdict r.Flow.Sim.arrivals r.Flow.Sim.departures r.Flow.Sim.max_population
      r.Flow.Sim.time_avg_population events elapsed events_per_s;
    Json.Obj
      [ ("load", Json.Num load); ("verdict", Json.Str verdict);
        ("arrivals", int r.Flow.Sim.arrivals); ("departures", int r.Flow.Sim.departures);
        ("blocked", int r.Flow.Sim.blocked); ("max_population", int r.Flow.Sim.max_population);
        ("time_avg_population", Json.fixed 4 r.Flow.Sim.time_avg_population);
        ("first_half_mean", Json.fixed 4 r.Flow.Sim.first_half_mean);
        ("second_half_mean", Json.fixed 4 r.Flow.Sim.second_half_mean);
        ("epochs", int r.Flow.Sim.epochs); ("events", int events);
        ("elapsed_s", Json.fixed 4 elapsed); ("events_per_s", Json.fixed 1 events_per_s);
        ("sojourn_p50", Json.Num (LH.quantile r.Flow.Sim.sojourn 0.5));
        ("sojourn_p99", Json.Num (LH.quantile r.Flow.Sim.sojourn 0.99));
        ("flow_rate_p50", Json.Num (LH.quantile r.Flow.Sim.flow_rate 0.5));
        ("flow_rate_p99", Json.Num (LH.quantile r.Flow.Sim.flow_rate 0.99)) ]
  in
  Json.Obj
    [ ( "scenario",
        Json.Obj
          [ ("clusters", int clusters); ("slots", int slots); ("trunk_capacity", Json.Num trunk) ] );
      ("workload", Json.Str "exp:1"); ("horizon", Json.Num horizon);
      ("rows", Json.List [ row 0.8; row 1.2 ]) ]

(* --- JSON document -------------------------------------------------- *)

let emit ~quick ~min_time ~out net sections =
  let topology =
    Json.Obj
      [ ("sessions", int (Network.session_count net));
        ("receivers", int (Network.receiver_count net));
        ("links", int (Graph.link_count (Network.graph net))) ]
  in
  let doc =
    Json.Obj
      ([ ("schema", Json.Str Checks.churn_schema); ("generated_by", Json.Str "bench/churn.exe");
         ("quick", Json.Bool quick); ("min_time_s", Json.Num min_time);
         ("best_of", int Timing.best_of); ("topology", topology) ]
      @ sections)
  in
  Out_channel.with_open_bin out (fun oc -> output_string oc (Json.to_string_indented doc))

(* --- driver --------------------------------------------------------- *)

let () =
  let quick = ref false in
  let out = ref "BENCH_churn.json" in
  let min_time = ref 0.0 in
  let per_class = ref 0 in
  let validate_file = ref None in
  let serving_only = ref false in
  let args =
    [
      ("--quick", Arg.Set quick, " fast smoke sweep (CI): fewer events, short timing windows");
      ("--out", Arg.Set_string out, "FILE output path (default BENCH_churn.json)");
      ("--min-time", Arg.Set_float min_time, "SECONDS per-measurement budget (default 0.25, quick 0.02)");
      ("--per-class", Arg.Set_int per_class, "N events per class (default 15, quick 4)");
      ( "--validate",
        Arg.String (fun f -> validate_file := Some f),
        "FILE validate an existing BENCH_churn.json (schema + the 3x join/leave and 1.5x batch gates) and exit" );
      ("--serving-only", Arg.Set serving_only, " run only the serving measurement and exit (tuning aid; writes nothing)");
    ]
  in
  Arg.parse (Arg.align args)
    (fun a -> raise (Arg.Bad (Printf.sprintf "unexpected argument %S" a)))
    "churn.exe: incremental vs from-scratch churn benchmark (JSON trajectory)";
  match !validate_file with
  | Some f ->
      print_endline
        (f ^ ": " ^ Checks.check_file ~failed:"BENCH_churn.json validation FAILED" Checks.churn f)
  | None when !serving_only -> ignore (measure_serving ~quick:!quick (Standard_nets.churn_bench ()))
  | None ->
      let min_time = if !min_time > 0.0 then !min_time else if !quick then 0.02 else 0.25 in
      let per_class = if !per_class > 0 then !per_class else if !quick then 4 else 15 in
      let net = Standard_nets.churn_bench () in
      let base_alloc = engine_allocation net in
      let buckets = bucket_events ~per_class net in
      List.iter
        (fun (k, evs) ->
          if evs = [] then (
            Printf.eprintf "churn bench: no applicable %S events generated\n%!" k;
            exit 1))
        buckets;
      let classes = List.map (measure ~min_time net base_alloc) buckets in
      let batch = measure_batch ~min_time net base_alloc (flash_crowd net) in
      let par = measure_parallel ~min_time () in
      (* The parallel rows leave shared pools (2/4/8 domains) parked.
         Parked workers still join every minor-GC stop-the-world
         rendezvous, which on a small host swamps the allocation-heavy
         serving loop (observed ~10x); release them before measuring. *)
      Mmfair_core.Domain_pool.shutdown_shared ();
      let serving = measure_serving ~quick:!quick net in
      let stability = measure_stability ~quick:!quick () in
      emit ~quick:!quick ~min_time ~out:!out net
        [ ("classes", Json.List classes); ("batch", batch); ("parallel", par);
          ("serving", serving); ("stability", stability) ];
      Printf.printf "wrote %s (%d classes + batch + parallel + serving + stability)\n" !out
        (List.length classes)
