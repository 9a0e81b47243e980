(* Allocator scaling bench: sweeps random networks across session
   counts for both engines, re-times the paper-figure nets, and emits
   a machine-readable BENCH_allocator.json so the perf trajectory is
   tracked across PRs.  Every entry also times the frozen
   pre-optimization oracle (Allocator_reference) so the file carries
   its own before/after evidence.

   Run:      dune exec bench/scaling.exe                 (full sweep)
             dune exec bench/scaling.exe -- --quick      (CI smoke)
   Validate: dune exec bench/scaling.exe -- --validate BENCH_allocator.json

   The JSON schema is documented in README.md ("Benchmarking"); the
   checker --validate runs is Checks.allocator (bench/checks.ml). *)

module Network = Mmfair_core.Network
module Allocator = Mmfair_core.Allocator
module Allocator_reference = Mmfair_core.Allocator_reference
module Paper_nets = Mmfair_workload.Paper_nets
module Standard_nets = Mmfair_workload.Standard_nets
module Graph = Mmfair_topology.Graph
module Builders = Mmfair_topology.Builders
module Batch = Mmfair_dynamic.Batch
module Event = Mmfair_dynamic.Event
module Obs = Mmfair_obs
module Json = Mmfair_obs.Json
module Checks = Mmfair_bench.Checks
module Timing = Mmfair_bench.Timing

(* --- rounds -------------------------------------------------------- *)

(* Timed regions run probe-free (Timing.best), so a separate untimed
   run counts water-filling rounds through the probe stream. *)
let count_rounds f = List.length (snd (Obs.Probe.rounds (fun () -> ignore (f ()))))

(* --- scaling curves (v3) ------------------------------------------- *)

(* Internet-scale curves over generated topologies: for each size,
   time network construction, a cold full solve, and steady-state
   single-event churn through the batch engine, and audit peak live
   heap words at each measurement mark.  The committed full run takes
   the fat-tree family to ~10⁵ sessions; the fitted log-log exponent
   of the per-event cost against the session count is the headline
   number (sub-linear = the churn path scales). *)

(* Live heap audit: a full major collection makes [live_words] exact,
   so regressions in resident data structures gate like time
   regressions instead of hiding behind GC slack. *)
let live_words () =
  Gc.full_major ();
  (Gc.quick_stat ()).Gc.live_words

type curve_point = {
  p_label : string;
  p_sessions : int;
  p_links : int;
  p_receivers : int;
  build_ns : float;
  solve_ns : float;
  event_ns : float;
  peak_live_words : int;
}

type curve_workload = {
  w_label : string;
  w_graph : Graph.t;
  w_specs : Network.session_spec array;
  (* (session, extra receiver node) pairs: churn is a join of the
     extra node followed by the leave that restores the membership, so
     every timed pass starts from the same steady state. *)
  w_toggles : (int * Graph.node) list;
}

let n_toggle = 64

(* Fat-tree population (Standard_nets.fat_tree): fairness components
   stay cluster-sized however large the tree grows, and sender-major
   order lets [Network.make]'s per-sender routing cache do one BFS per
   host.  Each toggle joins a sibling distinct from both the sender and
   the current receiver; k ≥ 6 guarantees one exists. *)
let fat_tree_workload ~k ~per_host =
  let t, specs = Standard_nets.fat_tree ~k ~per_host in
  let half = k / 2 in
  let hosts = t.Builders.hosts in
  let total = Array.length specs in
  let toggles =
    List.init n_toggle (fun i ->
        let s = i * total / n_toggle in
        let spec = specs.(s) in
        let base = s / per_host / half * half in
        let r2 = ref base in
        while hosts.(!r2) = spec.Network.sender || hosts.(!r2) = spec.Network.receivers.(0) do
          incr r2
        done;
        (s, hosts.(!r2)))
  in
  { w_label = Printf.sprintf "k=%d" k; w_graph = t.Builders.graph; w_specs = specs;
    w_toggles = toggles }

(* Power-law population (Standard_nets.power_law, fixed seed): hubs
   concentrate sharing, so churn components are large and the curve
   shows what preferential attachment costs the incremental path
   relative to the fat tree's clustered sessions.  Each toggle joins
   the sender's first neighbor other than its receiver. *)
let power_law_workload ~nodes =
  let rng = Mmfair_prng.Xoshiro.create ~seed:20260809L () in
  let g, specs = Standard_nets.power_law ~rng ~nodes ~attach:2 in
  let toggles =
    List.filter_map
      (fun i ->
        let v = i * nodes / n_toggle in
        let u1 = specs.(v).Network.receivers.(0) in
        match List.find_opt (fun (u, _) -> u <> u1) (Graph.neighbors g v) with
        | Some (u2, _) -> Some (v, u2)
        | None -> None)
      (List.init n_toggle Fun.id)
  in
  { w_label = Printf.sprintf "n=%d" nodes; w_graph = g; w_specs = specs; w_toggles = toggles }

let measure_point ~min_time w =
  let mem = ref 0 in
  let note_mem x =
    mem := Stdlib.max !mem (live_words ());
    x
  in
  let t0 = Obs.Clock.now_ns () in
  let net = Network.make w.w_graph w.w_specs in
  let build_ns = Obs.Clock.since_s t0 *. 1e9 in
  ignore (note_mem ());
  let last_alloc = ref None in
  let solve_t =
    Timing.best ~min_time (fun () ->
        let a = Allocator.max_min net in
        last_alloc := Some a;
        a)
  in
  ignore (note_mem ());
  let batch = Batch.create ?allocation:!last_alloc net in
  (* Churn under coalesced ingest (the serving daemon's operating
     mode): one batch joins an extra receiver into [n_toggle] spread
     sessions, the next batch leaves them all, restoring the exact
     starting membership so every timed pass sees the same state.
     Per-event cost is the batch cost amortized over its events —
     which is the point: the O(sessions) incidence rebuild is paid
     once per batch, so the per-event curve tracks the component-local
     solve work. *)
  let joins =
    List.map (fun (s, node) -> Event.Join { session = s; node; weight = None }) w.w_toggles
  in
  let leaves = List.map (fun (s, node) -> Event.Leave { session = s; node }) w.w_toggles in
  let churn () =
    ignore (Batch.apply batch joins);
    ignore (Batch.apply batch leaves)
  in
  let churn_t = Timing.best ~min_time churn in
  ignore (note_mem ());
  let events_per_run = 2 * List.length w.w_toggles in
  let p =
    {
      p_label = w.w_label;
      p_sessions = Network.session_count net;
      p_links = Graph.link_count w.w_graph;
      p_receivers = Network.receiver_count net;
      build_ns;
      solve_ns = solve_t.ns;
      event_ns = churn_t.ns /. float_of_int events_per_run;
      peak_live_words = !mem;
    }
  in
  Printf.printf "curve %-10s %8d sessions  build %12.1f ns  solve %12.1f ns  event %10.1f ns  %9d live words\n%!"
    p.p_label p.p_sessions p.build_ns p.solve_ns p.event_ns p.peak_live_words;
  p

(* Least-squares slope of log(cost) against log(sessions): the
   curve's fitted scaling exponent. *)
let fit_exponent points get =
  match points with
  | [] | [ _ ] -> 0.0
  | _ ->
      let n = float_of_int (List.length points) in
      let sx, sy, sxx, sxy =
        List.fold_left
          (fun (sx, sy, sxx, sxy) p ->
            let x = log (float_of_int p.p_sessions) and y = log (get p) in
            (sx +. x, sy +. y, sxx +. (x *. x), sxy +. (x *. y)))
          (0.0, 0.0, 0.0, 0.0) points
      in
      ((n *. sxy) -. (sx *. sy)) /. ((n *. sxx) -. (sx *. sx))

let int n = Json.Num (float_of_int n)

(* One "curves" element: the fitted exponents, then the points. *)
let curve name points =
  let point pt =
    Json.Obj
      [ ("label", Json.Str pt.p_label); ("sessions", int pt.p_sessions);
        ("links", int pt.p_links); ("receivers", int pt.p_receivers);
        ("build_ns", Json.fixed 1 pt.build_ns); ("solve_ns", Json.fixed 1 pt.solve_ns);
        ("event_ns", Json.fixed 1 pt.event_ns); ("peak_live_words", int pt.peak_live_words) ]
  in
  Json.Obj
    [ ("name", Json.Str name);
      ("build_exponent", Json.fixed 3 (fit_exponent points (fun p -> p.build_ns)));
      ("solve_exponent", Json.fixed 3 (fit_exponent points (fun p -> p.solve_ns)));
      ("event_exponent", Json.fixed 3 (fit_exponent points (fun p -> p.event_ns)));
      ("points", Json.List (List.map point points)) ]

let fat_tree_per_host = 9

let measure_curves ~quick ~min_time =
  (* Full mode tops out at k=36 × 9 sessions/host = 104,976 sessions;
     quick stays under 10⁴ for the CI smoke. *)
  let fat_ks = if quick then [ 6; 10; 14 ] else [ 8; 16; 24; 36 ] in
  let pl_nodes = if quick then [ 256; 1024 ] else [ 512; 2048; 8192 ] in
  [
    curve "fat-tree"
      (List.map
         (fun k -> measure_point ~min_time (fat_tree_workload ~k ~per_host:fat_tree_per_host))
         fat_ks);
    curve "power-law"
      (List.map (fun nodes -> measure_point ~min_time (power_law_workload ~nodes)) pl_nodes);
  ]

type entry = {
  name : string;
  kind : string; (* "figure" | "ablation" | "sweep" *)
  engine : string; (* "auto" | "linear" | "bisection": the engine the input selects *)
  net : Network.t;
  run : unit -> Mmfair_core.Allocation.t;
  reference : (unit -> Mmfair_core.Allocation.t) option;
}

(* The solve picks its engine from the input, so a "bisection" entry
   times the same network with every link-rate function wrapped as
   [Custom]; "linear" and "auto" entries time it as given. *)
let entry ~kind ~name ~engine net =
  let net =
    if engine = "bisection" then
      Network.with_vfns net
        (Array.init (Network.session_count net) (fun i ->
             Mmfair_core.Redundancy_fn.as_custom (Network.vfn net i)))
    else net
  in
  {
    name;
    kind;
    engine;
    net;
    run = (fun () -> Allocator.max_min net);
    reference = Some (fun () -> Allocator_reference.max_min net);
  }

let entries ~quick =
  let figures =
    [
      entry ~kind:"figure" ~name:"fig1/allocate" ~engine:"auto" (Paper_nets.figure1 ()).Paper_nets.net;
      entry ~kind:"figure" ~name:"fig2/single-rate" ~engine:"auto"
        (Paper_nets.figure2 ()).Paper_nets.net;
      entry ~kind:"figure" ~name:"fig2/multi-rate" ~engine:"auto"
        (Paper_nets.figure2 ~session1_type:Network.Multi_rate ()).Paper_nets.net;
      entry ~kind:"figure" ~name:"fig3/removal-a" ~engine:"auto"
        (fst (Paper_nets.figure3a ())).Paper_nets.net;
      entry ~kind:"figure" ~name:"fig3/removal-b" ~engine:"auto"
        (fst (Paper_nets.figure3b ())).Paper_nets.net;
      entry ~kind:"figure" ~name:"fig4/redundant-allocate" ~engine:"auto"
        (Paper_nets.figure4 ()).Paper_nets.net;
    ]
  in
  let ablations =
    [
      entry ~kind:"ablation" ~name:"ablation/linear-engine-10-sessions" ~engine:"linear"
        (Standard_nets.ablation ~sessions:10);
      entry ~kind:"ablation" ~name:"ablation/bisection-engine-10-sessions" ~engine:"bisection"
        (Standard_nets.ablation ~sessions:10);
      entry ~kind:"ablation" ~name:"ablation/linear-engine-30-sessions" ~engine:"linear"
        (Standard_nets.ablation ~sessions:30);
      entry ~kind:"ablation" ~name:"ablation/bisection-engine-30-sessions" ~engine:"bisection"
        (Standard_nets.ablation ~sessions:30);
    ]
  in
  let sweep_sizes engine = if quick then [ 10 ] else match engine with
    | "linear" -> [ 20; 50; 100; 200 ]
    | _ -> [ 20; 50; 100 ]
  in
  let sweep =
    List.concat_map
      (fun engine ->
        List.map
          (fun sessions ->
            let e =
              entry ~kind:"sweep"
                ~name:(Printf.sprintf "sweep/%s-engine-%d-sessions" engine sessions)
                ~engine (Standard_nets.ablation ~sessions)
            in
            (* The frozen oracle is quadratic-ish; cap its runs to the
               sizes where a single run stays sub-second. *)
            if sessions > 100 || (engine = "bisection" && sessions > 50) then
              { e with reference = None }
            else e)
          (sweep_sizes engine))
      [ "linear"; "bisection" ]
  in
  figures @ ablations @ sweep

(* --- JSON emission ------------------------------------------------- *)

let emit ~quick ~min_time ~phases ~out ~curves rows =
  let entry (e, (timing : Timing.best), ref_timing, rounds, live) =
    let reference =
      match ref_timing with
      | Some (r : Timing.best) -> [ int r.runs; Json.fixed 1 r.ns; Json.fixed 2 (r.ns /. timing.ns) ]
      | None -> [ Json.Null; Json.Null; Json.Null ]
    in
    Json.Obj
      ([ ("name", Json.Str e.name); ("kind", Json.Str e.kind); ("engine", Json.Str e.engine);
         ("sessions", int (Network.session_count e.net));
         ("receivers", int (Network.receiver_count e.net));
         ("links", int (Graph.link_count (Network.graph e.net))); ("rounds", int rounds);
         ("runs", int timing.runs); ("peak_live_words", int live);
         ("time_ns", Json.fixed 1 timing.ns);
         ("samples_ns", Json.List (List.map (Json.fixed 1) timing.samples_ns)) ]
      @ List.combine [ "reference_runs"; "reference_time_ns"; "speedup_vs_reference" ] reference)
  in
  let doc =
    Json.Obj
      [ ("schema", Json.Str Checks.allocator_schema);
        ("generated_by", Json.Str "bench/scaling.exe"); ("quick", Json.Bool quick);
        ("min_time_s", Json.Num min_time); ("best_of", int Timing.best_of);
        ("phases", Json.Obj (List.map (fun (name, s) -> (name, Json.fixed 6 s)) phases));
        ("curves", Json.List curves);
        ("entries", Json.List (List.map entry rows)) ]
  in
  Out_channel.with_open_bin out (fun oc -> output_string oc (Json.to_string_indented doc))

(* --- disabled-probe overhead gate (CI) ------------------------------ *)

(* Re-times the linear-100 sweep workload (probes off — Timing.best
   installs the null sink) and compares against the committed
   baseline's entry.  Fails when the fresh best-of run is more than
   [tolerance] slower: telemetry must stay free when disabled. *)
let check_overhead ~tolerance ~mem_tolerance ~min_time baseline_file =
  let fail msg =
    Printf.eprintf "overhead check FAILED (%s): %s\n%!" baseline_file msg;
    exit 1
  in
  let baseline_ns, baseline_words =
    Checks.check_file ~failed:"overhead check FAILED" Checks.overhead_baseline baseline_file
  in
  let net = Standard_nets.ablation ~sessions:100 in
  let f () = Allocator.max_min net in
  (* The gate compares a fresh minimum against the committed minimum,
     so give the estimator three times the samples a bench row gets:
     sample averages wobble with machine load, but their min converges
     on the uncontaminated per-run cost. *)
  let gate_samples = 3 * Timing.best_of in
  let now_ns = (Timing.best ~samples:gate_samples ~min_time f).ns in
  let ratio = now_ns /. baseline_ns in
  Printf.printf "%s: baseline %.1f ns, now %.1f ns (best of %d), ratio %.3f (tolerance %.2f)\n%!"
    Checks.overhead_entry baseline_ns now_ns gate_samples ratio tolerance;
  if ratio > 1.0 +. tolerance then
    fail
      (Printf.sprintf "disabled-probe run is %.1f%% slower than the committed baseline (limit %.1f%%)"
         ((ratio -. 1.0) *. 100.0) (tolerance *. 100.0));
  (* Memory gate: re-measure the fat-tree mid-size curve point and
     compare its peak live words against the committed baseline's, so
     resident-footprint regressions fail CI like time regressions.
     Live words are deterministic up to allocator layout, hence the
     looser default tolerance.  Quick baselines stop below k=16; skip
     with a note rather than inventing a cross-scale comparison. *)
  (match baseline_words with
  | None ->
      Printf.printf "memory gate skipped: baseline has no fat-tree %S point (quick baseline?)\n%!"
        Checks.mem_gate_label
  | Some baseline_w ->
      let p = measure_point ~min_time (fat_tree_workload ~k:16 ~per_host:fat_tree_per_host) in
      let mem_ratio = float_of_int p.peak_live_words /. baseline_w in
      Printf.printf "fat-tree %s: baseline %.0f live words, now %d, ratio %.3f (tolerance %.2f)\n%!"
        Checks.mem_gate_label baseline_w p.peak_live_words mem_ratio mem_tolerance;
      if mem_ratio > 1.0 +. mem_tolerance then
        fail
          (Printf.sprintf
             "fat-tree %s peak live words grew %.1f%% over the committed baseline (limit %.1f%%)"
             Checks.mem_gate_label ((mem_ratio -. 1.0) *. 100.0) (mem_tolerance *. 100.0)));
  Printf.printf "overhead check OK\n%!"

(* --- driver -------------------------------------------------------- *)

let () =
  let quick = ref false in
  let out = ref "BENCH_allocator.json" in
  let min_time = ref 0.0 in
  let validate_file = ref None in
  let overhead_baseline = ref None in
  let tolerance = ref 0.05 in
  let mem_tolerance = ref 0.25 in
  let args =
    [
      ("--quick", Arg.Set quick, " fast smoke sweep (CI): tiny sizes, short timing windows");
      ("--out", Arg.Set_string out, "FILE output path (default BENCH_allocator.json)");
      ("--min-time", Arg.Set_float min_time, "SECONDS per-measurement budget (default 0.5, quick 0.05)");
      ( "--validate",
        Arg.String (fun f -> validate_file := Some f),
        "FILE validate an existing BENCH_allocator.json against the schema and exit" );
      ( "--check-overhead",
        Arg.String (fun f -> overhead_baseline := Some f),
        "FILE re-time the linear-100 sweep (probes disabled) against FILE's entry and exit" );
      ( "--tolerance",
        Arg.Set_float tolerance,
        "FRACTION allowed slowdown for --check-overhead (default 0.05)" );
      ( "--mem-tolerance",
        Arg.Set_float mem_tolerance,
        "FRACTION allowed live-words growth for --check-overhead (default 0.25)" );
    ]
  in
  Arg.parse (Arg.align args)
    (fun a -> raise (Arg.Bad (Printf.sprintf "unexpected argument %S" a)))
    "scaling.exe: allocator scaling benchmark (JSON trajectory)";
  match (!validate_file, !overhead_baseline) with
  | Some f, _ ->
      print_endline
        (f ^ ": "
        ^ Checks.check_file ~failed:"BENCH_allocator.json validation FAILED" Checks.allocator f)
  | None, Some f ->
      let min_time = if !min_time > 0.0 then !min_time else 0.5 in
      check_overhead ~tolerance:!tolerance ~mem_tolerance:!mem_tolerance ~min_time f
  | None, None ->
      let min_time = if !min_time > 0.0 then !min_time else if !quick then 0.05 else 0.5 in
      let es = entries ~quick:!quick in
      (* Phase wall-times are the per-name span sums of a registry
         (the same span stream [--trace-out] records).  Only the span
         callbacks are forwarded, so the untimed runs between samples
         feed no round events; timed regions themselves stay
         probe-free — see [Timing.best]. *)
      let registry = Obs.Registry.create () in
      let spans = Obs.Registry.sink registry in
      let recorder =
        Obs.Sink.make ~on_span_begin:spans.Obs.Sink.on_span_begin
          ~on_span_end:spans.Obs.Sink.on_span_end ()
      in
      let measure e =
        let rounds = count_rounds e.run in
        let timing = Timing.best ~min_time e.run in
        let ref_timing = Option.map (fun f -> Timing.best ~min_time f) e.reference in
        (* Live-words audit: hold one result live across a compaction so
           the entry's resident footprint gates alongside its time. *)
        let held = Sys.opaque_identity (e.run ()) in
        let live = live_words () in
        ignore (Sys.opaque_identity held);
        Printf.printf "%-42s %12.1f ns/run  %4d rounds%s\n%!" e.name timing.ns rounds
          (match ref_timing with
          | Some rt -> Printf.sprintf "  (reference %12.1f, speedup %.1fx)" rt.ns (rt.ns /. timing.ns)
          | None -> "");
        (e, timing, ref_timing, rounds, live)
      in
      let kinds = [ "figure"; "ablation"; "sweep" ] in
      let rows =
        Obs.Probe.with_sink recorder (fun () ->
            List.concat_map
              (fun kind ->
                Obs.Probe.span kind (fun () ->
                    List.map measure (List.filter (fun e -> e.kind = kind) es)))
              kinds)
      in
      let curves =
        Obs.Probe.with_sink recorder (fun () ->
            Obs.Probe.span "curves" (fun () -> measure_curves ~quick:!quick ~min_time))
      in
      let phases =
        List.map
          (fun kind ->
            ( kind,
              Mmfair_stats.Log_histogram.sum
                (Obs.Registry.log_histogram_stats (Obs.Registry.span_seconds registry kind)) ))
          (kinds @ [ "curves" ])
      in
      emit ~quick:!quick ~min_time ~phases ~out:!out ~curves rows;
      Printf.printf "wrote %s (%d entries, %d curves)\n" !out (List.length rows) (List.length curves)
