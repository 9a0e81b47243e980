(* The checkers for every document the repo writes and reads back: the
   two committed bench files (BENCH_allocator.json, BENCH_churn.json),
   the Chrome trace and metrics snapshot of --trace-out/--metrics, and
   the `mmfair stability --json` report.  Each is a function over a
   parsed Json.t that returns its summary line and raises Json.Bad,
   naming the key path, on the first schema or gate violation.
   scaling.exe --validate, churn.exe --validate and telemetry_check.exe
   wrap them; the tests call them directly. *)

module Json = Mmfair_obs.Json

let allocator_schema = "mmfair.bench.allocator/v3"
let churn_schema = "mmfair.bench.churn/v6"
let churn_classes = [ "join"; "leave"; "rho"; "cap" ]

(* Load FILE and run [check] on it; when the file cannot be read or
   violates the check, print "<failed> (FILE): why" and exit 1. *)
let check_file ~failed check file =
  match check (Json.load file) with
  | r -> r
  | exception Json.Bad m ->
      Printf.eprintf "%s (%s): %s\n%!" failed file m;
      exit 1

let schema want doc =
  let s = Json.str [ "schema" ] doc in
  if s <> want then Json.fail [ "schema" ] "is %S, want %S" s want

(* Quick (CI smoke) documents skip every timing gate: short timing
   windows are too noisy to gate on. *)
let quick doc =
  match Json.get [ "quick" ] doc with Json.Bool b -> b | _ -> Json.fail [ "quick" ] "want a boolean"

let positive keys v = List.iter (fun k -> ignore (Json.num ~above:0.0 [ k ] v)) keys

(* --- BENCH_allocator.json ------------------------------------------- *)

let allocator doc =
  schema allocator_schema doc;
  let quick = quick doc in
  ignore (Json.num ~min:3.0 [ "best_of" ] doc);
  (match Json.obj [ "phases" ] doc with
  | [] -> Json.fail [ "phases" ] "want a non-empty object"
  | fields -> List.iter (fun (k, _) -> ignore (Json.num ~min:0.0 [ "phases"; k ] doc)) fields);
  (* v3: scaling curves over generated topologies with fitted
     exponents and a live-words audit per point.  On a full (non-quick)
     document the fat-tree per-event exponent must be sub-linear —
     that is the scan-removal refactor's acceptance gate.  On every
     document, quick ones included, the power-law solve exponent must
     stay below 1.5: a cold solve there runs about one round per
     session, so per-round scans of the solved receivers or the active
     links show up as an exponent near 2. *)
  let curves =
    Json.each [ "curves" ]
      (fun c ->
        let name = Json.str [ "name" ] c in
        ignore (Json.num [ "build_exponent" ] c);
        let solve_exp = Json.num [ "solve_exponent" ] c in
        let event_exp = Json.num [ "event_exponent" ] c in
        if List.length (Json.items [ "points" ] c) < 2 then
          Json.fail [ "points" ] "curve %S needs at least two points" name;
        ignore
          (Json.each [ "points" ]
             (fun pt ->
               ignore (Json.str [ "label" ] pt);
               positive
                 [ "sessions"; "links"; "receivers"; "build_ns"; "solve_ns"; "event_ns";
                   "peak_live_words" ]
                 pt)
             c);
        if name = "fat-tree" && (not quick) && event_exp >= 1.0 then
          Json.fail [ "event_exponent" ]
            "fat-tree per-event exponent %.3f is not sub-linear — the churn path scans" event_exp;
        if name = "power-law" && solve_exp >= 1.5 then
          Json.fail [ "solve_exponent" ]
            "power-law solve exponent %.3f is not below 1.5 — the water-filling rounds scan"
            solve_exp;
        name)
      doc
  in
  if not (List.mem "fat-tree" curves) then Json.fail [ "curves" ] "missing the fat-tree curve";
  let names =
    Json.each [ "entries" ]
      (fun e ->
        let name = Json.str [ "name" ] e in
        ignore (Json.str [ "kind" ] e);
        ignore (Json.str [ "engine" ] e);
        positive [ "runs"; "sessions"; "rounds"; "peak_live_words" ] e;
        let best = Json.num ~above:0.0 [ "time_ns" ] e in
        ignore
          (Json.each [ "samples_ns" ]
             (fun s ->
               let s = Json.num [] s in
               if s < best then
                 Json.fail [] "sample %.1f is below time_ns %.1f (best-of must be the minimum)" s
                   best)
             e);
        ignore (Json.num_or_null [ "reference_time_ns" ] e);
        name)
      doc
  in
  if not (List.mem "ablation/linear-engine-30-sessions" names) then
    Json.fail [ "entries" ] "missing the ablation/linear-engine-30-sessions tracking entry";
  Printf.sprintf "schema %s OK, %d entries" allocator_schema (List.length names)

(* The baselines scaling.exe --check-overhead re-measures: the
   linear-100 sweep entry's time_ns, and the fat-tree k=16 curve
   point's peak live words when the file has one (quick files stop
   below k=16, and the memory gate is then skipped). *)
let overhead_entry = "sweep/linear-engine-100-sessions"
let mem_gate_label = "k=16"

let overhead_baseline doc =
  let named key value v = Json.member key v = Some (Json.Str value) in
  let list key v = match Json.member key v with Some (Json.List l) -> l | _ -> [] in
  let time_ns =
    match List.find_opt (named "name" overhead_entry) (list "entries" doc) with
    | Some e -> Json.num ~above:0.0 [ "time_ns" ] e
    | None -> Json.fail [ "entries" ] "baseline has no %S entry" overhead_entry
  in
  let words =
    List.find_map
      (fun c ->
        if not (named "name" "fat-tree" c) then None
        else
          List.find_map
            (fun pt ->
              match Json.member "peak_live_words" pt with
              | Some (Json.Num w) when named "label" mem_gate_label pt && w > 0.0 -> Some w
              | _ -> None)
            (list "points" c))
      (list "curves" doc)
  in
  (time_ns, words)

(* --- BENCH_churn.json ----------------------------------------------- *)

let churn doc =
  schema churn_schema doc;
  let quick = quick doc in
  ignore (Json.obj [ "topology" ] doc);
  (* The incremental engine's gate: single-receiver membership churn
     must re-solve >= 3x faster than from scratch on the 100-session
     topology. *)
  let by_kind =
    Json.each [ "classes" ]
      (fun c ->
        let kind = Json.str [ "kind" ] c in
        positive [ "events"; "incremental_time_ns"; "scratch_time_ns" ] c;
        let s = Json.num ~above:0.0 [ "median_speedup" ] c in
        if (not quick) && List.mem kind [ "join"; "leave" ] && s < 3.0 then
          Json.fail [ "median_speedup" ] "class %S median speedup %.2fx is below the required 3x"
            kind s;
        (kind, s))
      doc
  in
  List.iter
    (fun k -> if not (List.mem_assoc k by_kind) then Json.fail [ "classes" ] "missing class %S" k)
    churn_classes;
  (* The coalescing gate: folding a 16-event flash-crowd
     burst into one Batch.apply must beat per-event application by
     >= 1.5x. *)
  let batch k = [ "batch"; k ] in
  List.iter (fun k -> ignore (Json.num ~above:0.0 (batch k) doc))
    [ "burst_events"; "per_event_time_ns"; "batched_time_ns" ];
  let batch_speedup = Json.num ~above:0.0 (batch "speedup") doc in
  if (not quick) && batch_speedup < 1.5 then
    Json.fail (batch "speedup") "batch speedup %.2fx is below the required 1.5x" batch_speedup;
  (* The multicore gate: one domain per disjoint fairness
     component must give >= 2x at 4 domains on the star-of-stars batch
     — but only when the generating host actually had >= 4 CPUs
     ("host_cpus" is recorded in the file); OCaml domains cannot beat
     cores, so on smaller hosts the gate is waived with a note. *)
  let parallel k = [ "parallel"; k ] in
  let components = int_of_float (Json.num (parallel "components") doc) in
  if components < 16 then
    Json.fail (parallel "components") "parallel components %d is below the required 16" components;
  let host_cpus = int_of_float (Json.num ~min:1.0 (parallel "host_cpus") doc) in
  let par_rows =
    Json.each (parallel "rows")
      (fun r ->
        ignore (Json.num ~above:0.0 [ "batched_time_ns" ] r);
        (int_of_float (Json.num [ "domains" ] r), Json.num ~above:0.0 [ "speedup_vs_1" ] r))
      doc
  in
  List.iter
    (fun d ->
      if not (List.mem_assoc d par_rows) then
        Json.fail (parallel "rows") "parallel rows missing the %d-domain entry" d)
    [ 1; 2; 4; 8 ];
  let par_speedup = List.assoc 4 par_rows in
  let par_note =
    if quick then " (quick: speedup gates skipped)"
    else if host_cpus < 4 then
      Printf.sprintf " (parallel gate waived: generating host had %d CPU%s)" host_cpus
        (if host_cpus = 1 then "" else "s")
    else if par_speedup < 2.0 then
      Json.fail (parallel "rows")
        "parallel speedup %.2fx at 4 domains is below the required 2x (host_cpus %d)" par_speedup
        host_cpus
    else ""
  in
  (* The serving gate: the churnd serving loop must
     sustain >= 1000 events/sec end to end (pipe, parse, coalesce,
     re-solve) while keeping every event's queue-to-epoch staleness
     under 0.5 s. *)
  let serving k = [ "serving"; k ] in
  List.iter (fun k -> ignore (Json.num ~above:0.0 (serving k) doc)) [ "events"; "elapsed_s"; "epochs" ];
  let events_per_s = Json.num ~above:0.0 (serving "events_per_s") doc in
  let max_staleness = Json.num ~min:0.0 (serving "max_staleness_s") doc in
  if (not quick) && events_per_s < 1000.0 then
    Json.fail (serving "events_per_s") "serving throughput %.1f events/s is below the required 1000"
      events_per_s;
  if (not quick) && max_staleness > 0.5 then
    Json.fail (serving "max_staleness_s") "serving max staleness %.4f s is above the allowed 0.5 s"
      max_staleness;
  (* The sampler gate: the time-series sampler must stay
     within the same <= 5% tolerance as the disabled-probe overhead
     gate.  The gated number is the duty cycle — directly timed mean
     tick cost over the bench cadence — because a single-run A/B
     throughput delta is dominated by machine noise, not sampler cost
     (the delta is recorded as "overhead_fraction" for the
     trajectory). *)
  let sampler k = [ "serving"; "sampler"; k ] in
  List.iter (fun k -> ignore (Json.num ~above:0.0 (sampler k) doc)) [ "interval_s"; "tick_cost_s" ];
  ignore (Json.num ~min:0.0 (sampler "ticks") doc);
  ignore (Json.num (sampler "overhead_fraction") doc);
  let duty = Json.num ~min:0.0 (sampler "duty_cycle") doc in
  if (not quick) && duty > 0.05 then
    Json.fail (sampler "duty_cycle") "sampler duty cycle %.2f%% is above the allowed 5%%"
      (duty *. 100.0);
  (* The stability gate: the flow-level stochastic engine
     must empirically bracket the Bramson stability boundary on the
     star-of-stars — stable at rho = 0.8, divergent at rho = 1.2.
     The verdicts come from a fixed-seed virtual-time simulation, so
     they are deterministic and gate even in quick files; only the
     wall-clock events/s throughput gate is non-quick. *)
  ignore (Json.obj [ "stability"; "scenario" ] doc);
  let st_rows =
    Json.each [ "stability"; "rows" ]
      (fun r ->
        let load = Json.num [ "load" ] r in
        let verdict = Json.str [ "verdict" ] r in
        let arrivals = Json.num ~above:0.0 [ "arrivals" ] r in
        ignore (Json.num ~above:0.0 [ "events" ] r);
        let events_per_s = Json.num ~above:0.0 [ "events_per_s" ] r in
        let departures = Json.num ~min:0.0 [ "departures" ] r in
        if departures > arrivals then
          Json.fail [ "departures" ] "stability rho=%.1f: departures %.0f exceed arrivals %.0f" load
            departures arrivals;
        let ordered lo hi =
          let a = Json.num ~min:0.0 [ lo ] r and b = Json.num ~min:0.0 [ hi ] r in
          if a > b then Json.fail [ lo ] "stability rho=%.1f: %s %.4g > %s %.4g" load lo a hi b
        in
        ordered "sojourn_p50" "sojourn_p99";
        ordered "flow_rate_p50" "flow_rate_p99";
        (load, (verdict, events_per_s)))
      doc
  in
  let bracket load want =
    match List.find_opt (fun (l, _) -> Float.abs (l -. load) < 1e-9) st_rows with
    | None -> Json.fail [ "stability"; "rows" ] "stability rows missing the rho=%.1f entry" load
    | Some (_, (v, events_per_s)) ->
        if v <> want then
          Json.fail [ "stability"; "rows" ] "stability verdict at rho=%.1f is %S (want %S)" load v
            want;
        events_per_s
  in
  let st_events_per_s = bracket 0.8 "stable" in
  ignore (bracket 1.2 "divergent");
  if (not quick) && st_events_per_s < 200.0 then
    Json.fail [ "stability"; "rows" ]
      "stability throughput %.1f events/s at rho=0.8 is below the required 200" st_events_per_s;
  Printf.sprintf
    "schema %s OK, %d classes, batch speedup %.2fx, parallel %.2fx at 4 domains, serving %.0f \
     events/s (staleness %.4f s, sampler duty %.4f%%), stability stable@0.8 divergent@1.2 (%.0f \
     events/s)%s"
    churn_schema (List.length by_kind) batch_speedup par_speedup events_per_s max_staleness
    (duty *. 100.0) st_events_per_s par_note

(* --- telemetry artifacts -------------------------------------------- *)

let non_negative_integer path v =
  let x = Json.num ~min:0.0 path v in
  if not (Float.is_integer x) then Json.fail path "want a non-negative integer";
  x

(* The args every "round" and "epoch" instant must carry. *)
let instant_args = function
  | "round" -> [ "solver"; "round"; "level"; "increment"; "active"; "residual_slack" ]
  | "epoch" ->
      [
        "epoch"; "kind"; "events"; "net_events"; "cancelled"; "component_sessions";
        "component_receivers"; "total_receivers"; "reuse_fraction"; "full_solve"; "solves";
        "components"; "largest_component"; "jain"; "max_delta_rate";
      ]
  | _ -> []

(* Chrome trace shape: {"traceEvents": [...]}, every event an object
   with name/cat/ph/ts/pid/tid, ph one of B/E/i/C, instants carrying
   "s", and solver-round and churn-epoch instants carrying their full
   args.  Returns the summary and the number of solver-round
   instants. *)
let trace doc =
  let instants =
    Json.each [ "traceEvents" ]
      (fun ev ->
        let name = Json.str [ "name" ] ev in
        let ph = Json.str [ "ph" ] ev in
        if not (List.mem ph [ "B"; "E"; "i"; "C" ]) then Json.fail [ "ph" ] "unexpected phase %S" ph;
        ignore (Json.num ~min:0.0 [ "ts" ] ev);
        ignore (Json.num [ "pid" ] ev);
        ignore (Json.num [ "tid" ] ev);
        if ph <> "i" then ""
        else begin
          ignore (Json.get [ "s" ] ev);
          List.iter (fun k -> ignore (Json.get [ "args"; k ] ev)) (instant_args name);
          name
        end)
      doc
  in
  let count name = List.length (List.filter (String.equal name) instants) in
  let n = count "round" in
  ( Printf.sprintf "%d trace events, %d solver rounds, %d epochs OK" (List.length instants) n
      (count "epoch"),
    n )

(* Metrics snapshot shape: schema id, counters/gauges objects, and
   histograms whose "counts" length matches "bins".  Returns the
   summary and solver.rounds.total. *)
let metrics doc =
  schema Mmfair_obs.Registry.schema_id doc;
  List.iter
    (fun (k, _) -> ignore (non_negative_integer [ "counters"; k ] doc))
    (Json.obj [ "counters" ] doc);
  List.iter (fun (k, _) -> ignore (Json.num [ "gauges"; k ] doc)) (Json.obj [ "gauges" ] doc);
  let counts_match_bins path bins =
    match Json.get path doc with
    | Json.List counts when List.length counts = int_of_float bins -> ()
    | _ -> Json.fail path "length does not match \"bins\""
  in
  List.iter
    (fun (k, _) ->
      let at f = [ "histograms"; k; f ] in
      List.iter
        (fun f -> ignore (Json.num (at f) doc))
        [ "lo"; "hi"; "count"; "sum"; "underflow"; "overflow" ];
      counts_match_bins (at "counts") (Json.num (at "bins") doc))
    (Json.obj [ "histograms" ] doc);
  List.iter
    (fun (k, _) ->
      let at f = [ "log_histograms"; k; f ] in
      let num f = Json.num (at f) doc in
      let lo = num "lo" and hi = num "hi" in
      if not (0.0 < lo && lo < hi) then Json.fail (at "lo") "needs 0 < lo < hi";
      ignore (num "sum");
      let count = num "count" in
      (* Quantiles and max degrade to null while the histogram is
         empty (JSON has no NaN); once populated they must be numbers. *)
      List.iter
        (fun f ->
          match Json.get (at f) doc with Json.Null when count = 0.0 -> () | _ -> ignore (num f))
        [ "p50"; "p90"; "p99"; "max" ];
      counts_match_bins (at "counts") (num "bins");
      let in_range =
        List.fold_left ( +. ) 0.0 (Json.each (at "counts") (non_negative_integer []) doc)
      in
      if in_range +. num "underflow" +. num "overflow" <> count then
        Json.fail (at "counts") "bucket counts do not sum to \"count\"")
    (Json.obj [ "log_histograms" ] doc);
  let rounds = int_of_float (Json.num [ "counters"; "solver.rounds.total" ] doc) in
  ( Printf.sprintf "schema %s OK, solver.rounds.total = %d" Mmfair_obs.Registry.schema_id rounds,
    rounds )

(* Stability report shape: {"schema": "mmfair.stability/v1", scenario
   metadata, "runs": [...]}.  Each run carries the population-drift
   verdict plus sojourn/flow-rate tail summaries; consistency checks
   mirror the physics invariants the simulator maintains (departures
   never exceed arrivals, quantiles are ordered, counts balance). *)
let stability doc =
  schema Mmfair_flow.Stability.schema_id doc;
  let scenario = Json.str [ "scenario" ] doc in
  if not (List.mem scenario [ "star"; "single" ]) then
    Json.fail [ "scenario" ] "must be \"star\" or \"single\"";
  ignore (Json.str [ "workload" ] doc);
  ignore (Json.num ~above:0.0 [ "horizon" ] doc);
  let runs =
    Json.each [ "runs" ]
      (fun run ->
        let num k = Json.num ~min:0.0 [ k ] run in
        let verdict = Json.str [ "verdict" ] run in
        if not (List.mem verdict [ "stable"; "divergent"; "inconclusive" ]) then
          Json.fail [ "verdict" ] "must be stable/divergent/inconclusive";
        ignore (num "load");
        let arrivals = num "arrivals" in
        let departures = num "departures" in
        let blocked = num "blocked" in
        let final_pop = num "final_population" in
        if departures +. blocked +. final_pop <> arrivals then
          Json.fail [] "arrivals %.0f != departures %.0f + blocked %.0f + final_population %.0f"
            arrivals departures blocked final_pop;
        if num "max_population" < final_pop then
          Json.fail [ "max_population" ] "below final_population";
        List.iter (fun k -> ignore (num k)) [ "epochs"; "applied_events"; "regenerations" ];
        List.iter
          (fun k ->
            let count = Json.num ~min:0.0 [ k; "count" ] run in
            if count <> departures then
              Json.fail [ k; "count" ] "%.0f does not match departures %.0f" count departures;
            let q f =
              match Json.get [ k; f ] run with
              | Json.Null when count = 0.0 -> 0.0
              | _ -> Json.num ~min:0.0 [ k; f ] run
            in
            let p50 = q "p50" and p99 = q "p99" and max_v = q "max" in
            ignore (q "mean");
            ignore (q "p90");
            if p50 > p99 then Json.fail [ k ] "p50 %.4g > p99 %.4g" p50 p99;
            (* p99 is a log-bucket upper-edge estimate, so it can sit one
               bucket above the exact maximum; allow that slack. *)
            if p99 > max_v *. 1.25 then
              Json.fail [ k ] "p99 %.4g implausibly above max %.4g" p99 max_v)
          [ "sojourn"; "flow_rate" ])
      doc
  in
  Printf.sprintf "schema %s OK, %d runs" Mmfair_flow.Stability.schema_id (List.length runs)
