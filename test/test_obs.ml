(* Telemetry-layer tests: registry semantics (counter monotonicity,
   histogram bucketing vs Mmfair_stats.Histogram, snapshot
   determinism), span nesting through the recorder sink, null-sink
   no-op guarantees, probe-stream/trace agreement on the allocator,
   simulator probes, and the committed golden Chrome trace. *)

module Obs = Mmfair_obs
module Json = Mmfair_obs.Json
module Registry = Mmfair_obs.Registry
module Sink = Mmfair_obs.Sink
module Probe = Mmfair_obs.Probe
module Histogram = Mmfair_stats.Histogram
module Allocator = Mmfair_core.Allocator
module Engine = Mmfair_sim.Engine
module Event_queue = Mmfair_sim.Event_queue

let corpus_net () =
  (Mmfair_workload.Net_parser.parse_file "corpus/valid_figure2.net")
    .Mmfair_workload.Net_parser.net

let dummy_round =
  {
    Obs.Events.solver = "Test";
    round = 1;
    level = 1.0;
    increment = 1.0;
    active = 0;
    frozen = [];
    saturated_links = [];
    bottleneck_link = None;
    residual_slack = 0.0;
  }

(* --- Json --- *)

let test_json_roundtrip () =
  let v =
    Json.Obj
      [
        ("s", Json.Str "a\"b\\c\nd");
        ("n", Json.Num 0.1);
        ("i", Json.Num 42.0);
        ("b", Json.Bool true);
        ("z", Json.Null);
        ("l", Json.List [ Json.Num 1.0; Json.Str ""; Json.Obj [] ]);
      ]
  in
  Alcotest.(check bool) "roundtrip" true (Json.parse (Json.to_string v) = v);
  Alcotest.(check string)
    "stable rendering"
    (Json.to_string v)
    (Json.to_string (Json.parse (Json.to_string v)))

(* --- registry --- *)

let test_counter_monotonic () =
  let r = Registry.create () in
  let c = Registry.counter r "a.total" in
  Registry.incr c;
  Registry.incr ~by:5 c;
  Registry.incr ~by:0 c;
  Alcotest.(check int) "sum" 6 (Registry.counter_value c);
  Alcotest.check_raises "negative increment rejected"
    (Invalid_argument "Registry.incr: counter \"a.total\" is monotonic (by = -1)")
    (fun () -> Registry.incr ~by:(-1) c);
  Alcotest.(check int) "unchanged after rejection" 6 (Registry.counter_value c);
  Alcotest.(check int) "get-or-create returns the same counter" 6
    (Registry.counter_value (Registry.counter r "a.total"))

let test_kind_clash () =
  let r = Registry.create () in
  ignore (Registry.counter r "x");
  (try
     ignore (Registry.gauge r "x");
     Alcotest.fail "kind clash not rejected"
   with Invalid_argument _ -> ());
  ignore (Registry.histogram r ~lo:0.0 ~hi:1.0 ~bins:4 "h");
  try
    ignore (Registry.histogram r ~lo:0.0 ~hi:2.0 ~bins:4 "h");
    Alcotest.fail "bucketing mismatch not rejected"
  with Invalid_argument _ -> ()

let hist_field snap name field =
  match Json.member "histograms" snap with
  | Some hists -> (
      match Json.member name hists with
      | Some h -> (
          match Json.member field h with
          | Some v -> v
          | None -> Alcotest.fail (Printf.sprintf "histogram %s missing %s" name field))
      | None -> Alcotest.fail (Printf.sprintf "missing histogram %s" name))
  | None -> Alcotest.fail "snapshot missing histograms"

let test_histogram_matches_stats () =
  (* The registry's bucketing must be exactly Mmfair_stats.Histogram's:
     same half-open [lo, hi) range, same bin edges, same under/overflow
     split. *)
  let observations = [ -0.5; 0.0; 1.9; 2.0; 5.5; 9.999; 10.0; 55.0 ] in
  let r = Registry.create () in
  let h = Registry.histogram r ~lo:0.0 ~hi:10.0 ~bins:5 "obs" in
  let raw = Histogram.create ~lo:0.0 ~hi:10.0 ~bins:5 in
  List.iter
    (fun x ->
      Registry.observe h x;
      Histogram.add raw x)
    observations;
  let snap = Registry.snapshot r in
  let counts =
    match hist_field snap "obs" "counts" with
    | Json.List l -> List.map (function Json.Num f -> int_of_float f | _ -> -1) l
    | _ -> Alcotest.fail "counts not a list"
  in
  Alcotest.(check (list int))
    "per-bin counts"
    (List.init (Histogram.bins raw) (Histogram.bin_count raw))
    counts;
  Alcotest.(check bool) "underflow" true
    (hist_field snap "obs" "underflow" = Json.Num (float_of_int (Histogram.underflow raw)));
  Alcotest.(check bool) "overflow" true
    (hist_field snap "obs" "overflow" = Json.Num (float_of_int (Histogram.overflow raw)));
  Alcotest.(check bool) "count" true
    (hist_field snap "obs" "count" = Json.Num (float_of_int (Histogram.count raw)))

let test_snapshot_deterministic () =
  let build () =
    let r = Registry.create () in
    (* Insertion order differs between the two registries; the
       snapshot must not care. *)
    Registry.incr (Registry.counter r "b");
    Registry.incr ~by:2 (Registry.counter r "a");
    Registry.set (Registry.gauge r "g") 1.5;
    Registry.observe (Registry.histogram r ~lo:0.0 ~hi:1.0 ~bins:2 "h") 0.25;
    r
  in
  let build_swapped () =
    let r = Registry.create () in
    Registry.observe (Registry.histogram r ~lo:0.0 ~hi:1.0 ~bins:2 "h") 0.25;
    Registry.set (Registry.gauge r "g") 1.5;
    Registry.incr ~by:2 (Registry.counter r "a");
    Registry.incr (Registry.counter r "b");
    r
  in
  Alcotest.(check string)
    "same contents, same snapshot"
    (Json.to_string (Registry.snapshot (build ())))
    (Json.to_string (Registry.snapshot (build_swapped ())));
  let r = build () in
  Alcotest.(check string)
    "snapshot is repeatable"
    (Json.to_string (Registry.snapshot r))
    (Json.to_string (Registry.snapshot r))

let test_gauge_set_max () =
  let r = Registry.create () in
  let g = Registry.gauge r "hwm" in
  Registry.set_max g (-3.0);
  Alcotest.(check (float 0.0)) "first set_max wins even when negative" (-3.0)
    (Registry.gauge_value g);
  Registry.set_max g (-10.0);
  Alcotest.(check (float 0.0)) "lower value ignored" (-3.0) (Registry.gauge_value g);
  Registry.set_max g 7.0;
  Alcotest.(check (float 0.0)) "higher value taken" 7.0 (Registry.gauge_value g)

let contains_substring text needle =
  let n = String.length needle and m = String.length text in
  let rec go i = i + n <= m && (String.sub text i n = needle || go (i + 1)) in
  n = 0 || go 0

let test_prometheus_shape () =
  let r = Registry.create () in
  Registry.incr ~by:3 (Registry.counter r "solver.rounds.total");
  Registry.observe (Registry.histogram r ~lo:0.0 ~hi:4.0 ~bins:2 "lat") 1.0;
  let text = Registry.to_prometheus r in
  List.iter
    (fun needle ->
      if not (contains_substring text needle) then
        Alcotest.fail (Printf.sprintf "prometheus text missing %S" needle))
    [
      "mmfair_solver_rounds_total 3";
      "# TYPE mmfair_solver_rounds_total counter";
      "mmfair_lat_bucket{le=\"2\"} 1";
      "mmfair_lat_bucket{le=\"+Inf\"} 1";
      "mmfair_lat_count 1";
    ]

(* --- log-bucketed histograms in the registry --- *)

let test_log_histogram_snapshot () =
  let r = Registry.create () in
  let h = Registry.log_histogram r ~lo:1e-3 ~hi:10.0 ~bins:8 "solve.s" in
  List.iter (Registry.observe_log h) [ 1e-4; 0.002; 0.5; 0.5; 42.0 ];
  Alcotest.(check bool) "get-or-create returns the same histogram" true
    (h == Registry.log_histogram r ~lo:1e-3 ~hi:10.0 ~bins:8 "solve.s");
  Alcotest.check_raises "bucketing mismatch rejected"
    (Invalid_argument "Registry.log_histogram: \"solve.s\" re-registered with different bucketing")
    (fun () -> ignore (Registry.log_histogram r ~lo:1e-3 ~hi:20.0 ~bins:8 "solve.s"));
  let snap = Registry.snapshot r in
  let field name =
    match Json.member "log_histograms" snap with
    | Some lhs -> (
        match Json.member "solve.s" lhs with
        | Some h -> (
            match Json.member name h with
            | Some v -> v
            | None -> Alcotest.fail (Printf.sprintf "log histogram missing %s" name))
        | None -> Alcotest.fail "missing log histogram solve.s")
    | None -> Alcotest.fail "snapshot missing log_histograms"
  in
  Alcotest.(check bool) "count" true (field "count" = Json.Num 5.0);
  Alcotest.(check bool) "underflow surfaced" true (field "underflow" = Json.Num 1.0);
  Alcotest.(check bool) "overflow surfaced" true (field "overflow" = Json.Num 1.0);
  Alcotest.(check bool) "max is exact" true (field "max" = Json.Num 42.0);
  (match field "p50" with
  | Json.Num p50 -> Alcotest.(check bool) "p50 sound" true (0.5 <= p50 && p50 <= 10.0)
  | _ -> Alcotest.fail "p50 not numeric");
  match field "counts" with
  | Json.List l -> Alcotest.(check int) "counts length = bins" 8 (List.length l)
  | _ -> Alcotest.fail "counts not a list"

(* Prometheus exposition lint for the log-bucketed kind: legal metric
   names, strictly increasing [le] boundaries, cumulative bucket
   counts, and the +Inf bucket equal to [_count]. *)
let test_prometheus_log_histogram_lint () =
  let r = Registry.create () in
  let h = Registry.log_histogram r ~lo:0.001 ~hi:10.0 ~bins:12 "serve.solve.seconds" in
  List.iter (Registry.observe_log h) [ 1e-5; 0.004; 0.03; 0.2; 0.2; 1.5; 99.0 ];
  let text = Registry.to_prometheus r in
  let lines = String.split_on_char '\n' text |> List.filter (fun l -> l <> "") in
  let legal_name m =
    m <> ""
    && (match m.[0] with 'a' .. 'z' | 'A' .. 'Z' | '_' | ':' -> true | _ -> false)
    && String.for_all
         (function 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' | ':' -> true | _ -> false)
         m
  in
  let bucket_rows = ref [] in
  let sum = ref nan and count = ref nan in
  List.iter
    (fun line ->
      if not (String.length line > 0 && line.[0] = '#') then begin
        let metric =
          match String.index_opt line '{' with
          | Some i -> String.sub line 0 i
          | None -> (
              match String.index_opt line ' ' with
              | Some i -> String.sub line 0 i
              | None -> line)
        in
        if not (legal_name metric) then
          Alcotest.fail (Printf.sprintf "illegal metric name %S" metric);
        let value () =
          match String.rindex_opt line ' ' with
          | Some i -> float_of_string (String.sub line (i + 1) (String.length line - i - 1))
          | None -> Alcotest.fail (Printf.sprintf "no value in %S" line)
        in
        if metric = "mmfair_serve_solve_seconds_bucket" then begin
          let le =
            let marker = "le=\"" in
            let rec find i =
              if i + String.length marker > String.length line then
                Alcotest.fail (Printf.sprintf "bucket without le: %S" line)
              else if String.sub line i (String.length marker) = marker then begin
                let start = i + String.length marker in
                let close = String.index_from line start '"' in
                String.sub line start (close - start)
              end
              else find (i + 1)
            in
            find 0
          in
          bucket_rows := (le, value ()) :: !bucket_rows
        end
        else if metric = "mmfair_serve_solve_seconds_sum" then sum := value ()
        else if metric = "mmfair_serve_solve_seconds_count" then count := value ()
      end)
    lines;
  let buckets = List.rev !bucket_rows in
  Alcotest.(check bool) "has buckets" true (List.length buckets > 2);
  let le_value = function "+Inf" -> infinity | s -> float_of_string s in
  let rec check_monotone = function
    | (le_a, cum_a) :: ((le_b, cum_b) :: _ as rest) ->
        Alcotest.(check bool)
          (Printf.sprintf "le %s < %s strictly increasing" le_a le_b)
          true
          (le_value le_a < le_value le_b);
        Alcotest.(check bool) "bucket counts cumulative" true (cum_a <= cum_b);
        check_monotone rest
    | _ -> ()
  in
  check_monotone buckets;
  (match List.rev buckets with
  | ("+Inf", total) :: _ ->
      Alcotest.(check (float 0.0)) "+Inf bucket equals _count" !count total
  | _ -> Alcotest.fail "last bucket is not +Inf");
  Alcotest.(check int) "_count covers every observation" 7 (int_of_float !count);
  Alcotest.(check bool) "_sum is the exact sum" true
    (Float.abs (!sum -. (1e-5 +. 0.004 +. 0.03 +. 0.2 +. 0.2 +. 1.5 +. 99.0)) < 1e-9)

(* --- time series --- *)

let test_timeseries_windows () =
  let ts = Obs.Timeseries.create ~capacity:4 () in
  List.iteri (fun i v -> Obs.Timeseries.observe ts ~ts:(float_of_int i) "m" v)
    [ 1.0; 5.0; 3.0; 9.0 ];
  (match Obs.Timeseries.points ts "m" with
  | [ a; _; _; d ] ->
      Alcotest.(check (float 0.0)) "first window t" 0.0 a.Obs.Timeseries.p_t;
      Alcotest.(check int) "one sample per fresh window" 1 a.Obs.Timeseries.p_count;
      Alcotest.(check (float 0.0)) "last" 9.0 d.Obs.Timeseries.p_last
  | pts -> Alcotest.fail (Printf.sprintf "expected 4 windows, got %d" (List.length pts)));
  (* The 5th observation forces a pairwise downsample: 4 windows merge
     into 2 (count/min/max/sum aggregated), then the new sample lands
     in a fresh third window. *)
  Obs.Timeseries.observe ts ~ts:4.0 "m" 7.0;
  match Obs.Timeseries.points ts "m" with
  | [ a; b; c ] ->
      Alcotest.(check int) "merged window count" 2 a.Obs.Timeseries.p_count;
      Alcotest.(check (float 0.0)) "merged min" 1.0 a.Obs.Timeseries.p_min;
      Alcotest.(check (float 0.0)) "merged max" 5.0 a.Obs.Timeseries.p_max;
      Alcotest.(check (float 0.0)) "merged mean" 3.0 (Obs.Timeseries.mean a);
      Alcotest.(check (float 0.0)) "merged last keeps the newest" 5.0 a.Obs.Timeseries.p_last;
      Alcotest.(check int) "second merged window" 2 b.Obs.Timeseries.p_count;
      Alcotest.(check int) "fresh window count" 1 c.Obs.Timeseries.p_count;
      Alcotest.(check (float 0.0)) "fresh window value" 7.0 c.Obs.Timeseries.p_last
  | pts -> Alcotest.fail (Printf.sprintf "expected 3 windows, got %d" (List.length pts))

let test_timeseries_jsonl_deterministic () =
  (* Same observation stream twice => byte-identical export, whatever
     the hashtable iteration order does.  [~gc:false] keeps the GC
     gauges out so the registry readout is fully deterministic too. *)
  let build () =
    let r = Registry.create () in
    let ts = Obs.Timeseries.create ~capacity:8 () in
    Registry.incr ~by:7 (Registry.counter r "z.total");
    Registry.incr ~by:2 (Registry.counter r "a.total");
    Registry.observe_log (Registry.log_histogram r ~lo:0.01 ~hi:10.0 ~bins:6 "lat") 0.5;
    for i = 0 to 11 do
      ignore (Obs.Timeseries.sample ~gc:false ts ~ts:(float_of_int i) r)
    done;
    Obs.Timeseries.to_jsonl ts
  in
  let a = build () and b = build () in
  Alcotest.(check string) "byte-identical JSONL" a b;
  let lines = String.split_on_char '\n' a |> List.filter (fun l -> l <> "") in
  (match lines with
  | header :: _ ->
      Alcotest.(check bool) "header carries the schema id" true
        (Json.member "schema" (Json.parse header) = Some (Json.Str Obs.Timeseries.schema_id))
  | [] -> Alcotest.fail "empty export");
  List.iteri
    (fun i line ->
      if i > 0 then
        match Json.parse line with
        | exception Json.Bad m -> Alcotest.fail (Printf.sprintf "line %d bad JSON: %s" i m)
        | doc -> (
            match (Json.member "series" doc, Json.member "t" doc, Json.member "count" doc) with
            | Some (Json.Str _), Some (Json.Num _), Some (Json.Num _) -> ()
            | _ -> Alcotest.fail (Printf.sprintf "line %d missing series/t/count" i)))
    lines

(* --- fairness and pool probes --- *)

let test_fairness_probe_bridged () =
  let r = Registry.create () in
  Probe.with_sink (Registry.sink r) (fun () ->
      Probe.epoch
        {
          Obs.Events.epoch = 3;
          kind = "batch";
          events = 6;
          net_events = 2;
          cancelled = 4;
          component_sessions = 9;
          component_receivers = 12;
          total_receivers = 48;
          reuse_fraction = 0.75;
          full_solve = false;
          solves = 2;
          components = 4;
          largest_component = 5;
          jain = 0.875;
          max_delta_rate = 2.5;
        });
  let count name = Registry.counter_value (Registry.counter r name) in
  let gauge name = Registry.gauge_value (Registry.gauge r name) in
  Alcotest.(check (list int)) "epoch, solve, batch and kind counters" [ 1; 2; 0; 1; 6; 4; 1 ]
    (List.map count
       [
         "dynamic.epochs.total";
         "dynamic.solves.total";
         "dynamic.full_solves.total";
         "dynamic.batches.total";
         "dynamic.batch.events.total";
         "dynamic.batch.cancelled.total";
         "dynamic.events.batch";
       ]);
  Alcotest.(check (float 1e-12)) "jain gauge" 0.875 (gauge "fairness.jain");
  Alcotest.(check (float 1e-12)) "delta-rate high-water" 2.5 (gauge "fairness.delta_rate.max");
  Alcotest.(check (float 1e-12)) "components gauge" 4.0 (gauge "fairness.components");
  Alcotest.(check (float 1e-12)) "largest component gauge" 5.0 (gauge "fairness.largest_component")

let test_pool_event_emitted () =
  let pool_events = ref [] in
  let pool = Mmfair_core.Domain_pool.create ~domains:2 in
  let cells = Array.make 5 0 in
  Probe.with_sink
    (Sink.make ~on_pool:(fun ev -> pool_events := ev :: !pool_events) ())
    (fun () ->
      Mmfair_core.Domain_pool.run pool (List.init 5 (fun i () -> cells.(i) <- i * i)));
  Alcotest.(check (array int)) "all tasks ran" [| 0; 1; 4; 9; 16 |] cells;
  Mmfair_core.Domain_pool.shutdown pool;
  match !pool_events with
  | [ ev ] ->
      Alcotest.(check int) "tasks counted" 5 ev.Obs.Events.p_tasks;
      Alcotest.(check int) "domains recorded" 2 ev.Obs.Events.p_domains;
      Alcotest.(check bool) "wall positive" true (ev.Obs.Events.p_wall > 0.0);
      Alcotest.(check bool) "wait total finite and non-negative" true
        (ev.Obs.Events.p_wait_total >= 0.0);
      Alcotest.(check bool) "busy total positive" true (ev.Obs.Events.p_busy_total >= 0.0);
      Alcotest.(check bool) "per-domain busy sorted descending" true
        (let a = ev.Obs.Events.p_busy_by_domain in
         Array.for_all (fun x -> x >= 0.0) a
         && Array.for_all2 (fun x y -> x >= y) (Array.sub a 0 (Array.length a - 1))
              (Array.sub a 1 (Array.length a - 1)))
  | evs -> Alcotest.fail (Printf.sprintf "expected 1 pool event, got %d" (List.length evs))

(* --- spans and sinks --- *)

let ticking_clock () =
  let n = ref 0 in
  fun () ->
    let t = float_of_int !n in
    incr n;
    t

let test_span_nesting () =
  let recorder, completed = Sink.span_recorder ~clock:(ticking_clock ()) () in
  Probe.with_sink recorder (fun () ->
      Probe.span "outer" (fun () -> Probe.span "inner" Fun.id));
  (* begin outer @0, begin inner @1, end inner @2, end outer @3 *)
  Alcotest.(check (list (pair string (float 0.0))))
    "inner completes first, durations nest"
    [ ("inner", 1.0); ("outer", 3.0) ]
    (completed ())

let test_span_mismatch_dropped () =
  let recorder, completed = Sink.span_recorder ~clock:(ticking_clock ()) () in
  Probe.with_sink recorder (fun () ->
      Probe.span_begin "a";
      (* not the open span: dropped without consuming a clock tick *)
      Probe.span_end "b";
      Probe.span_end "a");
  Alcotest.(check (list (pair string (float 0.0)))) "mismatched end dropped" [ ("a", 1.0) ] (completed ())

let test_null_sink_noop () =
  Alcotest.(check bool) "probes disabled by default" false (Probe.enabled ());
  (* Emitting against the null sink must be a silent no-op. *)
  Probe.round dummy_round;
  Probe.sim (Obs.Events.Dropped { count = 1 });
  Alcotest.(check int) "span under null sink is exactly f ()" 42 (Probe.span "x" (fun () -> 42))

let test_with_sink_restores_on_exception () =
  let hits = ref 0 in
  let s = Sink.make ~on_round:(fun _ -> incr hits) () in
  (try Probe.with_sink s (fun () -> failwith "boom") with Failure _ -> ());
  Alcotest.(check bool) "sink restored after exception" false (Probe.enabled ());
  Probe.round dummy_round;
  Alcotest.(check int) "no event reaches the uninstalled sink" 0 !hits

let test_tee () =
  let a = ref 0 and b = ref 0 in
  let sa = Sink.make ~on_round:(fun _ -> incr a) () in
  let sb = Sink.make ~on_round:(fun _ -> incr b) () in
  Probe.with_sink (Sink.tee sa sb) (fun () -> Probe.round dummy_round);
  Alcotest.(check (pair int int)) "both sinks hit" (1, 1) (!a, !b);
  Alcotest.(check bool) "tee elides null" true (Sink.tee Sink.null sa == sa);
  Alcotest.(check bool) "tee_all [] is null" true (Sink.tee_all [] == Sink.null)

(* --- solver probe stream --- *)

let test_allocator_stream_matches_trace () =
  let net = corpus_net () in
  let trace = Allocator.max_min_trace net in
  let events = ref [] in
  let alloc =
    Probe.with_sink
      (Sink.make ~on_round:(fun ev -> events := ev :: !events) ())
      (fun () -> Allocator.max_min net)
  in
  let events = List.rev !events in
  Alcotest.(check int)
    "probe stream has one event per trace round"
    (List.length trace.Allocator.rounds)
    (List.length events);
  List.iteri
    (fun i ev ->
      Alcotest.(check int) (Printf.sprintf "round %d numbered" i) (i + 1) ev.Obs.Events.round;
      Alcotest.(check string) "solver name" "Allocator" ev.Obs.Events.solver)
    events;
  (* The derived rounds view and the raw stream agree on structure. *)
  List.iter2
    (fun (r : Allocator.round) ev ->
      Alcotest.(check (float 1e-12)) "increment" r.Allocator.increment ev.Obs.Events.increment;
      Alcotest.(check int)
        "frozen count"
        (List.length r.Allocator.frozen)
        (List.length ev.Obs.Events.frozen);
      Alcotest.(check (list int)) "saturated links" r.Allocator.saturated_links
        ev.Obs.Events.saturated_links)
    trace.Allocator.rounds events;
  (* Same allocation with and without a listener. *)
  Mmfair_core.Network.all_receivers net
  |> Array.iter (fun r ->
         Alcotest.(check (float 1e-12))
           "allocation unchanged by probes"
           (Mmfair_core.Allocation.rate trace.Allocator.allocation r)
           (Mmfair_core.Allocation.rate alloc r))

let test_registry_counts_rounds () =
  let net = corpus_net () in
  let trace = Allocator.max_min_trace net in
  let r = Registry.create () in
  ignore (Probe.with_sink (Registry.sink r) (fun () -> Allocator.max_min net));
  Alcotest.(check int)
    "solver.rounds.total equals reported rounds"
    (List.length trace.Allocator.rounds)
    (Registry.counter_value (Registry.counter r "solver.rounds.total"));
  Alcotest.(check int)
    "per-solver counter agrees"
    (List.length trace.Allocator.rounds)
    (Registry.counter_value (Registry.counter r "solver.rounds.Allocator"))

(* --- simulator probes --- *)

let test_sim_probes () =
  let scheduled = ref 0 and fired = ref 0 and dropped = ref 0 and depth_max = ref 0 in
  let on_sim = function
    | Obs.Events.Scheduled { depth; _ } ->
        incr scheduled;
        if depth > !depth_max then depth_max := depth
    | Obs.Events.Fired _ -> incr fired
    | Obs.Events.Dropped { count } -> dropped := !dropped + count
  in
  let eng = Engine.create () in
  Probe.with_sink
    (Sink.make ~on_sim ())
    (fun () ->
      Engine.schedule eng ~delay:1.0 `A;
      Engine.schedule eng ~delay:2.0 `B;
      Engine.schedule eng ~delay:3.0 `C;
      Engine.run eng ~handler:(fun _ ev ->
          (* reschedule once from inside a handler *)
          if ev = `A then Engine.schedule eng ~delay:10.0 `D;
          if ev = `D then Engine.Stop else Engine.Continue);
      Engine.reset eng);
  Alcotest.(check int) "scheduled" 4 !scheduled;
  Alcotest.(check int) "fired" 4 !fired;
  Alcotest.(check int) "high-water depth" 3 !depth_max;
  Alcotest.(check int) "nothing dropped on empty reset" 0 !dropped

let test_sim_drop_and_hwm () =
  let dropped = ref 0 in
  let q = Event_queue.create () in
  Event_queue.add q ~time:1.0 "a";
  Event_queue.add q ~time:2.0 "b";
  ignore (Event_queue.pop q);
  Alcotest.(check int) "hwm survives pops" 2 (Event_queue.high_water_mark q);
  Probe.with_sink
    (Sink.make ~on_sim:(function Obs.Events.Dropped { count } -> dropped := count | _ -> ()) ())
    (fun () -> Event_queue.clear q);
  Alcotest.(check int) "clear reports pending drop" 1 !dropped;
  Alcotest.(check int) "hwm reset by clear" 0 (Event_queue.high_water_mark q)

(* --- exporters --- *)

let read_file file =
  let ic = open_in_bin file in
  let len = in_channel_length ic in
  let body = really_input_string ic len in
  close_in ic;
  body

let test_golden_trace () =
  (* The committed golden (diffed bit-for-bit by test/golden's dune
     rule) must parse as JSON and agree with the allocator's reported
     rounds. *)
  let body = read_file "golden/trace_figure2.json" in
  let doc = Json.parse body in
  let events =
    match Json.member "traceEvents" doc with
    | Some (Json.List l) -> l
    | _ -> Alcotest.fail "golden trace missing traceEvents"
  in
  let round_instants =
    List.filter
      (fun ev ->
        Json.member "name" ev = Some (Json.Str "round")
        && Json.member "ph" ev = Some (Json.Str "i"))
      events
  in
  let trace = Allocator.max_min_trace (corpus_net ()) in
  Alcotest.(check int)
    "golden round instants match allocator rounds"
    (List.length trace.Allocator.rounds)
    (List.length round_instants)

let test_chrome_trace_close_idempotent () =
  let buf = Buffer.create 256 in
  let writer = Obs.Chrome_trace.create ~clock:(ticking_clock ()) ~emit:(Buffer.add_string buf) () in
  Probe.with_sink (Obs.Chrome_trace.sink writer) (fun () -> Probe.round dummy_round);
  Obs.Chrome_trace.close writer;
  Obs.Chrome_trace.close writer;
  let after_close = Obs.Chrome_trace.event_count writer in
  Probe.with_sink (Obs.Chrome_trace.sink writer) (fun () -> Probe.round dummy_round);
  Alcotest.(check int) "events after close dropped" after_close (Obs.Chrome_trace.event_count writer);
  match Json.parse (Buffer.contents buf) with
  | Json.Obj _ -> ()
  | _ -> Alcotest.fail "closed trace is not a JSON object"

(* The committed bench files' layout: nested containers one member per
   line, all-scalar ones inline; numbers as in to_string. *)
let test_json_indented () =
  let v =
    Json.Obj
      [
        ("a", Json.Num 1.0);
        ("row", Json.Obj [ ("k", Json.Str "x"); ("t", Json.fixed 1 12.345) ]);
        ("xs", Json.List [ Json.Num 0.5; Json.Null ]);
        ("rows", Json.List [ Json.Obj [ ("d", Json.Num 4.0) ]; Json.Obj [] ]);
      ]
  in
  Alcotest.(check string) "layout"
    "{\n\
    \  \"a\": 1,\n\
    \  \"row\": { \"k\": \"x\", \"t\": 12.3 },\n\
    \  \"xs\": [0.5, null],\n\
    \  \"rows\": [\n\
    \    { \"d\": 4 },\n\
    \    {}\n\
    \  ]\n\
     }\n"
    (Json.to_string_indented v);
  Alcotest.(check bool) "parses back" true (Json.parse (Json.to_string_indented v) = v)

(* Reader failures name the key path they were reading, through [each]
   as well. *)
let test_json_reader_paths () =
  let doc = Json.parse {|{"a":{"b":[{"c":1},{"c":-2}]},"s":""}|} in
  let bad f =
    match f () with _ -> Alcotest.fail "reader accepted a bad value" | exception Json.Bad m -> m
  in
  Alcotest.(check string) "each + num bound" ".a.b[1].c: want a number >= 0, got -2"
    (bad (fun () -> Json.each [ "a"; "b" ] (Json.num ~min:0.0 [ "c" ]) doc));
  Alcotest.(check string) "missing" ".a.z: missing" (bad (fun () -> Json.get [ "a"; "z" ] doc));
  Alcotest.(check string) "empty string" ".s: want a non-empty string"
    (bad (fun () -> Json.str [ "s" ] doc));
  Alcotest.(check (list (float 0.0))) "good reads" [ 1.0; -2.0 ]
    (Json.each [ "a"; "b" ] (Json.num [ "c" ]) doc)

let suite =
  [
    Alcotest.test_case "Json roundtrip" `Quick test_json_roundtrip;
    Alcotest.test_case "counter monotonicity" `Quick test_counter_monotonic;
    Alcotest.test_case "instrument kind clash" `Quick test_kind_clash;
    Alcotest.test_case "histogram bucketing = Mmfair_stats.Histogram" `Quick
      test_histogram_matches_stats;
    Alcotest.test_case "snapshot determinism" `Quick test_snapshot_deterministic;
    Alcotest.test_case "gauge set_max" `Quick test_gauge_set_max;
    Alcotest.test_case "prometheus exposition" `Quick test_prometheus_shape;
    Alcotest.test_case "log histogram snapshot" `Quick test_log_histogram_snapshot;
    Alcotest.test_case "prometheus log histogram lint" `Quick test_prometheus_log_histogram_lint;
    Alcotest.test_case "timeseries windows + downsampling" `Quick test_timeseries_windows;
    Alcotest.test_case "timeseries JSONL determinism" `Quick test_timeseries_jsonl_deterministic;
    Alcotest.test_case "fairness probe bridged to registry" `Quick test_fairness_probe_bridged;
    Alcotest.test_case "pool event emitted" `Quick test_pool_event_emitted;
    Alcotest.test_case "span nesting and ordering" `Quick test_span_nesting;
    Alcotest.test_case "mismatched span end dropped" `Quick test_span_mismatch_dropped;
    Alcotest.test_case "null sink is a no-op" `Quick test_null_sink_noop;
    Alcotest.test_case "with_sink restores on exception" `Quick
      test_with_sink_restores_on_exception;
    Alcotest.test_case "tee composition" `Quick test_tee;
    Alcotest.test_case "allocator probe stream = trace rounds" `Quick
      test_allocator_stream_matches_trace;
    Alcotest.test_case "registry counts allocator rounds" `Quick test_registry_counts_rounds;
    Alcotest.test_case "simulator probes" `Quick test_sim_probes;
    Alcotest.test_case "queue drop + high-water mark" `Quick test_sim_drop_and_hwm;
    Alcotest.test_case "golden Chrome trace agrees with rounds" `Quick test_golden_trace;
    Alcotest.test_case "Chrome trace close idempotent" `Quick test_chrome_trace_close_idempotent;
    Alcotest.test_case "Json indented layout" `Quick test_json_indented;
    Alcotest.test_case "Json reader key paths" `Quick test_json_reader_paths;
  ]
