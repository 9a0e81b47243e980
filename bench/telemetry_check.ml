(* Shape validator for the telemetry artifacts the CLI emits:
   --trace-out's Chrome trace_event JSON and --metrics=FILE's registry
   snapshot.  CI's telemetry smoke step runs both checks on a corpus
   net; when given both files it also cross-checks that the trace's
   solver-round instants agree with the metrics' round counter.
   --stability validates the stability report.  Bench documents are
   validated by their own emitters (scaling.exe --validate,
   churn.exe --validate).

   Run: dune exec bench/telemetry_check.exe -- --trace t.json --metrics m.json *)

module Json = Mmfair_obs.Json

let fail fmt =
  Printf.ksprintf
    (fun s ->
      Printf.eprintf "telemetry_check: %s\n%!" s;
      exit 1)
    fmt

let load file =
  let ic = try open_in_bin file with Sys_error msg -> fail "cannot read %s" msg in
  let len = in_channel_length ic in
  let body = really_input_string ic len in
  close_in ic;
  try Json.parse body with Json.Bad m -> fail "%s is not valid JSON: %s" file m

let str_member k e = match Json.member k e with Some (Json.Str s) -> Some s | _ -> None

(* Chrome trace shape: {"traceEvents": [...]}, every event an object
   with name/cat/ph/ts/pid/tid, ph one of B/E/i/C, instants carrying
   "s".  Returns the number of solver-round instants. *)
let check_trace file =
  let doc = load file in
  let events =
    match Json.member "traceEvents" doc with
    | Some (Json.List l) -> l
    | _ -> fail "%s: missing \"traceEvents\" array" file
  in
  let rounds = ref 0 in
  List.iteri
    (fun i ev ->
      let ctx = Printf.sprintf "%s: traceEvents[%d]" file i in
      let name =
        match str_member "name" ev with Some s when s <> "" -> s | _ -> fail "%s: missing \"name\"" ctx
      in
      let ph =
        match str_member "ph" ev with
        | Some (("B" | "E" | "i" | "C") as p) -> p
        | Some p -> fail "%s: unexpected phase %S" ctx p
        | None -> fail "%s: missing \"ph\"" ctx
      in
      (match Json.member "ts" ev with
      | Some (Json.Num ts) when ts >= 0.0 -> ()
      | _ -> fail "%s: missing non-negative \"ts\"" ctx);
      List.iter
        (fun k ->
          match Json.member k ev with
          | Some (Json.Num _) -> ()
          | _ -> fail "%s: missing numeric %S" ctx k)
        [ "pid"; "tid" ];
      if ph = "i" && Json.member "s" ev = None then fail "%s: instant without scope \"s\"" ctx;
      if name = "round" && ph = "i" then begin
        match Json.member "args" ev with
        | Some (Json.Obj _ as args) ->
            List.iter
              (fun k -> if Json.member k args = None then fail "%s: round instant missing args.%s" ctx k)
              [ "solver"; "round"; "level"; "increment"; "active"; "residual_slack" ];
            incr rounds
        | _ -> fail "%s: round instant without args" ctx
      end)
    events;
  Printf.printf "%s: %d trace events, %d solver rounds OK\n%!" file (List.length events) !rounds;
  !rounds

(* Metrics snapshot shape: schema id, counters/gauges objects, and
   histograms whose "counts" length matches "bins".  Returns
   solver.rounds.total. *)
let check_metrics file =
  let doc = load file in
  (match Json.member "schema" doc with
  | Some (Json.Str s) when s = Mmfair_obs.Registry.schema_id -> ()
  | _ -> fail "%s: missing or wrong \"schema\" (want %s)" file Mmfair_obs.Registry.schema_id);
  let obj k =
    match Json.member k doc with
    | Some (Json.Obj fields) -> fields
    | _ -> fail "%s: missing %S object" file k
  in
  let counters = obj "counters" in
  List.iter
    (function
      | _, Json.Num v when v >= 0.0 && Float.is_integer v -> ()
      | k, _ -> fail "%s: counter %S is not a non-negative integer" file k)
    counters;
  List.iter
    (function _, Json.Num _ -> () | k, _ -> fail "%s: gauge %S is not numeric" file k)
    (obj "gauges");
  List.iter
    (fun (k, h) ->
      let num f =
        match Json.member f h with
        | Some (Json.Num v) -> v
        | _ -> fail "%s: histogram %S missing numeric %S" file k f
      in
      let bins = num "bins" in
      ignore (num "lo");
      ignore (num "hi");
      ignore (num "count");
      ignore (num "sum");
      ignore (num "underflow");
      ignore (num "overflow");
      match Json.member "counts" h with
      | Some (Json.List counts) when List.length counts = int_of_float bins -> ()
      | _ -> fail "%s: histogram %S \"counts\" length does not match \"bins\"" file k)
    (obj "histograms");
  List.iter
    (fun (k, h) ->
      let num f =
        match Json.member f h with
        | Some (Json.Num v) -> v
        | _ -> fail "%s: log histogram %S missing numeric %S" file k f
      in
      let bins = num "bins" in
      let lo = num "lo" and hi = num "hi" in
      if not (0.0 < lo && lo < hi) then
        fail "%s: log histogram %S needs 0 < lo < hi" file k;
      ignore (num "sum");
      let count = num "count" in
      let underflow = num "underflow" and overflow = num "overflow" in
      (* Quantiles and max degrade to null while the histogram is
         empty (JSON has no NaN); once populated they must be numbers. *)
      List.iter
        (fun f ->
          match Json.member f h with
          | Some (Json.Num _) -> ()
          | Some Json.Null when count = 0.0 -> ()
          | _ -> fail "%s: log histogram %S missing numeric %S" file k f)
        [ "p50"; "p90"; "p99"; "max" ];
      match Json.member "counts" h with
      | Some (Json.List counts) when List.length counts = int_of_float bins ->
          let in_range =
            List.fold_left
              (fun acc c ->
                match c with
                | Json.Num v when v >= 0.0 && Float.is_integer v -> acc +. v
                | _ -> fail "%s: log histogram %S has a non-integer bucket count" file k)
              0.0 counts
          in
          if in_range +. underflow +. overflow <> count then
            fail "%s: log histogram %S bucket counts do not sum to \"count\"" file k
      | _ -> fail "%s: log histogram %S \"counts\" length does not match \"bins\"" file k)
    (obj "log_histograms");
  let rounds =
    match List.assoc_opt "solver.rounds.total" counters with
    | Some (Json.Num v) -> int_of_float v
    | _ -> fail "%s: missing counter \"solver.rounds.total\"" file
  in
  Printf.printf "%s: schema %s OK, solver.rounds.total = %d\n%!" file
    Mmfair_obs.Registry.schema_id rounds;
  rounds

(* Stability report shape: {"schema": "mmfair.stability/v1", scenario
   metadata, "runs": [...]}.  Each run carries the population-drift
   verdict plus sojourn/flow-rate tail summaries; consistency checks
   mirror the physics invariants the simulator maintains (departures
   never exceed arrivals, quantiles are ordered, counts balance). *)
let check_stability file =
  let doc = load file in
  (match Json.member "schema" doc with
  | Some (Json.Str "mmfair.stability/v1") -> ()
  | _ -> fail "%s: missing or wrong \"schema\" (want mmfair.stability/v1)" file);
  (match str_member "scenario" doc with
  | Some ("star" | "single") -> ()
  | _ -> fail "%s: \"scenario\" must be \"star\" or \"single\"" file);
  (match str_member "workload" doc with
  | Some s when s <> "" -> ()
  | _ -> fail "%s: missing \"workload\" string" file);
  (match Json.member "horizon" doc with
  | Some (Json.Num h) when h > 0.0 -> ()
  | _ -> fail "%s: missing positive \"horizon\"" file);
  let runs =
    match Json.member "runs" doc with
    | Some (Json.List l) when l <> [] -> l
    | _ -> fail "%s: missing non-empty \"runs\" array" file
  in
  List.iteri
    (fun i run ->
      let ctx = Printf.sprintf "%s: runs[%d]" file i in
      let num k =
        match Json.member k run with
        | Some (Json.Num v) when v >= 0.0 -> v
        | _ -> fail "%s: missing non-negative numeric %S" ctx k
      in
      (match str_member "verdict" run with
      | Some ("stable" | "divergent" | "inconclusive") -> ()
      | _ -> fail "%s: \"verdict\" must be stable/divergent/inconclusive" ctx);
      ignore (num "load");
      let arrivals = num "arrivals" in
      let departures = num "departures" in
      let blocked = num "blocked" in
      let final_pop = num "final_population" in
      if departures +. blocked +. final_pop <> arrivals then
        fail "%s: arrivals %.0f != departures %.0f + blocked %.0f + final_population %.0f" ctx
          arrivals departures blocked final_pop;
      if num "max_population" < final_pop then
        fail "%s: max_population below final_population" ctx;
      List.iter (fun k -> ignore (num k)) [ "epochs"; "applied_events"; "regenerations" ];
      List.iter
        (fun (k, expected_count) ->
          let h =
            match Json.member k run with
            | Some (Json.Obj _ as h) -> h
            | _ -> fail "%s: missing %S histogram object" ctx k
          in
          let count =
            match Json.member "count" h with
            | Some (Json.Num c) when c >= 0.0 -> c
            | _ -> fail "%s: %s missing non-negative \"count\"" ctx k
          in
          if count <> expected_count then
            fail "%s: %s count %.0f does not match departures %.0f" ctx k count expected_count;
          let q f =
            match Json.member f h with
            | Some (Json.Num v) when v >= 0.0 -> v
            | Some Json.Null when count = 0.0 -> 0.0
            | _ -> fail "%s: %s missing non-negative %S" ctx k f
          in
          let p50 = q "p50" and p99 = q "p99" and max_v = q "max" in
          ignore (q "mean");
          ignore (q "p90");
          if p50 > p99 then fail "%s: %s p50 %.4g > p99 %.4g" ctx k p50 p99;
          (* p99 is a log-bucket upper-edge estimate, so it can sit one
             bucket above the exact maximum; allow that slack. *)
          if p99 > max_v *. 1.25 then fail "%s: %s p99 %.4g implausibly above max %.4g" ctx k p99 max_v)
        [ ("sojourn", departures); ("flow_rate", departures) ])
    runs;
  Printf.printf "%s: schema mmfair.stability/v1 OK, %d runs\n%!" file (List.length runs)

let () =
  let trace = ref None in
  let metrics = ref None in
  let stability = ref None in
  let args =
    [
      ("--trace", Arg.String (fun f -> trace := Some f), "FILE Chrome trace JSON to validate");
      ("--metrics", Arg.String (fun f -> metrics := Some f), "FILE metrics snapshot JSON to validate");
      ( "--stability",
        Arg.String (fun f -> stability := Some f),
        "FILE mmfair stability --json report to validate" );
    ]
  in
  Arg.parse (Arg.align args)
    (fun a -> raise (Arg.Bad (Printf.sprintf "unexpected argument %S" a)))
    "telemetry_check.exe: validate mmfair telemetry artifacts";
  if !trace = None && !metrics = None && !stability = None then
    fail "nothing to do: pass --trace, --metrics, and/or --stability";
  Option.iter check_stability !stability;
  let trace_rounds = Option.map check_trace !trace in
  let metric_rounds = Option.map check_metrics !metrics in
  match (trace_rounds, metric_rounds) with
  | Some t, Some m when t <> m ->
      fail "trace has %d solver-round instants but metrics count %d rounds" t m
  | Some _, Some _ -> Printf.printf "trace and metrics round counts agree\n%!"
  | _ -> ()
