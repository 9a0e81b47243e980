(* Every gate the bench checkers enforce, pinned on the committed
   documents: BENCH_allocator.json and BENCH_churn.json pass as they
   are, and a copy with a single value moved to its threshold still
   passes while one moved just past it fails.  Quick documents must
   skip the timing gates but keep the deterministic ones. *)

module Json = Mmfair_obs.Json
module Checks = Mmfair_bench.Checks
module Obs = Mmfair_obs
module Batch = Mmfair_dynamic.Batch
module Event = Mmfair_dynamic.Event

let allocator_doc = lazy (Json.load "../BENCH_allocator.json")
let churn_doc = lazy (Json.load "../BENCH_churn.json")

(* A step into a document: an object key, or the array elements whose
   [field] equals [value]. *)
type step = K of string | Where of string * Json.t

let rec update path f v =
  match (path, v) with
  | [], _ -> f v
  | K k :: rest, Json.Obj fields ->
      Json.Obj (List.map (fun (k', x) -> (k', if k' = k then update rest f x else x)) fields)
  | Where (k, want) :: rest, Json.List l ->
      Json.List (List.map (fun x -> if Json.member k x = Some want then update rest f x else x) l)
  | _ -> Alcotest.fail "test path does not fit the document"

let set path x doc =
  let doc' = update path (fun _ -> x) doc in
  if doc' = doc then Alcotest.fail "test edit changed nothing";
  doc'

let num x = Json.Num x

let passes check doc =
  match check doc with
  | _ -> ()
  | exception Json.Bad m -> Alcotest.failf "unexpected gate failure: %s" m

let contains m part =
  let n = String.length part in
  let rec found i = i + n <= String.length m && (String.sub m i n = part || found (i + 1)) in
  found 0

(* The failure must come from the gate under test: its message names
   [because] (the gated key, or the gate's own words). *)
let fails check ~because doc =
  match check doc with
  | _ -> Alcotest.fail "gate did not fire"
  | exception Json.Bad m ->
      if not (contains m because) then Alcotest.failf "failed for another reason: %s" m

(* [at] sits on the threshold (allowed), [past] just beyond it. *)
let gate check doc ?because path ~at ~past () =
  let because =
    match (because, List.rev path) with Some b, _ -> b | None, K k :: _ -> k | _ -> assert false
  in
  passes check (set path (num at) (Lazy.force doc));
  fails check ~because (set path (num past) (Lazy.force doc))

let churn_gate = gate Checks.churn churn_doc
let allocator_gate = gate Checks.allocator allocator_doc

let test_committed_pass () =
  passes Checks.allocator (Lazy.force allocator_doc);
  passes Checks.churn (Lazy.force churn_doc)

let klass kind = [ K "classes"; Where ("kind", Json.Str kind); K "median_speedup" ]
let par4 = [ K "parallel"; K "rows"; Where ("domains", num 4.0); K "speedup_vs_1" ]
let host_cpus = [ K "parallel"; K "host_cpus" ]
let serving k = [ K "serving"; K k ]
let duty = [ K "serving"; K "sampler"; K "duty_cycle" ]
let stab load k = [ K "stability"; K "rows"; Where ("load", num load); K k ]
let curve name k = [ K "curves"; Where ("name", Json.Str name); K k ]

let test_parallel_gate () =
  let doc n = set host_cpus (num n) (Lazy.force churn_doc) in
  (* The committed file's host had 1 CPU: the gate is waived. *)
  passes Checks.churn (set par4 (num 1.0) (doc 3.0));
  passes Checks.churn (set par4 (num 2.0) (doc 4.0));
  fails Checks.churn ~because:"parallel speedup" (set par4 (num 1.99) (doc 4.0))

let flip_verdicts doc =
  fails Checks.churn ~because:"verdict at rho=0.8"
    (set (stab 0.8 "verdict") (Json.Str "divergent") doc);
  fails Checks.churn ~because:"verdict at rho=1.2" (set (stab 1.2 "verdict") (Json.Str "stable") doc)

let test_stability_verdicts () = flip_verdicts (Lazy.force churn_doc)

let test_samples_gate () =
  let doc = Lazy.force allocator_doc in
  let entry = [ K "entries"; Where ("name", Json.Str "fig1/allocate") ] in
  let best = Json.num [ "time_ns" ] (List.hd (Json.items [ "entries" ] doc)) in
  let samples xs = set (entry @ [ K "samples_ns" ]) (Json.List (List.map num xs)) doc in
  passes Checks.allocator (samples [ best; best +. 1.0 ]);
  fails Checks.allocator ~because:"samples_ns[1]" (samples [ best +. 1.0; best -. 0.1 ])

(* Quick documents record every section but skip the timing gates; the
   fixed-seed stability verdicts and the power-law solve exponent still
   gate. *)
let test_quick_skips_timing () =
  let quick doc = set [ K "quick" ] (Json.Bool true) (Lazy.force doc) in
  let slow_churn =
    List.fold_left
      (fun doc (path, x) -> set path (num x) doc)
      (set host_cpus (num 8.0) (quick churn_doc))
      [
        (klass "join", 1.0); (klass "leave", 1.0); ([ K "batch"; K "speedup" ], 1.0);
        (par4, 1.0); (serving "events_per_s", 10.0); (serving "max_staleness_s", 2.0);
        (duty, 0.5); (stab 0.8 "events_per_s", 10.0);
      ]
  in
  passes Checks.churn slow_churn;
  flip_verdicts slow_churn;
  let slow_alloc = set (curve "fat-tree" "event_exponent") (num 1.5) (quick allocator_doc) in
  passes Checks.allocator slow_alloc;
  fails Checks.allocator ~because:"solve_exponent"
    (set (curve "power-law" "solve_exponent") (num 1.5) slow_alloc)

(* The --validate summaries are the one place the committed headlines
   are read back, so they must carry them: per allocator curve the
   fitted exponents and the largest point's size and live words; for
   churn the generating host's CPU count and the stability tails at
   load 0.8. *)
let test_summaries () =
  let has summary part =
    if not (contains summary part) then Alcotest.failf "summary lacks %S: %s" part summary
  in
  let alloc = Checks.allocator (Lazy.force allocator_doc) in
  List.iter (has alloc)
    [
      "fat-tree build/solve/event exponents 1.061/0.982/0.758";
      "largest point 104976 sessions at 7281786 peak live words";
      "power-law build/solve/event exponents 1.088/1.326/0.863";
      "largest point 8192 sessions at 1070417 peak live words";
    ];
  let churn = Checks.churn (Lazy.force churn_doc) in
  List.iter (has churn)
    [
      "parallel 1.36x at 4 domains on a 1-CPU host"; "serving 7812 events/s";
      "sojourn p50/p99 0.6813/12.12"; "flow rate p50/p99 1.212/4.642";
    ]

(* --check-overhead's baselines: the linear-100 entry's time and the
   fat-tree k=16 point's live words, read as the committed numbers. *)
let test_overhead_baseline () =
  let time_ns, words = Checks.overhead_baseline (Lazy.force allocator_doc) in
  Alcotest.(check (float 0.0)) "time_ns" 146313.1 time_ns;
  Alcotest.(check (option (float 0.0))) "k=16 words" (Some 994687.0) words;
  let quick_like =
    set (curve "fat-tree" "points")
      (Json.List [ Json.Obj [ ("label", Json.Str "k=6"); ("peak_live_words", num 1.0) ] ])
      (Lazy.force allocator_doc)
  in
  Alcotest.(check (option (float 0.0))) "no k=16 point" None (snd (Checks.overhead_baseline quick_like))

(* A trace of one churn epoch, as the Chrome writer emits it, passes;
   dropping any one arg from its "epoch" instant fails, and the message
   names the dropped key's path. *)
let test_trace_epoch_args () =
  let buf = Buffer.create 1024 in
  let writer = Obs.Chrome_trace.create ~emit:(Buffer.add_string buf) () in
  let { Mmfair_workload.Paper_nets.net; _ } = Mmfair_workload.Paper_nets.figure2 () in
  Obs.Probe.with_sink (Obs.Chrome_trace.sink writer) (fun () ->
      let eng = Batch.create net in
      ignore (Batch.apply eng [ Event.Rho_change { session = 1; rho = 2.0 } ]));
  Obs.Chrome_trace.close writer;
  let doc = Json.parse (Buffer.contents buf) in
  passes Checks.trace doc;
  let events = Json.items [ "traceEvents" ] doc in
  let i =
    match List.find_index (fun ev -> Json.member "name" ev = Some (Json.Str "epoch")) events with
    | Some i -> i
    | None -> Alcotest.fail "no epoch instant in the trace"
  in
  let args = Json.obj [ "args" ] (List.nth events i) in
  List.iter
    (fun (k, _) ->
      let without =
        update
          [ K "traceEvents"; Where ("name", Json.Str "epoch"); K "args" ]
          (fun _ -> Json.Obj (List.remove_assoc k args))
          doc
      in
      fails Checks.trace ~because:(Printf.sprintf ".traceEvents[%d].args.%s: missing" i k) without)
    args;
  Alcotest.(check int) "every merged key is checked" 15 (List.length args)

let suite =
  [
    Alcotest.test_case "committed bench files pass" `Quick test_committed_pass;
    Alcotest.test_case "churn join >= 3x" `Quick
      (churn_gate (klass "join") ~at:3.0 ~past:2.99);
    Alcotest.test_case "churn leave >= 3x" `Quick
      (churn_gate (klass "leave") ~at:3.0 ~past:2.99);
    Alcotest.test_case "churn batch >= 1.5x" `Quick
      (churn_gate [ K "batch"; K "speedup" ] ~at:1.5 ~past:1.49);
    Alcotest.test_case "churn parallel >= 2x at 4 domains, waived below 4 CPUs" `Quick
      test_parallel_gate;
    Alcotest.test_case "churn serving >= 1000 events/s" `Quick
      (churn_gate (serving "events_per_s") ~at:1000.0 ~past:999.9);
    Alcotest.test_case "churn serving staleness <= 0.5 s" `Quick
      (churn_gate (serving "max_staleness_s") ~at:0.5 ~past:0.501);
    Alcotest.test_case "churn sampler duty <= 5%" `Quick (churn_gate duty ~at:0.05 ~past:0.0501);
    Alcotest.test_case "churn stability verdicts" `Quick test_stability_verdicts;
    Alcotest.test_case "churn stability >= 200 events/s" `Quick
      (churn_gate ~because:"stability throughput" (stab 0.8 "events_per_s") ~at:200.0 ~past:199.9);
    Alcotest.test_case "allocator fat-tree event exponent < 1" `Quick
      (allocator_gate (curve "fat-tree" "event_exponent") ~at:0.999 ~past:1.0);
    Alcotest.test_case "allocator power-law solve exponent < 1.5" `Quick
      (allocator_gate (curve "power-law" "solve_exponent") ~at:1.499 ~past:1.5);
    Alcotest.test_case "allocator samples_ns >= time_ns" `Quick test_samples_gate;
    Alcotest.test_case "quick documents skip the timing gates" `Quick test_quick_skips_timing;
    Alcotest.test_case "summaries carry the committed headlines" `Quick test_summaries;
    Alcotest.test_case "overhead baselines read from the file" `Quick test_overhead_baseline;
    Alcotest.test_case "trace epoch instants carry every arg" `Quick test_trace_epoch_args;
  ]
