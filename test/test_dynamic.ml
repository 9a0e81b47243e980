(* Dynamic engine tests: engine-vs-scratch agreement on the paper's
   networks (including Figure 3's intra-session rate swings replayed
   as churn), the epoch counter, the leave/rejoin
   restoration property (a receiver that leaves and immediately
   rejoins puts every rate back where it was), .churn parsing
   diagnostics, generator determinism, and epoch probe emission into
   the metrics registry.

   Deep cross-checking against from-scratch solves over long random
   traces lives in test/churn_differential.ml (CI-gated); these are
   the unit-level behaviors. *)

module Graph = Mmfair_topology.Graph
module Network = Mmfair_core.Network
module Allocation = Mmfair_core.Allocation
module Allocator = Mmfair_core.Allocator
module Batch = Mmfair_dynamic.Batch
module Event = Mmfair_dynamic.Event
module Paper_nets = Mmfair_workload.Paper_nets
module Random_nets = Mmfair_workload.Random_nets
module Churn_gen = Mmfair_workload.Churn_gen
module Churn_parser = Mmfair_workload.Churn_parser
module Net_parser = Mmfair_workload.Net_parser
module Xoshiro = Mmfair_prng.Xoshiro
module Obs = Mmfair_obs

(* The differential gate's tolerance: relative 1e-9, matching the
   solvers' internal tol_for scaling. *)
let agree a b = Float.abs (a -. b) <= 1e-9 *. Stdlib.max 1.0 (Stdlib.max (Float.abs a) (Float.abs b))

let feq what a b =
  Alcotest.(check bool) (Printf.sprintf "%s: %.17g vs %.17g" what a b) true (agree a b)

let check_matches_scratch what eng =
  let net = Batch.network eng in
  let incremental = Batch.allocation eng in
  let scratch = Allocator.max_min net in
  Array.iter
    (fun (r : Network.receiver_id) ->
      feq
        (Printf.sprintf "%s: receiver (%d,%d)" what r.Network.session r.Network.index)
        (Allocation.rate incremental r) (Allocation.rate scratch r))
    (Network.all_receivers net)

let receiver_node net (r : Network.receiver_id) =
  (Network.session_spec net r.Network.session).Network.receivers.(r.Network.index)

(* --- engine vs scratch on the paper networks -------------------------- *)

let test_engine_on_figure2 () =
  let { Paper_nets.net; _ } = Paper_nets.figure2 ~session1_type:Network.Multi_rate () in
  let eng = Batch.create net in
  (* Multi-rate Figure 2 golden: (2.5, 2, 3) / 2.5. *)
  feq "fig2 a1,1" 2.5 (Allocation.rate (Batch.allocation eng) { Network.session = 0; index = 0 });
  let r13_node = receiver_node net { Network.session = 0; index = 2 } in
  let steps =
    [
      Event.Leave { session = 0; node = r13_node };
      Event.Join { session = 0; node = r13_node; weight = None };
      Event.Rho_change { session = 1; rho = 1.5 };
      Event.Rho_change { session = 1; rho = 100.0 };
      Event.Capacity_change { link = 0; cap = 4.0 };
    ]
  in
  List.iteri
    (fun i ev ->
      ignore (Batch.apply eng [ ev ]);
      check_matches_scratch (Printf.sprintf "fig2 step %d (%s)" i (Event.kind ev)) eng)
    steps;
  Alcotest.(check int) "five epochs applied" 5 (Batch.epoch eng)

(* Figure 3's Section-2.5 examples, replayed as churn: removing r3,2
   drops r3,1 (8 -> 6) while r1,1 rises (2 -> 4) in (a), and raises
   r3,1 (6 -> 7) while r1,1 drops (6 -> 5) in (b). *)
let test_engine_figure3_swings () =
  let check_swing what build ~before ~after =
    let { Paper_nets.net; _ }, victim = build () in
    let (b31, b11), (a31, a11) = (before, after) in
    let eng = Batch.create net in
    feq (what ^ " r3,1 before") b31
      (Allocation.rate (Batch.allocation eng) { Network.session = 2; index = 0 });
    feq (what ^ " r1,1 before") b11
      (Allocation.rate (Batch.allocation eng) { Network.session = 0; index = 0 });
    let node = receiver_node net victim in
    ignore (Batch.apply eng [ Event.Leave { session = victim.Network.session; node } ]);
    check_matches_scratch (what ^ " after leave") eng;
    feq (what ^ " r3,1 after") a31
      (Allocation.rate (Batch.allocation eng) { Network.session = 2; index = 0 });
    feq (what ^ " r1,1 after") a11
      (Allocation.rate (Batch.allocation eng) { Network.session = 0; index = 0 })
  in
  check_swing "fig3a" Paper_nets.figure3a ~before:(8.0, 2.0) ~after:(6.0, 4.0);
  check_swing "fig3b" Paper_nets.figure3b ~before:(6.0, 6.0) ~after:(7.0, 5.0)

(* --- leave + immediate rejoin restores the allocation ------------------ *)

(* The fuzz corpus seeds (fuzz_differential.ml defaults to 42; the
   churn gate runs 41-43): for every receiver whose session keeps at
   least one member, leaving and immediately rejoining must restore
   every receiver's rate — the engine's warm-started component
   re-solve has to walk the allocation back exactly, not just to a
   nearby fixed point. *)
let test_leave_rejoin_restores () =
  List.iter
    (fun seed ->
      let rng = Xoshiro.create ~seed () in
      let config =
        {
          Random_nets.nodes = 10 + Xoshiro.below rng 8;
          extra_links = 3 + Xoshiro.below rng 5;
          sessions = 4 + Xoshiro.below rng 4;
          max_receivers = 4;
          single_rate_prob = 0.3;
          finite_rho_prob = 0.3;
          scaled_vfn_prob = 0.2;
          cap_lo = 1.0;
          cap_hi = 10.0;
        }
      in
      let net = Random_nets.generate ~rng config in
      let base = Allocator.max_min net in
      for i = 0 to Network.session_count net - 1 do
        let receivers = (Network.session_spec net i).Network.receivers in
        if Array.length receivers >= 2 then begin
          let k = Xoshiro.below rng (Array.length receivers) in
          let node = receivers.(k) in
          let eng = Batch.create ~allocation:base net in
          ignore (Batch.apply eng [ Event.Leave { session = i; node } ]);
          ignore (Batch.apply eng [ Event.Join { session = i; node; weight = None } ]);
          let restored = Batch.allocation eng in
          let net' = Batch.network eng in
          (* The rejoined receiver re-enters at the session's tail, so
             compare by node placement, not by index. *)
          for j = 0 to Network.session_count net - 1 do
            let spec = Network.session_spec net j in
            Array.iteri
              (fun k0 node0 ->
                let spec' = Network.session_spec net' j in
                let k' = ref (-1) in
                Array.iteri (fun x n -> if n = node0 && !k' < 0 then k' := x) spec'.Network.receivers;
                Alcotest.(check bool) "receiver survived the round-trip" true (!k' >= 0);
                feq
                  (Printf.sprintf "seed %Ld: leave/rejoin (%d,%d) perturbs (%d,%d)" seed i k j k0)
                  (Allocation.rate base { Network.session = j; index = k0 })
                  (Allocation.rate restored { Network.session = j; index = !k' }))
              spec.Network.receivers
          done
        end
      done)
    [ 41L; 42L; 43L ]

(* --- .churn parsing diagnostics ---------------------------------------- *)

(* The error of a trace that must not parse, as "line N: MESSAGE". *)
let parse_err names text =
  match Churn_parser.parse_items names text with
  | _ -> Alcotest.fail (Printf.sprintf "expected a parse error for %S" text)
  | exception Churn_parser.Parse_error (line, msg) -> Printf.sprintf "line %d: %s" line msg

let starts_with ~prefix s =
  String.length s >= String.length prefix && String.sub s 0 (String.length prefix) = prefix

let test_churn_parser_diagnostics () =
  let names =
    Net_parser.parse_string
      "link l1 a b 5.0\nlink l2 b c 2.0\nsession s1 multi sender=a receivers=c\nsession s2 multi sender=a receivers=b\n"
  in
  (match
     Churn_parser.flatten
       (Churn_parser.parse_items names "# warm-up\n\njoin s2 c w=2.0\nleave s1 c\nrho s1 inf\ncap l2 3.5\n")
   with
  | [ Event.Join { session = 1; weight = Some 2.0; _ }; Event.Leave { session = 0; _ };
      Event.Rho_change { session = 0; rho }; Event.Capacity_change { cap = 3.5; _ } ] ->
      Alcotest.(check bool) "inf lifts the bound" true (rho = infinity)
  | evs -> Alcotest.fail (Printf.sprintf "unexpected parse: %d events" (List.length evs)));
  (* Each malformed line is reported with its 1-based number. *)
  List.iter
    (fun (text, line) ->
      let msg = parse_err names text in
      let prefix = Printf.sprintf "line %d:" line in
      Alcotest.(check bool) (Printf.sprintf "%S -> %S" text msg) true (starts_with ~prefix msg))
    [
      ("jump s1 c", 1);
      ("join s1", 1);
      ("\n\njoin nosuch c", 3);
      ("leave s1 zz", 1);
      ("# ok\ncap l9 1.0", 2);
      ("rho s1 0", 1);
      ("rho s1 wat", 1);
      ("cap l1 nan", 1);
      ("join s1 b w=-1", 1);
    ];
  (* The shipped example must parse against the example network. *)
  let fig2 = Net_parser.parse_string Net_parser.example in
  Alcotest.(check bool) "example trace parses" true
    (Churn_parser.parse_items fig2 Churn_parser.example <> [])

(* --- generator determinism --------------------------------------------- *)

let test_generator_determinism () =
  let { Paper_nets.net; _ } = Paper_nets.figure2 () in
  let gen seed =
    Churn_gen.generate ~rng:(Xoshiro.create ~seed ())
      net { Churn_gen.default with Churn_gen.events = 40; max_receivers = 5 }
  in
  let a = gen 7L and b = gen 7L in
  Alcotest.(check string) "one seed, one trace" (Churn_parser.render a) (Churn_parser.render b);
  Alcotest.(check bool) "different seed, different trace" true
    (Churn_parser.render a <> Churn_parser.render (gen 8L));
  (* Every event is applicable when replayed in order, and joins
     respect the membership cap. *)
  let eng = Batch.create net in
  List.iter
    (fun ev ->
      ignore (Batch.apply eng [ ev ]);
      for i = 0 to Network.session_count (Batch.network eng) - 1 do
        Alcotest.(check bool) "membership cap respected" true
          (Array.length (Network.session_spec (Batch.network eng) i).Network.receivers <= 5)
      done)
    a;
  Alcotest.(check int) "trace drives one epoch per event" (List.length a) (Batch.epoch eng)

(* --- epoch probes reach the metrics registry --------------------------- *)

let test_epoch_probe_registry () =
  let { Paper_nets.net; _ } = Paper_nets.figure2 ~session1_type:Network.Multi_rate () in
  let r = Obs.Registry.create () in
  Obs.Probe.with_sink (Obs.Registry.sink r) (fun () ->
      let eng = Batch.create net in
      let r13_node = receiver_node net { Network.session = 0; index = 2 } in
      ignore (Batch.apply eng [ Event.Leave { session = 0; node = r13_node } ]);
      ignore (Batch.apply eng [ Event.Join { session = 0; node = r13_node; weight = None } ]);
      ignore (Batch.apply eng [ Event.Rho_change { session = 1; rho = 2.0 } ]));
  Alcotest.(check int) "one epoch counter tick per event" 3
    (Obs.Registry.counter_value (Obs.Registry.counter r "dynamic.epochs.total"));
  Alcotest.(check int) "per-kind counters" 1
    (Obs.Registry.counter_value (Obs.Registry.counter r "dynamic.events.leave"))

(* --- failed events leave the engine untouched -------------------------- *)

let test_invalid_event_state_unchanged () =
  let { Paper_nets.net; _ } = Paper_nets.figure2 () in
  let eng = Batch.create net in
  let before = Batch.allocation eng in
  (match Batch.apply_result eng [ Event.Leave { session = 0; node = 999 } ] with
  | Ok _ -> Alcotest.fail "leave of an absent receiver must not succeed"
  | Error _ -> ());
  Alcotest.(check int) "epoch unchanged" 0 (Batch.epoch eng);
  Alcotest.(check bool) "allocation unchanged" true (Batch.allocation eng == before)

let test_leave_errors_name_batch () =
  (* A per-event apply is a singleton batch, so a bad leave names the
     function that actually raised. *)
  let { Paper_nets.net; _ } = Paper_nets.figure2 () in
  let eng = Batch.create net in
  Alcotest.check_raises "absent receiver"
    (Invalid_argument "Dynamic.Batch.apply: session 0 has no receiver on node 999") (fun () ->
      ignore (Batch.apply eng [ Event.Leave { session = 0; node = 999 } ]));
  Alcotest.check_raises "unknown session"
    (Invalid_argument "Dynamic.Batch.apply: leave targets unknown session 99") (fun () ->
      ignore (Batch.apply eng [ Event.Leave { session = 99; node = 0 } ]))

(* --- batch coalescing --------------------------------------------------- *)

(* Compare two allocations by node placement (membership churn shifts
   in-session indices). *)
let check_same_rates what netA allocA netB allocB =
  Alcotest.(check int) (what ^ ": same session count") (Network.session_count netA)
    (Network.session_count netB);
  for i = 0 to Network.session_count netA - 1 do
    let specA = Network.session_spec netA i and specB = Network.session_spec netB i in
    Array.iteri
      (fun k node ->
        let k' = ref (-1) in
        Array.iteri (fun x n -> if n = node && !k' < 0 then k' := x) specB.Network.receivers;
        Alcotest.(check bool) (what ^ ": receiver present in both") true (!k' >= 0);
        feq
          (Printf.sprintf "%s: session %d node %d" what i node)
          (Allocation.rate allocA { Network.session = i; index = k })
          (Allocation.rate allocB { Network.session = i; index = !k' }))
      specA.Network.receivers
  done

let test_batch_matches_per_event () =
  let { Paper_nets.net; _ } = Paper_nets.figure2 ~session1_type:Network.Multi_rate () in
  let burst =
    [
      Event.Leave { session = 0; node = 4 };
      Event.Rho_change { session = 1; rho = 1.5 };
      Event.Capacity_change { link = 0; cap = 4.0 };
    ]
  in
  let per_event = Batch.create net and batched = Batch.create net in
  List.iter (fun ev -> ignore (Batch.apply per_event [ ev ])) burst;
  let stats = Batch.apply batched burst in
  Alcotest.(check int) "three epochs per-event" 3 (Batch.epoch per_event);
  Alcotest.(check int) "one epoch batched" 1 (Batch.epoch batched);
  Alcotest.(check int) "three raw events" 3 stats.Batch.events;
  Alcotest.(check int) "nothing nets out" 3 stats.Batch.net_events;
  Alcotest.(check int) "nothing cancelled" 0 stats.Batch.cancelled;
  check_same_rates "batched vs per-event" (Batch.network per_event)
    (Batch.allocation per_event) (Batch.network batched) (Batch.allocation batched);
  check_matches_scratch "batched vs scratch" batched

let test_batch_cancellation () =
  let { Paper_nets.net; _ } = Paper_nets.figure2 ~session1_type:Network.Multi_rate () in
  let eng = Batch.create net in
  let before = Batch.allocation eng in
  let stats =
    Batch.apply eng
      [ Event.Leave { session = 0; node = 3 }; Event.Join { session = 0; node = 3; weight = None } ]
  in
  Alcotest.(check int) "both events net out" 0 stats.Batch.net_events;
  Alcotest.(check int) "both cancelled" 2 stats.Batch.cancelled;
  Alcotest.(check int) "no solve needed" 0 stats.Batch.solves;
  Alcotest.(check bool) "not a full solve" false stats.Batch.full_solve;
  Alcotest.(check int) "still one epoch" 1 (Batch.epoch eng);
  (* The rejoined receiver moved to the session's tail; rates must be
     identical node-by-node all the same. *)
  check_same_rates "pure cancellation leaves rates alone" net before (Batch.network eng)
    (Batch.allocation eng)

let test_batch_last_writer_wins () =
  let { Paper_nets.net; _ } = Paper_nets.figure2 ~session1_type:Network.Multi_rate () in
  let direct = Batch.create net in
  ignore (Batch.apply direct [ Event.Rho_change { session = 1; rho = 2.0 } ]);
  let batched = Batch.create net in
  let stats =
    Batch.apply batched
      [
        Event.Rho_change { session = 1; rho = 0.75 };
        Event.Rho_change { session = 1; rho = 2.0 };
      ]
  in
  Alcotest.(check int) "one surviving rho write" 1 stats.Batch.net_events;
  Alcotest.(check int) "the overwritten one cancelled" 1 stats.Batch.cancelled;
  feq "last write applied" 2.0 (Network.rho (Batch.network batched) 1);
  check_same_rates "last-writer-wins matches a direct write" (Batch.network direct)
    (Batch.allocation direct) (Batch.network batched) (Batch.allocation batched);
  (* A write that lands back on the starting value nets out entirely. *)
  let noop = Batch.create net in
  let stats =
    Batch.apply noop
      [
        Event.Rho_change { session = 1; rho = 1.5 };
        Event.Rho_change { session = 1; rho = Network.rho net 1 };
      ]
  in
  Alcotest.(check int) "round-trip rho nets out" 0 stats.Batch.net_events;
  Alcotest.(check int) "round-trip needs no solve" 0 stats.Batch.solves

let test_batch_empty_rejected () =
  let { Paper_nets.net; _ } = Paper_nets.figure2 () in
  let eng = Batch.create net in
  (match Batch.apply_result eng [] with
  | Ok _ -> Alcotest.fail "an empty batch must be rejected"
  | Error _ -> ());
  Alcotest.(check int) "epoch unchanged" 0 (Batch.epoch eng)

(* --- batch probes reach the metrics registry --------------------------- *)

let test_batch_probe_registry () =
  let { Paper_nets.net; _ } = Paper_nets.figure2 ~session1_type:Network.Multi_rate () in
  let r = Obs.Registry.create () in
  let seen = ref [] in
  let recorder = Obs.Sink.make ~on_epoch:(fun ev -> seen := ev :: !seen) () in
  Obs.Probe.with_sink (Obs.Sink.tee (Obs.Registry.sink r) recorder) (fun () ->
      let eng = Batch.create net in
      ignore
        (Batch.apply eng
           [
             Event.Leave { session = 0; node = 3 };
             Event.Join { session = 0; node = 3; weight = None };
           ]);
      Alcotest.(check int) "one apply, one epoch event" 1 (List.length !seen);
      (* A per-event apply is a singleton batch, so it too counts as a
         batch of one. *)
      ignore (Batch.apply eng [ Event.Rho_change { session = 1; rho = 2.0 } ]));
  (match List.rev !seen with
  | [ coalesced; single ] ->
      Alcotest.(check (list int)) "epochs" [ 1; 2 ] [ coalesced.Obs.Events.epoch; single.epoch ];
      Alcotest.(check (list string)) "kinds" [ "batch"; "rho" ] [ coalesced.kind; single.kind ];
      Alcotest.(check (list int)) "raw events" [ 2; 1 ] [ coalesced.events; single.events ];
      Alcotest.(check (list int)) "cancelled" [ 2; 0 ] [ coalesced.cancelled; single.cancelled ]
  | evs -> Alcotest.failf "want two epoch events, got %d" (List.length evs));
  Alcotest.(check int) "two batches" 2
    (Obs.Registry.counter_value (Obs.Registry.counter r "dynamic.batches.total"));
  Alcotest.(check int) "three raw events" 3
    (Obs.Registry.counter_value (Obs.Registry.counter r "dynamic.batch.events.total"));
  Alcotest.(check int) "two cancelled" 2
    (Obs.Registry.counter_value (Obs.Registry.counter r "dynamic.batch.cancelled.total"));
  Alcotest.(check int) "each batch is one epoch" 2
    (Obs.Registry.counter_value (Obs.Registry.counter r "dynamic.epochs.total"))

(* --- .churn batch blocks ------------------------------------------------ *)

let test_churn_parser_batches () =
  let names =
    Net_parser.parse_string
      "link l1 a b 5.0\nlink l2 b c 2.0\nsession s1 multi sender=a receivers=c\nsession s2 multi sender=a receivers=b\n"
  in
  let text = "join s2 c\nbatch\n  cap l1 4.5\n  leave s1 c\nend\nrho s2 2.0\n" in
  let items = Churn_parser.parse_items names text in
  (match items with
  | [
   Churn_parser.Single (Event.Join { session = 1; _ });
   Churn_parser.Batch [ Event.Capacity_change { cap = 4.5; _ }; Event.Leave { session = 0; _ } ];
   Churn_parser.Single (Event.Rho_change { rho = 2.0; _ });
  ] ->
      ()
  | items -> Alcotest.fail (Printf.sprintf "unexpected items: %d" (List.length items)));
  (* flatten erases the block structure but keeps the order. *)
  Alcotest.(check int) "flatten keeps every event" 4 (List.length (Churn_parser.flatten items));
  (* Malformed block structure, each reported at the right line. *)
  List.iter
    (fun (text, line) ->
      let msg = parse_err names text in
      let prefix = Printf.sprintf "line %d:" line in
      Alcotest.(check bool) (Printf.sprintf "%S -> %S" text msg) true (starts_with ~prefix msg))
    [
      ("batch\nend", 1);
      ("join s2 c\nbatch\njoin s2 c\nbatch", 4);
      ("end", 1);
      ("join s2 c\nbatch\njoin s2 c", 2);
      ("batch now", 1);
      ("batch\njoin s2 c\nend here", 3);
    ];
  (* The shipped example exercises a batch block. *)
  let fig2 = Net_parser.parse_string Net_parser.example in
  Alcotest.(check bool) "example includes a batch" true
    (List.exists
       (function Churn_parser.Batch _ -> true | Churn_parser.Single _ -> false)
       (Churn_parser.parse_items fig2 Churn_parser.example))

(* --- domain-count independence ------------------------------------------ *)

(* The determinism contract of DESIGN.md §13: the batch engine's
   component partition, pack order and merge are all independent of
   the scheduler's parallelism, so replaying one burst at every pool
   size must produce bitwise-identical rates (exact float equality,
   not the differential gate's 1e-9) and identical stats. *)
let qcheck_domains_bitwise_identical =
  QCheck.Test.make ~name:"Batch.apply is bitwise identical at domains 1/2/4" ~count:25
    QCheck.(int_range 0 100_000)
    (fun case ->
      let rng = Xoshiro.create ~seed:(Int64.of_int (0x5eed + case)) () in
      let config =
        {
          Random_nets.nodes = 10 + Xoshiro.below rng 10;
          extra_links = 3 + Xoshiro.below rng 6;
          sessions = 4 + Xoshiro.below rng 5;
          max_receivers = 4;
          single_rate_prob = 0.2;
          finite_rho_prob = 0.3;
          scaled_vfn_prob = 0.2;
          cap_lo = 1.0;
          cap_hi = 10.0;
        }
      in
      let net = Random_nets.generate ~rng config in
      let burst =
        Churn_gen.generate ~rng net
          { Churn_gen.default with Churn_gen.events = 2 + Xoshiro.below rng 8; max_receivers = 5 }
      in
      let base = Allocator.max_min net in
      let replay domains =
        let eng = Batch.create ~domains ~allocation:base net in
        let stats = Batch.apply eng burst in
        (stats, Batch.network eng, Batch.allocation eng)
      in
      let stats1, net1, alloc1 = replay 1 in
      List.for_all
        (fun domains ->
          let stats, _, alloc = replay domains in
          stats = stats1
          && Array.for_all
               (fun (r : Network.receiver_id) ->
                 Allocation.rate alloc r = Allocation.rate alloc1 r)
               (Network.all_receivers net1))
        [ 2; 4 ])

(* Three sessions, each pinned by its own saturated leaf; sessions 0
   and 1 also share a slack trunk, session 2 rides a separate path.
   Returns the net and the batch that lifts all three leaves. *)
let three_leaf_net () =
  let g = Graph.create ~nodes:6 in
  ignore (Graph.add_link g 0 1 4.0);
  let leaf0 = Graph.add_link g 1 2 1.0 in
  let leaf1 = Graph.add_link g 1 3 1.0 in
  ignore (Graph.add_link g 0 4 6.0);
  let leaf2 = Graph.add_link g 4 5 1.0 in
  let net =
    Network.make g
      [|
        Network.session ~sender:0 ~receivers:[| 2 |] ();
        Network.session ~sender:0 ~receivers:[| 3 |] ();
        Network.session ~sender:0 ~receivers:[| 5 |] ();
      |]
  in
  (net, List.map (fun link -> Event.Capacity_change { link; cap = 3.0 }) [ leaf0; leaf1; leaf2 ])

(* --- a pooled solve task that fails surfaces as a typed error ---------- *)

(* The default engine, except that every warm-start solve raises a
   [Failure] — an exception outside the solver contract, which the
   domain pool re-raises as a typed failure of its task. *)
let failing_partial_engine =
  let module Base = (val Mmfair_core.Solve_engine.default : Mmfair_core.Solve_engine.S) in
  let module E = struct
    include Base

    let solve_partial ~sessions:_ ~frozen:_ _ = failwith "solve_partial lost its task"
  end in
  (module E : Mmfair_core.Solve_engine.S)

(* Lifting session 2's leaf re-solves session 2 alone, warm, in one
   task. *)
let test_scheduler_dropped_task () =
  let net, lift_leaves = three_leaf_net () in
  let batch = [ List.nth lift_leaves 2 ] in
  let eng = Batch.create ~solver:failing_partial_engine ~domains:2 net in
  let before = Batch.allocation eng in
  (match Batch.apply_result eng batch with
  | Ok _ -> Alcotest.fail "a failed solve task must not look like success"
  | Error (Mmfair_core.Solver_error.Scheduler_failure { task; _ }) ->
      Alcotest.(check int) "the failed task is blamed" 0 task
  | Error e ->
      Alcotest.fail
        (Printf.sprintf "expected Scheduler_failure, got %s" (Mmfair_core.Solver_error.to_string e)));
  (* The failed batch left the engine at epoch 0 with its allocation
     untouched, and a working solver is all it takes to proceed. *)
  Alcotest.(check int) "epoch unchanged" 0 (Batch.epoch eng);
  Alcotest.(check bool) "allocation unchanged" true (Batch.allocation eng == before);
  let eng2 = Batch.create ~allocation:before net in
  let stats = Batch.apply eng2 batch in
  Alcotest.(check bool) "the replay is a warm start" false stats.Batch.full_solve;
  check_matches_scratch "default replay of the failed batch" eng2

(* --- the two background paths of a batch re-solve ------------------------ *)

(* A solve engine that records, per [solve_partial] call, how many
   sessions it lists and whether the background zeroes the listed
   sessions' rows. *)
let recording_engine calls =
  let module Base = (val Mmfair_core.Solve_engine.default : Mmfair_core.Solve_engine.S) in
  let module E = struct
    include Base

    let solve_partial ~sessions ~frozen net =
      let zeroed =
        Array.for_all
          (fun i -> Array.for_all (fun r -> r = 0.0) (Mmfair_core.Pvec.get frozen i))
          sessions
      in
      calls := (Array.length sessions, zeroed) :: !calls;
      Base.solve_partial ~sessions ~frozen net
  end in
  (module E : Mmfair_core.Solve_engine.S)

(* One batch lifts all three leaves of [three_leaf_net]: the first
   solve lists the whole component (three singleton groups, one task)
   and shares the pinned rows as background; 0 and 1 then rise onto
   the trunk together, the boundary scan merges them, and only that
   dirty pair re-solves — fewer sessions than the component, over the
   zeroed background. *)
let test_batch_background_paths () =
  let net, lift_leaves = three_leaf_net () in
  let calls = ref [] in
  let eng = Batch.create ~solver:(recording_engine calls) net in
  let stats = Batch.apply eng lift_leaves in
  let comp = stats.Batch.component_sessions in
  Alcotest.(check int) "every session is in the component" 3 comp;
  (match List.rev !calls with
  | (n_first, zeroed_first) :: rest ->
      Alcotest.(check int) "first solve lists the whole component" comp n_first;
      Alcotest.(check bool) "whole-component solve shares the pinned rows" false zeroed_first;
      Alcotest.(check bool) "a dirty subset re-solves over the zeroed background" true
        (List.exists (fun (n, zeroed) -> n < comp && zeroed) rest)
  | [] -> Alcotest.fail "no partial solve recorded");
  check_matches_scratch "both background paths" eng

(* Every epoch after the first is a restricted solve, so a solver with
   no warm start is refused up front. *)
let test_batch_rejects_solver_without_partial () =
  let { Paper_nets.net; _ } = Paper_nets.figure2 () in
  Alcotest.check_raises "no warm start, no batch engine"
    (Invalid_argument
       "Dynamic.Batch.create: solver Allocator_reference has no warm-start partial solve")
    (fun () -> ignore (Batch.create ~solver:Mmfair_core.Solve_engine.allocator_reference net))

(* --- persistence of the row vectors -------------------------------------- *)

let rate_bits alloc =
  Array.init
    (Network.session_count (Allocation.network alloc))
    (fun i -> Array.map Int64.bits_of_float (Allocation.rates_of_session alloc i))

(* Epochs share untouched rows and chunks with their predecessors, so a
   later epoch writing into a shared chunk would show in an earlier
   one.  The test holds every epoch's allocation itself; after the
   whole replay each must still read, bit for bit, what the engine held
   right after the batch that made it. *)
let test_epochs_stay_bitwise () =
  let rng = Xoshiro.create ~seed:0x5707eL () in
  let config =
    {
      Random_nets.nodes = 40;
      extra_links = 30;
      sessions = 90;
      max_receivers = 4;
      single_rate_prob = 0.2;
      finite_rho_prob = 0.3;
      scaled_vfn_prob = 0.2;
      cap_lo = 1.0;
      cap_hi = 10.0;
    }
  in
  let net = Random_nets.generate ~rng config in
  let events =
    Churn_gen.generate ~rng net { Churn_gen.default with Churn_gen.events = 120; max_receivers = 5 }
  in
  let eng = Batch.create net in
  (* Epoch number, its allocation, and its bits as it landed; newest first. *)
  let held = ref [ (0, Batch.allocation eng, rate_bits (Batch.allocation eng)) ] in
  (* Batches of one to three consecutive events of the trace. *)
  let rec replay k = function
    | [] -> ()
    | evs ->
        let n = 1 + (k mod 3) in
        ignore (Batch.apply eng (List.filteri (fun j _ -> j < n) evs));
        held := (Batch.epoch eng, Batch.allocation eng, rate_bits (Batch.allocation eng)) :: !held;
        replay (k + 1) (List.filteri (fun j _ -> j >= n) evs)
  in
  replay 0 events;
  (* 120 events in batches of 1, 2, 3, 1, 2, 3, …: 60 epochs. *)
  Alcotest.(check int) "one epoch a batch" 60 (Batch.epoch eng);
  List.iter
    (fun (e, alloc, bits) ->
      Alcotest.(check bool) (Printf.sprintf "epoch %d reads as it landed" e) true (rate_bits alloc = bits))
    !held

(* An engine on the 3,072-session flow-star network after 200 lone ρ
   events, and the event stream: event [k] toggles one slot between
   parked and active. *)
let flow_star_rho_events () =
  let module Scenario = Mmfair_flow.Scenario in
  let scn =
    Scenario.scale_to_load
      (Scenario.star_of_stars ~clusters:32 ~slots:96 ~size:(Mmfair_flow.Size.Exponential 1.0) ~rate:1.0 ())
      ~load:0.8
  in
  let net = Scenario.network scn in
  let m = Network.session_count net in
  Alcotest.(check int) "flow-star size" 3072 m;
  let active = Scenario.active_rho (Scenario.classes scn).(0) and park = Scenario.park_rho scn in
  let on = Array.make m false in
  let event k =
    let s = k * 7919 mod m in
    on.(s) <- not on.(s);
    Event.Rho_change { session = s; rho = (if on.(s) then active else park) }
  in
  let eng = Batch.create net in
  for k = 0 to 199 do
    ignore (Batch.apply eng [ event k ])
  done;
  (eng, event)

(* A ρ-only epoch on the 3,072-session flow-star network copies no
   O(sessions) array.  Arrays above the minor heap's size limit (256
   words) are allocated directly on the major heap, so the direct major
   words per event ([major_words − promoted_words]) would be several
   times the session count with a per-epoch spec, row, component or
   background copy. *)
let test_rho_epoch_major_allocation () =
  let eng, event = flow_star_rho_events () in
  let m = Network.session_count (Batch.network eng) in
  let _, promoted0, major0 = Gc.counters () in
  let n = 1000 in
  for k = 200 to 200 + n - 1 do
    ignore (Batch.apply eng [ event k ])
  done;
  let _, promoted1, major1 = Gc.counters () in
  let direct = (major1 -. major0 -. (promoted1 -. promoted0)) /. float_of_int n in
  Alcotest.(check bool)
    (Printf.sprintf "%.0f direct major words per event < %d" direct m)
    true
    (direct < float_of_int m);
  check_matches_scratch "after 1,200 rho events" eng

(* The words a lone ρ epoch allocates on the minor heap, pinned on the
   flow-star network.  The count is exact for one binary (2,386 words
   per event when this gate was set; 2,819 while the link walks still
   called across modules per cell and boxed the floats they got back);
   the bound leaves about 10 % for compiler and library drift.  An
   O(sessions) array per epoch (3,072 words here), a closure per cell
   on the binding path (about 960 words) or a boxed float per cell of
   the 96-slot trunk (192 words per walk) would cross it. *)
let test_rho_epoch_minor_words () =
  let eng, event = flow_star_rho_events () in
  let n = 1000 in
  let w0 = Gc.minor_words () in
  for k = 200 to 200 + n - 1 do
    ignore (Batch.apply eng [ event k ])
  done;
  let per_event = (Gc.minor_words () -. w0) /. float_of_int n in
  let bound = 2630.0 in
  Alcotest.(check bool)
    (Printf.sprintf "%.1f minor words per event <= %.0f" per_event bound)
    true (per_event <= bound);
  check_matches_scratch "after 1,200 rho events" eng

(* The words one lone join's [Network.surgery_commit] allocates on the
   churn bench's network: every commit starts from the same base, and
   the joins are the bench's join class (the seed-321 trace, joins
   applicable to the base).  A join rebuilds every array of the
   incidence, most of them above the minor heap's size limit, so the
   bulk goes straight to the major heap.  The counts are exact for one
   binary: 3,166 minor and 14,054 direct major words per commit
   ([major_words − promoted_words]) when these bounds were set; each
   bound leaves about 10 % for compiler and library drift.  A commit
   that stops rebuilding the whole incidence should lower them. *)
let test_join_commit_words () =
  let net = Mmfair_workload.Standard_nets.churn_bench () in
  let joins =
    List.filter
      (function
        | Event.Join { session; node; _ } ->
            let spec = Network.session_spec net session in
            spec.Network.sender <> node && not (Array.exists (( = ) node) spec.Network.receivers)
        | Event.Leave _ | Event.Rho_change _ | Event.Capacity_change _ -> false)
      (Churn_gen.generate ~rng:(Xoshiro.create ~seed:321L ()) net
         { Churn_gen.default with Churn_gen.events = 600; max_receivers = 4 })
  in
  let joins = Array.of_list (List.filteri (fun k _ -> k < 15) joins) in
  Alcotest.(check int) "join events" 15 (Array.length joins);
  let commit k =
    let srg = Network.surgery_begin net in
    Event.apply srg joins.(k mod Array.length joins);
    ignore (Network.surgery_commit srg)
  in
  for k = 0 to 99 do
    commit k
  done;
  let n = 2000 in
  let minor0 = Gc.minor_words () and _, promoted0, major0 = Gc.counters () in
  for k = 0 to n - 1 do
    commit k
  done;
  let minor1 = Gc.minor_words () and _, promoted1, major1 = Gc.counters () in
  let per f1 f0 = (f1 -. f0) /. float_of_int n in
  let minor = per minor1 minor0 and direct = per (major1 -. promoted1) (major0 -. promoted0) in
  let minor_bound = 3480.0 and major_bound = 15460.0 in
  Alcotest.(check bool)
    (Printf.sprintf "%.1f minor words per commit <= %.0f" minor minor_bound)
    true (minor <= minor_bound);
  Alcotest.(check bool)
    (Printf.sprintf "%.1f direct major words per commit <= %.0f" direct major_bound)
    true (direct <= major_bound)

(* --- pool telemetry follows the domain count ----------------------------- *)

(* At one domain a batch's solve tasks run in order on the calling
   thread and no [pool] event is emitted.  Above one, every hand-off to
   the domain pool emits exactly one, and the tasks those events count
   are the epoch's solves.  Figure 2's ρ change re-solves in one
   hand-off; lifting the three leaves takes two (the whole component,
   then the merged pair that rose onto the shared trunk). *)
let test_pool_events_per_domains () =
  let pools = ref [] in
  let sink = Obs.Sink.make ~on_pool:(fun ev -> pools := ev :: !pools) () in
  let replay ~domains net events =
    let eng = Batch.create ~domains net in
    pools := [];
    let stats = Obs.Probe.with_sink sink (fun () -> Batch.apply eng events) in
    check_matches_scratch (Printf.sprintf "replay at %d domains" domains) eng;
    (stats, List.rev !pools)
  in
  let { Paper_nets.net = fig2; _ } = Paper_nets.figure2 ~session1_type:Network.Multi_rate () in
  let leaves, lift_leaves = three_leaf_net () in
  List.iter
    (fun (what, net, events, handoffs) ->
      let _, sequential = replay ~domains:1 net events in
      Alcotest.(check int) (what ^ ": no pool event at one domain") 0 (List.length sequential);
      let stats, pooled = replay ~domains:2 net events in
      Alcotest.(check int) (what ^ ": one pool event per hand-off") handoffs (List.length pooled);
      List.iter
        (fun (ev : Obs.Events.pool) ->
          Alcotest.(check int) (what ^ ": pool parallelism") 2 ev.Obs.Events.p_domains)
        pooled;
      Alcotest.(check int) (what ^ ": pooled tasks are the solves") stats.Batch.solves
        (List.fold_left (fun n (ev : Obs.Events.pool) -> n + ev.Obs.Events.p_tasks) 0 pooled))
    [
      ("figure 2 rho change", fig2, [ Event.Rho_change { session = 1; rho = 1.5 } ], 1);
      ("three lifted leaves", leaves, lift_leaves, 2);
    ]

(* --- the domain count is validated at creation --------------------------- *)

let test_batch_rejects_zero_domains () =
  let { Paper_nets.net; _ } = Paper_nets.figure2 () in
  let what = "Dynamic.Batch.create: domains must be >= 1 (got 0)" in
  Alcotest.check_raises "create" (Invalid_argument what) (fun () ->
      ignore (Batch.create ~domains:0 net));
  match Batch.create_result ~domains:0 net with
  | Error (Mmfair_core.Solver_error.Invalid_input { what = got; _ }) ->
      Alcotest.(check string) "create_result" what got
  | Error e ->
      Alcotest.fail
        (Printf.sprintf "expected Invalid_input, got %s" (Mmfair_core.Solver_error.to_string e))
  | Ok _ -> Alcotest.fail "create_result accepted zero domains"

(* --- receivers pinned at their rho stay out ------------------------------ *)

(* Session M's receivers sit behind link L (0-1, cap 2) and behind a
   private fat link (0-3); bystander B shares L and is pinned at its
   rho 1.2.  Lifting M's rho from 0.5 leaves L slack in the old epoch,
   so the component is M alone, and its solve gives M 0.8 on L (10
   off it) while B holds 1.2 — more than M's receiver on L.  B may stay
   out only below the top of M's receivers {e crossing} L: read
   against M's off-link 10 instead, it would keep 1.2 where the
   optimum shares L at 1.0 each. *)
let test_pinned_bystander_off_link () =
  let g = Graph.create ~nodes:4 in
  let _l = Graph.add_link g 0 1 2.0 in
  let _ = Graph.add_link g 1 2 10.0 in
  let _ = Graph.add_link g 0 3 10.0 in
  let net =
    Network.make g
      [|
        Network.session ~rho:0.5 ~sender:0 ~receivers:[| 2; 3 |] ();
        Network.session ~rho:1.2 ~sender:0 ~receivers:[| 1 |] ();
      |]
  in
  let eng = Batch.create net in
  let stats = Batch.apply eng [ Event.Rho_change { session = 0; rho = Float.infinity } ] in
  Alcotest.(check int) "the bystander is absorbed" 2 stats.Batch.component_sessions;
  feq "shared link split evenly" 1.0
    (Allocation.rate (Batch.allocation eng) { Network.session = 1; index = 0 });
  check_matches_scratch "pinned bystander" eng

(* The flow simulator's shape: on a star of stars of 96-slot pools, a
   lone arrival re-solves the trunk's live flows and itself — the
   parked slots on the trunk stay at their rho, outside the
   component.  Component sizes are exact, so this pins on any host. *)
let test_lone_rho_event_component () =
  let module Scenario = Mmfair_flow.Scenario in
  let scn =
    Scenario.star_of_stars ~clusters:4 ~slots:96 ~size:(Mmfair_flow.Size.Exponential 1.0)
      ~rate:1.0 ()
  in
  let net = Scenario.network scn in
  let active = Scenario.active_rho (Scenario.classes scn).(0) in
  let slot k = Scenario.session_of scn ~cls:0 ~slot:k in
  let eng = Batch.create net in
  ignore
    (Batch.apply eng
       (List.init 4 (fun k -> Event.Rho_change { session = slot k; rho = active })));
  let arrive = Batch.apply eng [ Event.Rho_change { session = slot 4; rho = active } ] in
  Alcotest.(check int) "arrival: four live flows plus the seed" 5
    arrive.Batch.component_sessions;
  check_matches_scratch "after the arrival" eng;
  let depart =
    Batch.apply eng [ Event.Rho_change { session = slot 0; rho = Scenario.park_rho scn } ]
  in
  Alcotest.(check int) "departure: the five live flows" 5 depart.Batch.component_sessions;
  check_matches_scratch "after the departure" eng

(* A cluster's last live flow departs: the parked slot re-solves
   alone, and its trunk, still binding under the previous epoch, now
   carries only slots at their ρ.  Each is certified by its own ρ, so
   the trunk is nobody's bottleneck and the boundary scan must not
   flag it: one solve over one session, where absorbing the trunk
   would pull in the cluster's eight slots and solve again. *)
let test_last_departure_solves_once () =
  let module Scenario = Mmfair_flow.Scenario in
  let scn =
    Scenario.star_of_stars ~clusters:2 ~slots:8 ~size:(Mmfair_flow.Size.Exponential 1.0)
      ~rate:1.0 ()
  in
  let slot = Scenario.session_of scn ~cls:0 ~slot:3 in
  let eng = Batch.create (Scenario.network scn) in
  ignore (Batch.apply eng [ Event.Rho_change { session = slot; rho = Float.infinity } ]);
  let park = Batch.apply eng [ Event.Rho_change { session = slot; rho = Scenario.park_rho scn } ] in
  Alcotest.(check int) "one solve" 1 park.Batch.solves;
  Alcotest.(check int) "the parked slot alone" 1 park.Batch.component_sessions;
  let net = Batch.network eng in
  let incremental = Batch.allocation eng and scratch = Allocator.max_min net in
  Array.iter
    (fun (r : Network.receiver_id) ->
      Alcotest.(check int64)
        (Printf.sprintf "receiver (%d,%d) bitwise" r.Network.session r.Network.index)
        (Int64.bits_of_float (Allocation.rate scratch r))
        (Int64.bits_of_float (Allocation.rate incremental r)))
    (Network.all_receivers net)

(* --- carried link usage ----------------------------------------------- *)

(* Every epoch's allocation carries each link's usage, and the carried
   value is [Allocation.link_rate]'s bit for bit: the fairness
   component reads its binding links from it, so one flipped bit could
   grow a different component. *)
let carried_usage_exact eng =
  let alloc = Batch.allocation eng in
  match Allocation.usage alloc with
  | Allocation.Every_link u ->
      let nl = Graph.link_count (Network.graph (Batch.network eng)) in
      Mmfair_core.Pvec.length u = nl
      && List.for_all
           (fun l ->
             Int64.equal
               (Int64.bits_of_float (Mmfair_core.Pvec.get u l))
               (Int64.bits_of_float (Allocation.link_rate alloc l)))
           (List.init nl Fun.id)
  | Allocation.No_usage | Allocation.Solved _ -> false

(* Replays [batches] and checks the carried usage after every epoch;
   returns the engine and the epochs' stats. *)
let replay_carrying ?domains net batches =
  let eng = Batch.create ?domains net in
  if not (carried_usage_exact eng) then QCheck.Test.fail_report "epoch 0 carries no exact usage";
  let stats =
    List.mapi
      (fun k batch ->
        let stats = Batch.apply eng batch in
        if not (carried_usage_exact eng) then
          QCheck.Test.fail_reportf "epoch %d: carried usage differs from link_rate" (k + 1);
        stats)
      batches
  in
  (eng, stats)

let rec chunks n = function
  | [] -> []
  | l ->
      let rec take k acc = function
        | x :: rest when k > 0 -> take (k - 1) (x :: acc) rest
        | rest -> (List.rev acc, rest)
      in
      let c, rest = take n [] l in
      c :: chunks n rest

(* Four shapes per case:
   - a random net's join/leave/ρ/capacity trace at batch size 1 or 16,
     then a leave and rejoin of one node netted out in one batch (the
     session's receivers come back in a new order) — departed paths,
     full-solve fallbacks and rebuilt sessions;
   - two 300-slot clusters whose live flows each fill a trunk, with
     bursts over both clusters at two domains: two packs per solve,
     both touching a shared uplink;
   - a one-session net: a capacity change on an unused link leaves the
     component empty, a netted leave and rejoin reorders the additive
     session's receivers outside any solve, and a ρ change takes the
     full solve, which also gives a restored engine its usages. *)
let qcheck_carried_usage =
  QCheck.Test.make ~name:"carried link usage equals link_rate bitwise" ~count:12
    QCheck.(int_range 0 100_000)
    (fun case ->
      let rng = Xoshiro.create ~seed:(Int64.of_int (0xca77 + case)) () in
      (* Random nets, both batch sizes. *)
      let config =
        {
          Random_nets.nodes = 10 + Xoshiro.below rng 10;
          extra_links = 3 + Xoshiro.below rng 6;
          sessions = 4 + Xoshiro.below rng 5;
          max_receivers = 4;
          single_rate_prob = 0.2;
          finite_rho_prob = 0.3;
          scaled_vfn_prob = 0.2;
          cap_lo = 1.0;
          cap_hi = 10.0;
        }
      in
      let net = Random_nets.generate ~rng config in
      let trace =
        Churn_gen.generate ~rng net
          { Churn_gen.default with Churn_gen.events = 40; max_receivers = 5 }
      in
      List.iter
        (fun size ->
          let eng, _ = replay_carrying net (chunks size trace) in
          let net' = Batch.network eng in
          match
            List.find_opt
              (fun i -> Array.length (Network.session_spec net' i).Network.receivers >= 2)
              (List.init (Network.session_count net') Fun.id)
          with
          | None -> ()
          | Some session ->
              let node = (Network.session_spec net' session).Network.receivers.(0) in
              let stats =
                Batch.apply eng
                  [ Event.Leave { session; node }; Event.Join { session; node; weight = None } ]
              in
              if stats.Batch.net_events <> 0 then QCheck.Test.fail_report "rejoin did not net out";
              if not (carried_usage_exact eng) then
                QCheck.Test.fail_reportf "netted rejoin, batch size %d" size)
        [ 1; 16 ];
      (* Two packs at two domains.  Two clusters of 300 slots behind
         their own trunks share one wide uplink, so both packs' solves
         touch it. *)
      let g = Graph.create ~nodes:6 in
      let _ = Graph.add_link g 0 1 10_000.0 in
      List.iter (fun (a, b, cap) -> ignore (Graph.add_link g a b cap)) [ (1, 2, 4.0); (1, 3, 4.0); (2, 4, 16.0); (3, 5, 16.0) ];
      let park = 1e-9 in
      let slot c k = (300 * c) + k in
      let pools =
        Network.make g
          (Array.init 600 (fun s -> Network.session ~rho:park ~sender:0 ~receivers:[| 4 + (s / 300) |] ()))
      in
      let all_on =
        List.init 600 (fun s -> Event.Rho_change { session = s; rho = Float.infinity })
      in
      let burst () =
        List.init 16 (fun j ->
            Event.Rho_change
              {
                session = slot (j mod 2) (Xoshiro.below rng 300);
                rho = (if Xoshiro.below rng 3 = 0 then park else Float.infinity);
              })
      in
      let _, stats = replay_carrying ~domains:2 pools (all_on :: List.init 3 (fun _ -> burst ())) in
      if not (List.exists (fun st -> st.Batch.solves >= 2 && not st.Batch.full_solve) stats) then
        QCheck.Test.fail_report "no multi-pack epoch";
      (* An additive session on 0.1/0.2/0.3 leaves, whose trunk usage
         depends on the order its receivers are summed in, an unused
         link, and a full solve. *)
      let g = Graph.create ~nodes:7 in
      let _ = Graph.add_link g 0 1 10.0 in
      List.iteri (fun k cap -> ignore (Graph.add_link g 1 (2 + k) cap)) [ 0.1; 0.2; 0.3 ];
      let unused = Graph.add_link g 5 6 5.0 in
      let small =
        Network.make g
          [| Network.session ~vfn:Mmfair_core.Redundancy_fn.Additive ~sender:0 ~receivers:[| 2; 3; 4 |] () |]
      in
      let cap = [ Event.Capacity_change { link = unused; cap = 1.0 +. Xoshiro.float rng } ] in
      let rejoin =
        [ Event.Leave { session = 0; node = 2 }; Event.Join { session = 0; node = 2; weight = None } ]
      in
      let rho = [ Event.Rho_change { session = 0; rho = 0.1 +. Xoshiro.float rng } ] in
      let _, stats = replay_carrying small [ cap; rejoin; rho ] in
      (match stats with
      | [ cap; rejoin; rho ] ->
          if cap.Batch.component_sessions <> 0 then QCheck.Test.fail_report "unused link moved";
          if rejoin.Batch.net_events <> 0 || rejoin.Batch.component_sessions <> 0 then
            QCheck.Test.fail_report "rejoin re-solved";
          if not rho.Batch.full_solve then QCheck.Test.fail_report "no full solve"
      | _ -> assert false);
      (* An engine restored from an allocation without usages folds
         them once and carries exact usages from epoch 0; one restored
         from an engine's allocation adopts it as it is. *)
      let eng = Batch.create ~allocation:(Allocator.max_min small) small in
      if not (carried_usage_exact eng) then QCheck.Test.fail_report "epoch 0 after a restore";
      ignore (Batch.apply eng cap);
      if not (carried_usage_exact eng) then QCheck.Test.fail_report "epoch 1 after a restore";
      let carried = Batch.allocation eng in
      if Batch.allocation (Batch.create ~allocation:carried (Batch.network eng)) != carried then
        QCheck.Test.fail_report "a carried allocation is not adopted";
      ignore (Batch.apply eng rho);
      if not (carried_usage_exact eng) then QCheck.Test.fail_report "full solve after a restore";
      true)

let suite =
  [
    Alcotest.test_case "engine matches scratch on figure 2 churn" `Quick test_engine_on_figure2;
    Alcotest.test_case "figure 3 intra-session swings as churn" `Quick test_engine_figure3_swings;
    Alcotest.test_case "leave then rejoin restores the allocation" `Quick test_leave_rejoin_restores;
    Alcotest.test_case "churn parser diagnostics" `Quick test_churn_parser_diagnostics;
    Alcotest.test_case "churn generator determinism" `Quick test_generator_determinism;
    Alcotest.test_case "epoch probes reach the registry" `Quick test_epoch_probe_registry;
    Alcotest.test_case "invalid events leave state unchanged" `Quick test_invalid_event_state_unchanged;
    Alcotest.test_case "leave errors name Batch.apply" `Quick test_leave_errors_name_batch;
    Alcotest.test_case "batch matches per-event replay" `Quick test_batch_matches_per_event;
    Alcotest.test_case "cancelling batches skip the solve" `Quick test_batch_cancellation;
    Alcotest.test_case "repeated writes keep the last value" `Quick test_batch_last_writer_wins;
    Alcotest.test_case "empty batches are rejected" `Quick test_batch_empty_rejected;
    Alcotest.test_case "batch probes reach the registry" `Quick test_batch_probe_registry;
    Alcotest.test_case "churn parser batch blocks" `Quick test_churn_parser_batches;
    QCheck_alcotest.to_alcotest qcheck_domains_bitwise_identical;
    Alcotest.test_case "dropped solve tasks are typed errors" `Quick test_scheduler_dropped_task;
    Alcotest.test_case "whole and dirty-subset re-solves" `Quick test_batch_background_paths;
    Alcotest.test_case "solvers without partial are refused" `Quick
      test_batch_rejects_solver_without_partial;
    Alcotest.test_case "retained epochs stay bitwise" `Quick test_epochs_stay_bitwise;
    Alcotest.test_case "rho epochs copy no O(sessions) array" `Quick test_rho_epoch_major_allocation;
    Alcotest.test_case "pool events follow the domain count" `Quick test_pool_events_per_domains;
    Alcotest.test_case "zero domains are rejected" `Quick test_batch_rejects_zero_domains;
    Alcotest.test_case "pinned bystander judged on the link" `Quick test_pinned_bystander_off_link;
    Alcotest.test_case "lone rho event re-solves live flows" `Quick test_lone_rho_event_component;
    Alcotest.test_case "a cluster's last departure solves once" `Quick
      test_last_departure_solves_once;
    QCheck_alcotest.to_alcotest qcheck_carried_usage;
    Alcotest.test_case "rho epochs allocate bounded minor words" `Quick test_rho_epoch_minor_words;
    Alcotest.test_case "a lone join's commit allocates bounded words" `Quick test_join_commit_words;
  ]
