(* Dynamic engine tests: engine-vs-scratch agreement on the paper's
   networks (including Figure 3's intra-session rate swings replayed
   as churn), store retention and eviction, the leave/rejoin
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
module Store = Mmfair_dynamic.Store
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

(* --- store retention / eviction --------------------------------------- *)

let test_store_retention () =
  let { Paper_nets.net; _ } = Paper_nets.figure2 () in
  let eng = Batch.create ~retain:3 net in
  let store = Batch.store eng in
  Alcotest.(check int) "epoch 0 at creation" 0 (Store.epoch store);
  Alcotest.(check bool) "epoch 0 has no events" true ((Store.current store).Store.events = []);
  for k = 1 to 5 do
    ignore (Batch.apply eng [ Event.Rho_change { session = 1; rho = float_of_int k } ])
  done;
  Alcotest.(check int) "five epochs" 5 (Store.epoch store);
  Alcotest.(check (list int)) "window keeps the newest three" [ 5; 4; 3 ]
    (Store.retained_epochs store);
  Alcotest.(check bool) "epoch 1 evicted" true (Store.find store 1 = None);
  (match Store.find store 4 with
  | None -> Alcotest.fail "epoch 4 should be retained"
  | Some e -> (
      Alcotest.(check int) "entry numbering" 4 e.Store.epoch;
      match e.Store.events with
      | [ Event.Rho_change { rho; _ } ] -> feq "entry keeps its event" 4.0 rho
      | _ -> Alcotest.fail "epoch 4 should record its rho change"));
  (* A retained entry's allocation is the post-event solve, not a
     reference to the live head. *)
  (match Store.find store 3 with
  | None -> Alcotest.fail "epoch 3 should be retained"
  | Some e -> feq "epoch 3 rho bound applied" 3.0 (Network.rho e.Store.network 1));
  Alcotest.check_raises "retain floor is 1" (Invalid_argument "Store.create: retain must be >= 1")
    (fun () -> ignore (Store.create ~retain:0 net (Batch.allocation eng)))

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

let parse_err names text =
  match Churn_parser.parse_string_result names text with
  | Ok _ -> Alcotest.fail (Printf.sprintf "expected a parse error for %S" text)
  | Error msg -> msg

let starts_with ~prefix s =
  String.length s >= String.length prefix && String.sub s 0 (String.length prefix) = prefix

let test_churn_parser_diagnostics () =
  let names =
    Net_parser.parse_string
      "link l1 a b 5.0\nlink l2 b c 2.0\nsession s1 multi sender=a receivers=c\nsession s2 multi sender=a receivers=b\n"
  in
  (match Churn_parser.parse_string names "# warm-up\n\njoin s2 c w=2.0\nleave s1 c\nrho s1 inf\ncap l2 3.5\n" with
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
    (Churn_parser.parse_string fig2 Churn_parser.example <> [])

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

(* --- epoch range queries over the store -------------------------------- *)

let test_fold_epochs () =
  let { Paper_nets.net; _ } = Paper_nets.figure2 () in
  let eng = Batch.create ~retain:3 net in
  let store = Batch.store eng in
  for k = 1 to 5 do
    ignore (Batch.apply eng [ Event.Rho_change { session = 1; rho = float_of_int k } ])
  done;
  let epochs ?lo ?hi () =
    List.rev (Store.fold_epochs ?lo ?hi store ~init:[] ~f:(fun acc e -> e.Store.epoch :: acc))
  in
  (* The fold is ascending and, like find, silently misses evicted
     epochs: asking from 1 only surfaces what retention kept. *)
  Alcotest.(check (list int)) "defaults cover the window, ascending" [ 3; 4; 5 ] (epochs ());
  Alcotest.(check (list int)) "evicted epochs silently absent" [ 3; 4; 5 ] (epochs ~lo:1 ~hi:5 ());
  Alcotest.(check (list int)) "lo clips" [ 4; 5 ] (epochs ~lo:4 ());
  Alcotest.(check (list int)) "hi clips" [ 3; 4 ] (epochs ~hi:4 ());
  Alcotest.(check (list int)) "point query" [ 4 ] (epochs ~lo:4 ~hi:4 ());
  Alcotest.(check (list int)) "inverted range is empty" [] (epochs ~lo:5 ~hi:4 ());
  Alcotest.(check (list int)) "fully evicted range is empty" [] (epochs ~hi:2 ());
  Alcotest.(check int) "entries carry their events" 3
    (Store.fold_epochs store ~init:0 ~f:(fun acc e -> acc + List.length e.Store.events))

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
  (match Churn_parser.parse_items_result names text with
  | Ok
      [
        Churn_parser.Single (Event.Join { session = 1; _ });
        Churn_parser.Batch [ Event.Capacity_change { cap = 4.5; _ }; Event.Leave { session = 0; _ } ];
        Churn_parser.Single (Event.Rho_change { rho = 2.0; _ });
      ] ->
      ()
  | Ok items -> Alcotest.fail (Printf.sprintf "unexpected items: %d" (List.length items))
  | Error e -> Alcotest.fail e);
  (* Rendering the items and re-parsing must reproduce the text. *)
  let items = Churn_parser.parse_items names text in
  let rendered = Churn_parser.render_items ~names items in
  Alcotest.(check string) "batch blocks round-trip"
    rendered
    (Churn_parser.render_items ~names (Churn_parser.parse_items names rendered));
  (* flatten erases the block structure but keeps the order. *)
  Alcotest.(check int) "flatten keeps every event" 4 (List.length (Churn_parser.flatten items));
  (* Malformed block structure, each reported at the right line. *)
  List.iter
    (fun (text, line) ->
      match Churn_parser.parse_items_result names text with
      | Ok _ -> Alcotest.fail (Printf.sprintf "expected a parse error for %S" text)
      | Error msg ->
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

(* --- a scheduler that drops tasks surfaces as a typed error ------------- *)

let test_scheduler_dropped_task () =
  let { Paper_nets.net; _ } = Paper_nets.figure2 ~session1_type:Network.Multi_rate () in
  let drop_all = { Batch.run = (fun _tasks -> ()) } in
  let eng = Batch.create ~scheduler:drop_all net in
  let before = Batch.allocation eng in
  (match Batch.apply_result eng [ Event.Rho_change { session = 1; rho = 1.5 } ] with
  | Ok _ -> Alcotest.fail "a dropped solve task must not look like success"
  | Error (Mmfair_core.Solver_error.Scheduler_failure { task; what; _ }) ->
      Alcotest.(check int) "the first dropped slot is blamed" 0 task;
      Alcotest.(check string) "dropped-task diagnostic" "scheduler dropped the solve task" what
  | Error e ->
      Alcotest.fail
        (Printf.sprintf "expected Scheduler_failure, got %s" (Mmfair_core.Solver_error.to_string e)));
  (* The failed batch left the engine at epoch 0 with its allocation
     untouched, and a working scheduler is all it takes to proceed. *)
  Alcotest.(check int) "epoch unchanged" 0 (Batch.epoch eng);
  Alcotest.(check bool) "allocation unchanged" true (Batch.allocation eng == before);
  let eng2 = Batch.create ~scheduler:Batch.sequential ~allocation:before net in
  ignore (Batch.apply eng2 [ Event.Rho_change { session = 1; rho = 1.5 } ]);
  check_matches_scratch "sequential replay of the dropped batch" eng2

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

(* Three sessions, each pinned by its own saturated leaf; sessions 0
   and 1 also share a slack trunk, session 2 rides a separate path.
   One batch lifts all three leaves: the first solve lists the whole
   component (three singleton groups, one task) and shares the pinned
   rows as background; 0 and 1 then rise onto the trunk together, the
   boundary scan merges them, and only that dirty pair re-solves —
   fewer sessions than the component, over the zeroed background. *)
let test_batch_background_paths () =
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
  let calls = ref [] in
  let eng = Batch.create ~solver:(recording_engine calls) net in
  let stats =
    Batch.apply eng
      (List.map
         (fun link -> Event.Capacity_change { link; cap = 3.0 })
         [ leaf0; leaf1; leaf2 ])
  in
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
   one.  Every retained epoch must still read, bit for bit, what the
   engine held right after the batch that made it. *)
let test_store_epochs_stay_bitwise () =
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
    Churn_gen.generate ~rng net { Churn_gen.default with Churn_gen.events = 60; max_receivers = 5 }
  in
  let eng = Batch.create ~retain:8 net in
  let seen = Hashtbl.create 32 in
  Hashtbl.replace seen 0 (rate_bits (Batch.allocation eng));
  (* Batches of one to three consecutive events of the trace. *)
  let rec replay k = function
    | [] -> ()
    | evs ->
        let n = 1 + (k mod 3) in
        ignore (Batch.apply eng (List.filteri (fun j _ -> j < n) evs));
        Alcotest.(check bool) "the store holds the engine's allocation" true
          ((Store.current (Batch.store eng)).Store.allocation == Batch.allocation eng);
        Hashtbl.replace seen (Batch.epoch eng) (rate_bits (Batch.allocation eng));
        replay (k + 1) (List.filteri (fun j _ -> j >= n) evs)
  in
  replay 0 events;
  let retained = Store.retained_epochs (Batch.store eng) in
  Alcotest.(check int) "eight epochs retained" 8 (List.length retained);
  List.iter
    (fun e ->
      match Store.find (Batch.store eng) e with
      | None -> Alcotest.failf "epoch %d missing" e
      | Some entry ->
          Alcotest.(check bool)
            (Printf.sprintf "epoch %d reads as it landed" e)
            true
            (rate_bits entry.Store.allocation = Hashtbl.find seen e))
    retained

(* A ρ-only epoch on the 3,072-session flow-star network copies no
   O(sessions) array.  Arrays above the minor heap's size limit (256
   words) are allocated directly on the major heap, so the direct major
   words per event ([major_words − promoted_words]) would be several
   times the session count with a per-epoch spec, row, component or
   background copy. *)
let test_rho_epoch_major_allocation () =
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

let suite =
  [
    Alcotest.test_case "engine matches scratch on figure 2 churn" `Quick test_engine_on_figure2;
    Alcotest.test_case "figure 3 intra-session swings as churn" `Quick test_engine_figure3_swings;
    Alcotest.test_case "store retention and eviction" `Quick test_store_retention;
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
    Alcotest.test_case "fold_epochs range queries" `Quick test_fold_epochs;
    Alcotest.test_case "batch probes reach the registry" `Quick test_batch_probe_registry;
    Alcotest.test_case "churn parser batch blocks" `Quick test_churn_parser_batches;
    QCheck_alcotest.to_alcotest qcheck_domains_bitwise_identical;
    Alcotest.test_case "dropped solve tasks are typed errors" `Quick test_scheduler_dropped_task;
    Alcotest.test_case "whole and dirty-subset re-solves" `Quick test_batch_background_paths;
    Alcotest.test_case "solvers without partial are refused" `Quick
      test_batch_rejects_solver_without_partial;
    Alcotest.test_case "retained epochs stay bitwise" `Quick test_store_epochs_stay_bitwise;
    Alcotest.test_case "rho epochs copy no O(sessions) array" `Quick test_rho_epoch_major_allocation;
  ]
