(* Simulator tests: event queue heap laws, engine semantics, loss
   model statistics, multicast tree delivery and loss correlation. *)

module Event_queue = Mmfair_sim.Event_queue
module Engine = Mmfair_sim.Engine
module Loss_model = Mmfair_sim.Loss_model
module Mcast_tree = Mmfair_sim.Mcast_tree
module Graph = Mmfair_topology.Graph
module Builders = Mmfair_topology.Builders
module Xoshiro = Mmfair_prng.Xoshiro

(* --- Event queue --- *)

let test_queue_order () =
  let q = Event_queue.create () in
  Event_queue.add q ~time:3.0 "c";
  Event_queue.add q ~time:1.0 "a";
  Event_queue.add q ~time:2.0 "b";
  let pops = List.init 3 (fun _ -> Event_queue.pop q) in
  Alcotest.(check (list (option (pair (float 0.0) string))))
    "time order"
    [ Some (1.0, "a"); Some (2.0, "b"); Some (3.0, "c") ]
    pops

let test_queue_fifo_ties () =
  let q = Event_queue.create () in
  for i = 0 to 9 do
    Event_queue.add q ~time:1.0 i
  done;
  let order = List.init 10 (fun _ -> match Event_queue.pop q with Some (_, x) -> x | None -> -1) in
  Alcotest.(check (list int)) "insertion order at equal times" (List.init 10 Fun.id) order

let test_queue_interleaved () =
  let q = Event_queue.create () in
  Event_queue.add q ~time:5.0 "late";
  Alcotest.(check (option (pair (float 0.0) string))) "peek" (Some (5.0, "late")) (Event_queue.peek q);
  Event_queue.add q ~time:1.0 "early";
  Alcotest.(check (option (pair (float 0.0) string))) "peek updated" (Some (1.0, "early"))
    (Event_queue.peek q);
  ignore (Event_queue.pop q);
  ignore (Event_queue.pop q);
  Alcotest.(check bool) "empty" true (Event_queue.is_empty q);
  Alcotest.(check (option (pair (float 0.0) string))) "pop empty" None (Event_queue.pop q)

let test_queue_nan_rejected () =
  let q = Event_queue.create () in
  Alcotest.check_raises "NaN" (Invalid_argument "Event_queue.add: NaN time") (fun () ->
      Event_queue.add q ~time:Float.nan ())

let test_queue_heap_property_random () =
  let rng = Xoshiro.create ~seed:31L () in
  let q = Event_queue.create () in
  let n = 2000 in
  for _ = 1 to n do
    Event_queue.add q ~time:(Xoshiro.float rng) ()
  done;
  let last = ref neg_infinity in
  for _ = 1 to n do
    match Event_queue.pop q with
    | Some (t, ()) ->
        Alcotest.(check bool) "non-decreasing" true (t >= !last);
        last := t
    | None -> Alcotest.fail "queue drained early"
  done

(* --- Engine --- *)

let test_engine_runs_in_order () =
  let e = Engine.create () in
  let log = ref [] in
  Engine.schedule e ~delay:2.0 "b";
  Engine.schedule e ~delay:1.0 "a";
  Engine.run e ~handler:(fun t ev ->
      log := (t, ev) :: !log;
      Engine.Continue);
  Alcotest.(check (list (pair (float 0.0) string))) "order" [ (1.0, "a"); (2.0, "b") ] (List.rev !log);
  Alcotest.(check (float 0.0)) "clock at last event" 2.0 (Engine.now e)

let test_engine_handler_schedules () =
  let e = Engine.create () in
  let count = ref 0 in
  Engine.schedule e ~delay:1.0 ();
  Engine.run e ~handler:(fun _ () ->
      incr count;
      if !count < 5 then Engine.schedule e ~delay:1.0 ();
      Engine.Continue);
  Alcotest.(check int) "chain of events" 5 !count;
  Alcotest.(check (float 0.0)) "clock" 5.0 (Engine.now e)

let test_engine_until () =
  let e = Engine.create () in
  let count = ref 0 in
  for i = 1 to 10 do
    Engine.schedule e ~delay:(float_of_int i) ()
  done;
  Engine.run e ~until:4.5 ~handler:(fun _ () ->
      incr count;
      Engine.Continue);
  Alcotest.(check int) "only events before horizon" 4 !count;
  Alcotest.(check (float 0.0)) "clock at horizon" 4.5 (Engine.now e);
  Engine.run e ~handler:(fun _ () ->
      incr count;
      Engine.Continue);
  Alcotest.(check int) "the rest stayed queued" 10 !count

let test_engine_stop () =
  let e = Engine.create () in
  for _ = 1 to 5 do
    Engine.schedule e ~delay:1.0 ()
  done;
  let count = ref 0 in
  Engine.run e ~handler:(fun _ () ->
      incr count;
      if !count = 2 then Engine.Stop else Engine.Continue);
  Alcotest.(check int) "stopped early" 2 !count

let test_engine_bad_delay () =
  let e = Engine.create () in
  Alcotest.check_raises "negative delay" (Invalid_argument "Engine.schedule: bad delay") (fun () ->
      Engine.schedule e ~delay:(-1.0) ())

(* --- Loss model --- *)

let test_loss_rate_estimation () =
  let rng = Xoshiro.create ~seed:32L () in
  let lm = Loss_model.create ~rng ~links:2 ~loss_rate:(fun l -> if l = 0 then 0.2 else 0.0) in
  let n = 50_000 in
  for _ = 1 to n do
    ignore (Loss_model.drops lm 0);
    ignore (Loss_model.drops lm 1)
  done;
  let observed = float_of_int (Loss_model.observed_losses lm 0) /. float_of_int n in
  Alcotest.(check bool) "estimates p" true (Float.abs (observed -. 0.2) < 0.01);
  Alcotest.(check int) "lossless link never drops" 0 (Loss_model.observed_losses lm 1);
  Alcotest.(check int) "samples counted" n (Loss_model.samples lm 0)

let test_loss_validation () =
  let rng = Xoshiro.create ~seed:33L () in
  Alcotest.check_raises "p > 1"
    (Invalid_argument "Loss_model.create: loss rate of link 0 outside [0,1]") (fun () ->
      ignore (Loss_model.create ~rng ~links:1 ~loss_rate:(fun _ -> 1.5)))

(* --- Multicast tree --- *)

let star2 () = Builders.modified_star ~shared_capacity:1.0 ~fanout_capacities:[| 1.0; 1.0 |]

let test_tree_lossless_delivery () =
  let s = star2 () in
  let tree = Mcast_tree.make s.Builders.graph ~sender:s.Builders.sender ~receivers:s.Builders.receivers in
  let d = Mcast_tree.deliver tree ~subscribed:(fun _ -> true) ~drops:(fun _ -> false) in
  Alcotest.(check int) "both receive" 2 (List.length d.Mcast_tree.received);
  Alcotest.(check int) "three links entered" 3 (List.length d.Mcast_tree.entered)

let test_tree_subscription_prunes () =
  let s = star2 () in
  let tree = Mcast_tree.make s.Builders.graph ~sender:s.Builders.sender ~receivers:s.Builders.receivers in
  (* only receiver 0 subscribed: its fanout link and the shared link
     are entered, receiver 1's fanout is not *)
  let d = Mcast_tree.deliver tree ~subscribed:(fun k -> k = 0) ~drops:(fun _ -> false) in
  Alcotest.(check (list int)) "one receiver" [ 0 ] d.Mcast_tree.received;
  Alcotest.(check int) "two links" 2 (List.length d.Mcast_tree.entered);
  Alcotest.(check bool) "not receiver 1's fanout" false
    (List.mem s.Builders.fanout.(1) d.Mcast_tree.entered);
  (* nobody subscribed: nothing flows at all *)
  let d0 = Mcast_tree.deliver tree ~subscribed:(fun _ -> false) ~drops:(fun _ -> false) in
  Alcotest.(check int) "no links" 0 (List.length d0.Mcast_tree.entered)

let test_tree_shared_loss_correlated () =
  let s = star2 () in
  let tree = Mcast_tree.make s.Builders.graph ~sender:s.Builders.sender ~receivers:s.Builders.receivers in
  (* drop on the shared link: neither receiver gets it, fanout links
     are never entered *)
  let d =
    Mcast_tree.deliver tree ~subscribed:(fun _ -> true) ~drops:(fun l -> l = s.Builders.shared)
  in
  Alcotest.(check int) "nobody receives" 0 (List.length d.Mcast_tree.received);
  Alcotest.(check (list int)) "only shared entered" [ s.Builders.shared ] d.Mcast_tree.entered

let test_tree_fanout_loss_independent () =
  let s = star2 () in
  let tree = Mcast_tree.make s.Builders.graph ~sender:s.Builders.sender ~receivers:s.Builders.receivers in
  let d =
    Mcast_tree.deliver tree ~subscribed:(fun _ -> true) ~drops:(fun l -> l = s.Builders.fanout.(0))
  in
  Alcotest.(check (list int)) "receiver 1 still gets it" [ 1 ] d.Mcast_tree.received;
  Alcotest.(check int) "all three links entered" 3 (List.length d.Mcast_tree.entered)

let test_tree_loss_sampled_once_per_link () =
  (* With a counting drops function, each link must be consulted at
     most once per packet even with many receivers behind it. *)
  let s = Builders.modified_star ~shared_capacity:1.0 ~fanout_capacities:(Array.make 50 1.0) in
  let tree = Mcast_tree.make s.Builders.graph ~sender:s.Builders.sender ~receivers:s.Builders.receivers in
  let calls = Hashtbl.create 16 in
  let drops l =
    Hashtbl.replace calls l (1 + Option.value ~default:0 (Hashtbl.find_opt calls l));
    false
  in
  ignore (Mcast_tree.deliver tree ~subscribed:(fun _ -> true) ~drops);
  Hashtbl.iter (fun l n -> Alcotest.(check int) (Printf.sprintf "link %d sampled once" l) 1 n) calls;
  Alcotest.(check int) "all links sampled" 51 (Hashtbl.length calls)

let test_tree_chain_upstream_loss_blocks () =
  let c = Builders.chain ~capacities:[| 1.0; 1.0; 1.0 |] in
  let tree = Mcast_tree.make c.Builders.graph ~sender:c.Builders.nodes.(0) ~receivers:[| c.Builders.nodes.(3) |] in
  let d = Mcast_tree.deliver tree ~subscribed:(fun _ -> true) ~drops:(fun l -> l = c.Builders.hops.(0)) in
  Alcotest.(check int) "no delivery" 0 (List.length d.Mcast_tree.received);
  Alcotest.(check (list int)) "packet stops at the first hop" [ c.Builders.hops.(0) ] d.Mcast_tree.entered

let test_tree_paths_and_links () =
  let s = star2 () in
  let tree = Mcast_tree.make s.Builders.graph ~sender:s.Builders.sender ~receivers:s.Builders.receivers in
  Alcotest.(check int) "receiver count" 2 (Mcast_tree.receiver_count tree);
  Alcotest.(check (array int)) "path of r0" [| s.Builders.shared; s.Builders.fanout.(0) |]
    (Mcast_tree.path_of tree 0);
  Alcotest.(check int) "3 links total" 3 (List.length (Mcast_tree.links tree))

let test_tree_unreachable () =
  let g = Graph.create ~nodes:3 in
  ignore (Graph.add_link g 0 1 1.0);
  Alcotest.check_raises "unreachable" (Invalid_argument "Mcast_tree.make: receiver 0 unreachable")
    (fun () -> ignore (Mcast_tree.make g ~sender:0 ~receivers:[| 2 |]))

let suite =
  [
    Alcotest.test_case "queue order" `Quick test_queue_order;
    Alcotest.test_case "queue FIFO ties" `Quick test_queue_fifo_ties;
    Alcotest.test_case "queue interleaved" `Quick test_queue_interleaved;
    Alcotest.test_case "queue NaN rejected" `Quick test_queue_nan_rejected;
    Alcotest.test_case "queue heap property" `Quick test_queue_heap_property_random;
    Alcotest.test_case "engine order" `Quick test_engine_runs_in_order;
    Alcotest.test_case "engine handler schedules" `Quick test_engine_handler_schedules;
    Alcotest.test_case "engine until" `Quick test_engine_until;
    Alcotest.test_case "engine stop" `Quick test_engine_stop;
    Alcotest.test_case "engine bad delay" `Quick test_engine_bad_delay;
    Alcotest.test_case "loss rate estimation" `Quick test_loss_rate_estimation;
    Alcotest.test_case "loss validation" `Quick test_loss_validation;
    Alcotest.test_case "tree lossless delivery" `Quick test_tree_lossless_delivery;
    Alcotest.test_case "tree subscription prunes" `Quick test_tree_subscription_prunes;
    Alcotest.test_case "tree shared loss correlated" `Quick test_tree_shared_loss_correlated;
    Alcotest.test_case "tree fanout loss independent" `Quick test_tree_fanout_loss_independent;
    Alcotest.test_case "tree loss sampled once" `Quick test_tree_loss_sampled_once_per_link;
    Alcotest.test_case "tree upstream loss blocks" `Quick test_tree_chain_upstream_loss_blocks;
    Alcotest.test_case "tree paths and links" `Quick test_tree_paths_and_links;
    Alcotest.test_case "tree unreachable" `Quick test_tree_unreachable;
  ]
