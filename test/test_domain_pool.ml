(* Domain_pool unit tests: the run/join contract (every task
   completes, the submitting domain participates), the ~domains:1
   degenerate case, the documented exception policy (solver-contract
   exceptions re-raise as themselves, anything else wraps as
   Scheduler_failure with the lowest failing task's index, and a
   failing task never stops the others), task-order probe replay on
   the submitting domain's sink, and shutdown semantics.

   The determinism contract (bitwise-identical allocations at every
   pool size) is exercised end-to-end by the batch qcheck property in
   test_dynamic.ml and the churn differential's --domains replay;
   these pin the pool primitive in isolation. *)

module Domain_pool = Mmfair_core.Domain_pool
module Solver_error = Mmfair_core.Solver_error
module Obs = Mmfair_obs

let test_sequential_degenerate () =
  let pool = Domain_pool.create ~domains:1 in
  Alcotest.(check int) "one execution stream" 1 (Domain_pool.domains pool);
  let order = ref [] in
  Domain_pool.run pool (List.init 5 (fun i () -> order := i :: !order));
  Alcotest.(check (list int)) "tasks run in order on the caller" [ 0; 1; 2; 3; 4 ]
    (List.rev !order);
  Domain_pool.run pool [];
  Alcotest.(check int) "empty batch is a no-op" 5 (List.length !order);
  (* A workerless pool has nothing to join: shutdown keeps it usable. *)
  Domain_pool.shutdown pool;
  Domain_pool.run pool [ (fun () -> order := 99 :: !order) ];
  Alcotest.(check int) "workerless pool survives shutdown" 6 (List.length !order)

let test_parallel_completes_all () =
  let pool = Domain_pool.create ~domains:3 in
  Alcotest.(check int) "caller plus two workers" 3 (Domain_pool.domains pool);
  let slots = Array.make 64 (-1) in
  Domain_pool.run pool (List.init 64 (fun i () -> slots.(i) <- i * i));
  Array.iteri
    (fun i v -> Alcotest.(check int) (Printf.sprintf "slot %d written once" i) (i * i) v)
    slots;
  (* The pool is reusable across run calls without respawning. *)
  let hits = Array.make 8 0 in
  for _ = 1 to 10 do
    Domain_pool.run pool (List.init 8 (fun i () -> hits.(i) <- hits.(i) + 1))
  done;
  Array.iteri (fun i v -> Alcotest.(check int) (Printf.sprintf "task %d every round" i) 10 v) hits;
  Domain_pool.shutdown pool;
  Domain_pool.shutdown pool;
  (* idempotent *)
  Alcotest.check_raises "run after shutdown"
    (Invalid_argument "Domain_pool.run: pool has been shut down") (fun () ->
      Domain_pool.run pool [ (fun () -> ()) ])

let test_create_floor () =
  Alcotest.check_raises "domains floor is 1"
    (Invalid_argument "Domain_pool.create: domains must be >= 1 (got 0)") (fun () ->
      ignore (Domain_pool.create ~domains:0))

let test_exception_policy () =
  List.iter
    (fun domains ->
      let pool = Domain_pool.create ~domains in
      let what d = Printf.sprintf "[domains=%d] %s" domains d in
      (* A raising task is wrapped with its index, and the survivors
         still run to completion. *)
      let done_ = Array.make 4 false in
      (try
         Domain_pool.run pool
           [
             (fun () -> done_.(0) <- true);
             (fun () -> raise Exit);
             (fun () -> raise Not_found);
             (fun () -> done_.(3) <- true);
           ];
         Alcotest.fail (what "a raising task must surface after the join")
       with
      | Solver_error.Error (Solver_error.Scheduler_failure { solver; task; what = w }) ->
          Alcotest.(check string) (what "blamed on the pool") "Domain_pool" solver;
          Alcotest.(check int) (what "lowest failing index wins") 1 task;
          Alcotest.(check string) (what "carries the worker exception") "Stdlib.Exit" w);
      Alcotest.(check bool) (what "earlier task still ran") true done_.(0);
      Alcotest.(check bool) (what "later task still ran") true done_.(3);
      (* Solver-contract exceptions re-raise as themselves, not
         wrapped. *)
      let typed = Solver_error.Invalid_input { solver = "Allocator"; what = "probe" } in
      (try
         Domain_pool.run pool [ (fun () -> Solver_error.raise_error typed) ];
         Alcotest.fail (what "typed solver error must propagate")
       with Solver_error.Error e ->
         Alcotest.(check bool) (what "typed error unwrapped") true (e = typed));
      Alcotest.check_raises (what "Invalid_argument passes through")
        (Invalid_argument "bad shape") (fun () ->
          Domain_pool.run pool [ (fun () -> invalid_arg "bad shape") ]);
      (* The pool is not poisoned by any of the failures above. *)
      let ok = ref false in
      Domain_pool.run pool [ (fun () -> ok := true) ];
      Alcotest.(check bool) (what "pool survives failures") true !ok;
      Domain_pool.shutdown pool)
    [ 1; 4 ]

let test_probe_replay_order () =
  (* Spans emitted inside tasks are buffered per task and replayed on
     the submitting domain's sink in task-index order, whatever the
     execution interleaving — so telemetry is independent of the pool
     size. *)
  List.iter
    (fun domains ->
      let pool = Domain_pool.create ~domains in
      let seen = ref [] in
      let sink = Obs.Sink.make ~on_span_begin:(fun n -> seen := n :: !seen) () in
      Obs.Probe.with_sink sink (fun () ->
          Domain_pool.run pool
            (List.init 6 (fun i () -> Obs.Probe.span_begin (Printf.sprintf "task-%d" i))));
      Alcotest.(check (list string))
        (Printf.sprintf "[domains=%d] replay is in task order" domains)
        [ "task-0"; "task-1"; "task-2"; "task-3"; "task-4"; "task-5" ]
        (List.rev !seen);
      Domain_pool.shutdown pool)
    [ 1; 3 ]

let test_probe_replay_every_kind () =
  (* Every event kind a task emits reaches the caller's sink exactly
     once, in emission order and task order, with the pool's own
     summary event last.  Tasks on a multi-domain pool run under a
     buffering sink, so a kind it failed to forward would vanish. *)
  let pool = Domain_pool.create ~domains:2 in
  let seen = ref [] in
  let log s = seen := s :: !seen in
  let sink =
    Obs.Sink.make
      ~on_round:(fun ev -> log (Printf.sprintf "round %d" ev.Obs.Events.round))
      ~on_epoch:(fun ev -> log (Printf.sprintf "epoch %d" ev.Obs.Events.epoch))
      ~on_pool:(fun ev -> log (Printf.sprintf "pool %d" ev.Obs.Events.p_tasks))
      ~on_sim:(function
        | Obs.Events.Dropped { count } -> log (Printf.sprintf "sim %d" count) | _ -> log "sim ?")
      ~on_span_begin:(fun n -> log ("begin " ^ n))
      ~on_span_end:(fun n -> log ("end " ^ n))
      ()
  in
  let task i () =
    Obs.Probe.round
      {
        Obs.Events.solver = "Allocator";
        round = i;
        level = 0.0;
        increment = 0.0;
        active = 0;
        frozen = [];
        saturated_links = [];
        bottleneck_link = None;
        residual_slack = 0.0;
      };
    Obs.Probe.epoch
      {
        Obs.Events.epoch = i;
        kind = "join";
        events = 1;
        net_events = 1;
        cancelled = 0;
        component_sessions = 1;
        component_receivers = 1;
        total_receivers = 1;
        reuse_fraction = 0.0;
        full_solve = true;
        solves = 1;
        components = 1;
        largest_component = 1;
        jain = 1.0;
        max_delta_rate = 0.0;
      };
    (* A nested one-domain pool emits its own pool event in-task. *)
    Domain_pool.run (Domain_pool.create ~domains:1) (List.init (10 + i) (fun _ () -> ()));
    Obs.Probe.sim (Obs.Events.Dropped { count = i });
    Obs.Probe.span (Printf.sprintf "task-%d" i) ignore
  in
  Obs.Probe.with_sink sink (fun () -> Domain_pool.run pool [ task 0; task 1 ]);
  Domain_pool.shutdown pool;
  let per_task i =
    [
      Printf.sprintf "round %d" i;
      Printf.sprintf "epoch %d" i;
      Printf.sprintf "pool %d" (10 + i);
      Printf.sprintf "sim %d" i;
      Printf.sprintf "begin task-%d" i;
      Printf.sprintf "end task-%d" i;
    ]
  in
  Alcotest.(check (list string)) "every kind once, in order"
    (per_task 0 @ per_task 1 @ [ "pool 2" ])
    (List.rev !seen)

let test_shared_pools () =
  let a = Domain_pool.shared ~domains:2 in
  let b = Domain_pool.shared ~domains:2 in
  Alcotest.(check bool) "one shared pool per size" true (a == b);
  let c = Domain_pool.shared ~domains:3 in
  Alcotest.(check bool) "distinct sizes, distinct pools" true (a != c);
  Alcotest.(check int) "shared pool has the asked size" 3 (Domain_pool.domains c);
  let ok = ref false in
  Domain_pool.run a [ (fun () -> ok := true) ];
  Alcotest.(check bool) "shared pool runs" true !ok

let test_exit_hook_ordering () =
  (* Simulate process exit: [at_exit] hooks run LIFO, and the shared
     pools' teardown hook is registered at module-initialization time,
     i.e. before any command-scoped finalizer.  So a telemetry
     finalizer registered later must (a) run first and (b) still be
     able to drive the pool.  We model the hook stack explicitly —
     registration order below mirrors the real program — and unwind it
     in LIFO order like the runtime would. *)
  let order = ref [] in
  let hooks = ref [] in
  let register name f = hooks := (name, f) :: !hooks in
  (* Registered "at module init": tear the shared pool down. *)
  let pool = Domain_pool.shared ~domains:5 in
  register "pool-teardown" (fun () -> Domain_pool.shutdown pool);
  (* Registered "at command start": flush telemetry, which may itself
     still need the pool. *)
  register "telemetry-finalize" (fun () ->
      let ok = ref false in
      Domain_pool.run pool [ (fun () -> ok := true) ];
      Alcotest.(check bool) "finalizer can still use the pool" true !ok);
  (* [register] prepends, so !hooks is already LIFO. *)
  List.iter
    (fun (name, f) ->
      f ();
      order := name :: !order)
    !hooks;
  Alcotest.(check (list string))
    "telemetry finalizes before pool teardown"
    [ "telemetry-finalize"; "pool-teardown" ]
    (List.rev !order);
  (* Idempotence: the real at_exit sweep will shut this pool down a
     second time at process exit — that second call must be a no-op. *)
  Domain_pool.shutdown pool;
  Alcotest.check_raises "run after teardown raises"
    (Invalid_argument "Domain_pool.run: pool has been shut down") (fun () ->
      Domain_pool.run pool [ (fun () -> ()) ])

let suite =
  [
    Alcotest.test_case "domains:1 degenerates to in-order calls" `Quick test_sequential_degenerate;
    Alcotest.test_case "all tasks complete across domains" `Quick test_parallel_completes_all;
    Alcotest.test_case "create rejects domains < 1" `Quick test_create_floor;
    Alcotest.test_case "exception policy: wrap, re-raise, survive" `Quick test_exception_policy;
    Alcotest.test_case "task probes replay in task order" `Quick test_probe_replay_order;
    Alcotest.test_case "task probes replay every event kind" `Quick test_probe_replay_every_kind;
    Alcotest.test_case "shared pools are cached per size" `Quick test_shared_pools;
    Alcotest.test_case "exit hooks: finalize before teardown" `Quick test_exit_hook_ordering;
  ]
