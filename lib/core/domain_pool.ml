module Sink = Mmfair_obs.Sink
module Probe = Mmfair_obs.Probe
module Clock = Mmfair_obs.Clock

(* One submitted batch.  [next] is the claim cursor, [pending] the
   tasks not yet finished; both are protected by the pool mutex.  The
   cells themselves run outside the lock. *)
type batch = {
  cells : (unit -> unit) array;
  mutable next : int;
  mutable pending : int;
}

type t = {
  mutex : Mutex.t;
  work : Condition.t;  (* a batch arrived, or [stop] flipped *)
  finished : Condition.t;  (* [pending] reached 0 *)
  mutable batch : batch option;
  mutable stop : bool;
  mutable workers : unit Domain.t list;
  n_domains : int;
}

let domains t = t.n_domains

(* Claim and execute tasks until none are claimable.  The mutex is
   held on entry and on exit; each cell runs unlocked.  Cells never
   raise (failures are captured into their slot by the wrapper). *)
let exec_claimable t b =
  while b.next < Array.length b.cells do
    let i = b.next in
    b.next <- i + 1;
    Mutex.unlock t.mutex;
    b.cells.(i) ();
    Mutex.lock t.mutex;
    b.pending <- b.pending - 1;
    if b.pending = 0 then Condition.broadcast t.finished
  done

let worker_loop t () =
  Mutex.lock t.mutex;
  let rec loop () =
    if not t.stop then begin
      (match t.batch with
      | Some b when b.next < Array.length b.cells -> exec_claimable t b
      | _ -> Condition.wait t.work t.mutex);
      loop ()
    end
  in
  loop ();
  Mutex.unlock t.mutex

let create ~domains =
  if domains < 1 then
    invalid_arg (Printf.sprintf "Domain_pool.create: domains must be >= 1 (got %d)" domains);
  let t =
    {
      mutex = Mutex.create ();
      work = Condition.create ();
      finished = Condition.create ();
      batch = None;
      stop = false;
      workers = [];
      n_domains = domains;
    }
  in
  t.workers <- List.init (domains - 1) (fun _ -> Domain.spawn (worker_loop t));
  t

let shutdown t =
  Mutex.lock t.mutex;
  if t.stop then Mutex.unlock t.mutex
  else begin
    t.stop <- true;
    Condition.broadcast t.work;
    Mutex.unlock t.mutex;
    List.iter Domain.join t.workers;
    t.workers <- []
  end

(* A sink that defers every event as a closure over the real sink;
   the buffer is mutated only by the domain executing the task and
   read by the submitting domain after the join barrier.  A record
   literal, not [Sink.make]: a field added to [Sink.t] must be
   forwarded here or the build fails, instead of silently dropping
   that event kind from every pooled task. *)
let buffering buf =
  let push f = buf := f :: !buf in
  {
    Sink.enabled = true;
    on_round = (fun ev -> push (fun s -> s.Sink.on_round ev));
    on_epoch = (fun ev -> push (fun s -> s.Sink.on_epoch ev));
    on_pool = (fun ev -> push (fun s -> s.Sink.on_pool ev));
    on_sim = (fun ev -> push (fun s -> s.Sink.on_sim ev));
    on_span_begin = (fun n -> push (fun s -> s.Sink.on_span_begin n));
    on_span_end = (fun n -> push (fun s -> s.Sink.on_span_end n));
  }

(* Re-raise the lowest-indexed task failure under the documented
   policy: solver-contract exceptions as themselves, anything else as
   a typed scheduler failure carrying the task index. *)
let reraise_first failures =
  Array.iteri
    (fun task fail ->
      match fail with
      | None -> ()
      | Some (Solver_error.Error _ as e) | Some (Invalid_argument _ as e) -> raise e
      | Some e ->
          Solver_error.raise_error
            (Scheduler_failure
               { solver = "Domain_pool"; task; what = Printexc.to_string e }))
    failures

(* Aggregate the per-task timing samples into one pool event.  All
   times are monotonic-clock nanoseconds captured inside the task
   wrapper; [submit] is the instant the batch was formed, so
   start - submit is the task's queue wait and end - start its busy
   time.  Per-domain busy totals are keyed by the executing domain's
   id, then emitted identity-free (sorted descending) — which physical
   domain claimed which task is scheduling noise. *)
let emit_pool_event ~domains ~submit ~starts ~ends ~executors =
  let n = Array.length starts in
  let ns d = Int64.to_float d *. 1e-9 in
  let wait_total = ref 0.0 and wait_max = ref 0.0 in
  let busy_total = ref 0.0 and busy_max = ref 0.0 in
  let by_domain = Hashtbl.create 8 in
  for i = 0 to n - 1 do
    let wait = ns (Int64.sub starts.(i) submit) in
    let busy = ns (Int64.sub ends.(i) starts.(i)) in
    wait_total := !wait_total +. wait;
    if wait > !wait_max then wait_max := wait;
    busy_total := !busy_total +. busy;
    if busy > !busy_max then busy_max := busy;
    let prev = Option.value ~default:0.0 (Hashtbl.find_opt by_domain executors.(i)) in
    Hashtbl.replace by_domain executors.(i) (prev +. busy)
  done;
  let busy_by_domain =
    Hashtbl.fold (fun _ busy acc -> busy :: acc) by_domain []
    |> List.sort (fun a b -> compare b a)
    |> Array.of_list
  in
  Probe.pool
    {
      Mmfair_obs.Events.p_domains = domains;
      p_tasks = n;
      p_wall = Clock.since_s submit;
      p_wait_total = !wait_total;
      p_wait_max = !wait_max;
      p_busy_total = !busy_total;
      p_busy_max = !busy_max;
      p_busy_by_domain = busy_by_domain;
    }

let run t tasks =
  match tasks with
  | [] -> ()
  | tasks ->
      let n = List.length tasks in
      let failures = Array.make n None in
      (* Buffer task telemetry only when someone is listening and the
         tasks may land on worker domains; at [domains = 1] every task
         runs here under the caller's own sink, which keeps span
         timestamps meaningful on the sequential path. *)
      let observe = t.n_domains > 1 && Probe.enabled () in
      (* Task timing (queue wait, busy time, per-domain spread) is
         cheaper — four clock reads and three array stores per task —
         and meaningful at every pool size, so it keys off the probe
         flag alone. *)
      let timing = Probe.enabled () in
      let submit = if timing then Clock.now_ns () else 0L in
      let starts = if timing then Array.make n 0L else [||] in
      let ends = if timing then Array.make n 0L else [||] in
      let executors = if timing then Array.make n (-1) else [||] in
      let buffers = if observe then Array.init n (fun _ -> ref []) else [||] in
      let wrap i thunk () =
        if timing then begin
          starts.(i) <- Clock.now_ns ();
          executors.(i) <- (Domain.self () :> int)
        end;
        let body () =
          if observe then Probe.with_sink (buffering buffers.(i)) thunk else thunk ()
        in
        (match body () with () -> () | exception e -> failures.(i) <- Some e);
        if timing then ends.(i) <- Clock.now_ns ()
      in
      let cells = Array.of_list (List.mapi wrap tasks) in
      if t.n_domains = 1 then Array.iter (fun cell -> cell ()) cells
      else begin
        Mutex.lock t.mutex;
        if t.stop then begin
          Mutex.unlock t.mutex;
          invalid_arg "Domain_pool.run: pool has been shut down"
        end;
        (match t.batch with
        | Some _ ->
            Mutex.unlock t.mutex;
            invalid_arg "Domain_pool.run: pool is already running a batch"
        | None -> ());
        let b = { cells; next = 0; pending = n } in
        t.batch <- Some b;
        Condition.broadcast t.work;
        exec_claimable t b;
        while b.pending > 0 do
          Condition.wait t.finished t.mutex
        done;
        t.batch <- None;
        Mutex.unlock t.mutex
      end;
      if observe then begin
        let sink = Probe.get () in
        Array.iter (fun buf -> List.iter (fun emit -> emit sink) (List.rev !buf)) buffers
      end;
      (* After the task-telemetry replay, so the batch's summary event
         follows its constituents in every exporter's stream; emitted
         even when a task failed — the timing is real either way. *)
      if timing then emit_pool_event ~domains:t.n_domains ~submit ~starts ~ends ~executors;
      reraise_first failures

let shared_pools : (int, t) Hashtbl.t = Hashtbl.create 4

(* The OCaml 5 runtime waits for every live domain at exit, so parked
   workers would hang the process without this hook.  It is registered
   at module-initialization time, NOT lazily on the first [shared]
   call: [at_exit] hooks run LIFO, and every command-scoped finalizer
   (e.g. the CLI telemetry flush in bin/telemetry.ml, churnd's
   snapshot writer) is registered later — at command start — so
   telemetry finalization is guaranteed to run BEFORE the pools tear
   down, whatever order the program first touched them in.  With the
   old first-use registration, a command that installed its telemetry
   hook before ever touching a pool would have torn the pool down
   first. *)
let () = at_exit (fun () -> Hashtbl.iter (fun _ pool -> shutdown pool) shared_pools)

let shared ~domains =
  match Hashtbl.find_opt shared_pools domains with
  | Some pool -> pool
  | None ->
      let pool = create ~domains in
      Hashtbl.add shared_pools domains pool;
      pool

let shutdown_shared () =
  Hashtbl.iter (fun _ pool -> shutdown pool) shared_pools;
  Hashtbl.reset shared_pools
