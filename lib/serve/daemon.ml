module Network = Mmfair_core.Network
module Allocation = Mmfair_core.Allocation
module Solver_error = Mmfair_core.Solver_error
module Batch = Mmfair_dynamic.Batch
module Event = Mmfair_dynamic.Event
module Net_parser = Mmfair_workload.Net_parser
module Churn_parser = Mmfair_workload.Churn_parser
module Registry = Mmfair_obs.Registry
module Timeseries = Mmfair_obs.Timeseries
module Probe = Mmfair_obs.Probe
module Sink = Mmfair_obs.Sink
module Clock = Mmfair_obs.Clock
module Json = Mmfair_obs.Json

type config = {
  domains : int;
  max_batch : int;
  ack : bool;
  poll_interval : float;
  write_timeout : float;
  sample_interval : float;
  series_capacity : int;
  series_out : string option;
}

let default_config =
  {
    domains = 1;
    max_batch = 256;
    ack = false;
    poll_interval = 0.05;
    write_timeout = 5.0;
    sample_interval = 1.0;
    series_capacity = 512;
    series_out = None;
  }

(* One queued ingestion item: a lone event or a whole [batch ... end]
   block (blocks stay atomic through coalescing and fallback). *)
type pending = { events : Event.t list; lineno : int; respond : string -> unit }

type t = {
  config : config;
  parsed : Net_parser.t;
  engine : Batch.t;
  registry : Registry.t;
  stop : bool Atomic.t;
  mutable queue : pending list;  (* newest first *)
  mutable queued_events : int;
  mutable first_arrival : int64 option;  (* of the oldest queued event *)
  ingested : Registry.counter;
  rejected : Registry.counter;
  queries : Registry.counter;
  epochs : Registry.counter;
  connections : Registry.counter;
  solve_h : Registry.log_histogram;
  staleness_h : Registry.log_histogram;
  staleness_max : Registry.gauge;
  series : Timeseries.t;
  series_oc : out_channel option;
  mutable last_sample : float;  (* monotonic seconds of the last sampler tick; 0 = never *)
}

let create ?(config = default_config) parsed =
  if config.max_batch < 1 then
    invalid_arg
      (Printf.sprintf "Daemon.create: max_batch must be >= 1 (got %d)" config.max_batch);
  if config.write_timeout <= 0.0 then
    invalid_arg
      (Printf.sprintf "Daemon.create: write_timeout must be > 0 (got %g)" config.write_timeout);
  if config.series_capacity < 2 then
    invalid_arg
      (Printf.sprintf "Daemon.create: series_capacity must be >= 2 (got %d)"
         config.series_capacity);
  (* No protocol verb reads a past epoch, so the store keeps only the
     current one. *)
  match Batch.create_result ~domains:config.domains ~retain:1 parsed.Net_parser.net with
  | Error _ as e -> e
  | Ok engine ->
      let registry = Registry.create () in
      (* The appender opens eagerly so a bad path fails daemon startup,
         not the first sampler tick mid-soak.  Each daemon run opens
         its own header line; consumers skip lines carrying "schema". *)
      let series_oc =
        Option.map
          (fun path ->
            let oc = open_out_gen [ Open_append; Open_creat; Open_wronly ] 0o644 path in
            output_string oc (Timeseries.header_line ^ "\n");
            Stdlib.flush oc;
            oc)
          config.series_out
      in
      Ok
        {
          config;
          parsed;
          engine;
          registry;
          stop = Atomic.make false;
          queue = [];
          queued_events = 0;
          first_arrival = None;
          ingested = Registry.counter registry "serve.events.ingested.total";
          rejected = Registry.counter registry "serve.events.rejected.total";
          queries = Registry.counter registry "serve.queries.total";
          epochs = Registry.counter registry "serve.epochs.total";
          connections = Registry.counter registry "serve.connections.total";
          (* Log buckets: the old linear [0,0.1)/[0,1.0) ranges dumped
             every slow solve into the overflow tally on large networks
             or loaded hosts, so soaks could not report a p99. *)
          solve_h = Registry.log_histogram registry ~lo:1e-6 ~hi:10.0 ~bins:42 "serve.solve.seconds";
          staleness_h =
            Registry.log_histogram registry ~lo:1e-6 ~hi:100.0 ~bins:48 "serve.staleness.seconds";
          staleness_max = Registry.gauge registry "serve.staleness.max.seconds";
          series = Timeseries.create ~capacity:config.series_capacity ();
          series_oc;
          last_sample = 0.0;
        }

let engine t = t.engine
let registry t = t.registry
let snapshot t = Registry.snapshot t.registry
let prometheus t = Registry.to_prometheus t.registry
let stop t = Atomic.set t.stop true
let stopped t = Atomic.get t.stop

(* ------------------------------------------------------------------ *)
(* Ingestion: queue, coalesce, flush as one epoch.                     *)

let flush t =
  match t.queue with
  | [] -> ()
  | newest_first ->
      let items = List.rev newest_first in
      t.queue <- [];
      t.queued_events <- 0;
      (match t.first_arrival with
      | Some t0 ->
          let staleness = Clock.since_s t0 in
          Registry.observe_log t.staleness_h staleness;
          Registry.set_max t.staleness_max staleness
      | None -> ());
      t.first_arrival <- None;
      let apply items events =
        let t0 = Clock.now_ns () in
        match Batch.apply_result t.engine events with
        | Ok _ ->
            Registry.observe_log t.solve_h (Clock.since_s t0);
            Registry.incr t.epochs;
            if t.config.ack then begin
              let e = Batch.epoch t.engine in
              List.iter (fun p -> p.respond (Printf.sprintf "ok epoch %d" e)) items
            end;
            Ok ()
        | Error _ as e -> e
      in
      let events = List.concat_map (fun p -> p.events) items in
      (match apply items events with
      | Ok () -> ()
      | Error _ ->
          (* The coalesced epoch failed — some queued event no longer
             type-checks against the evolving network (e.g. a leave of
             a receiver that already left), or the solver stalled.
             Isolate the offender(s): re-apply item by item, each lone
             event or batch block as its own epoch, and report
             failures to their own submitter with the original line
             number.  Survivors still land; the daemon never dies on
             bad input. *)
          List.iter
            (fun p ->
              match apply [ p ] p.events with
              | Ok () -> ()
              | Error e ->
                  Registry.incr ~by:(List.length p.events) t.rejected;
                  p.respond
                    (Printf.sprintf "err line %d: %s" p.lineno (Solver_error.to_string e)))
            items)

(* ------------------------------------------------------------------ *)
(* Time-series sampling.                                               *)

(* One sampler tick: refresh the GC gauges, append the registry's flat
   readout to the in-memory series, and mirror the tick to the JSONL
   appender (flushed per line so a killed daemon loses at most one
   tick).  Timestamps are the monotonic clock — strictly monotone
   within a run, immune to NTP steps — exposed for tests; the serve
   loops call it on the configured cadence. *)
let sample t =
  let now = Clock.now_s () in
  t.last_sample <- now;
  let readout = Timeseries.sample t.series ~ts:now t.registry in
  match t.series_oc with
  | None -> ()
  | Some oc ->
      output_string oc (Timeseries.tick_line ~ts:now readout ^ "\n");
      Stdlib.flush oc

let maybe_sample t =
  if
    t.config.sample_interval > 0.0
    && Clock.now_s () -. t.last_sample >= t.config.sample_interval
  then sample t

let series t = t.series

let enqueue t ~lineno ~respond events =
  if t.first_arrival = None then t.first_arrival <- Some (Clock.now_ns ());
  let n = List.length events in
  Registry.incr ~by:n t.ingested;
  t.queue <- { events; lineno; respond } :: t.queue;
  t.queued_events <- t.queued_events + n;
  if t.queued_events >= t.config.max_batch then flush t

(* ------------------------------------------------------------------ *)
(* Queries.                                                            *)

let find_name lineno what names name =
  let found = ref (-1) in
  Array.iteri (fun i n -> if n = name && !found < 0 then found := i) names;
  if !found < 0 then
    raise (Churn_parser.Parse_error (lineno, Printf.sprintf "unknown %s %S" what name));
  !found

let receiver_rows t =
  let net = Batch.network t.engine and alloc = Batch.allocation t.engine in
  Array.to_list (Network.all_receivers net)
  |> List.map (fun (r : Network.receiver_id) ->
         let spec = Network.session_spec net r.Network.session in
         Printf.sprintf "%s %s %.17g"
           t.parsed.Net_parser.session_names.(r.Network.session)
           t.parsed.Net_parser.node_names.(spec.Network.receivers.(r.Network.index))
           (Allocation.rate alloc r))

let answer t ~lineno ~respond (q : Protocol.query) =
  Registry.incr t.queries;
  match q with
  | Protocol.Epoch ->
      flush t;
      respond (Printf.sprintf "epoch %d" (Batch.epoch t.engine))
  | Protocol.Rates ->
      flush t;
      let rows = receiver_rows t in
      respond (Printf.sprintf "rates %d epoch %d" (List.length rows) (Batch.epoch t.engine));
      List.iter respond rows
  | Protocol.Rate { session; node } ->
      flush t;
      let si = find_name lineno "session" t.parsed.Net_parser.session_names session in
      let ni = find_name lineno "node" t.parsed.Net_parser.node_names node in
      let net = Batch.network t.engine in
      let spec = Network.session_spec net si in
      let index = ref (-1) in
      Array.iteri (fun k n -> if n = ni && !index < 0 then index := k) spec.Network.receivers;
      if !index < 0 then
        raise
          (Churn_parser.Parse_error
             (lineno, Printf.sprintf "session %s has no receiver on node %s" session node));
      respond
        (Printf.sprintf "rate %.17g"
           (Allocation.rate (Batch.allocation t.engine)
              { Network.session = si; Network.index = !index }))
  | Protocol.Metrics `Json -> respond ("metrics " ^ Json.to_string (snapshot t))
  | Protocol.Metrics `Prometheus ->
      let lines =
        String.split_on_char '\n' (prometheus t) |> List.filter (fun l -> l <> "")
      in
      respond (Printf.sprintf "metrics prom %d" (List.length lines));
      List.iter respond lines
  | Protocol.Stats ->
      flush t;
      let cval name = Json.Num (float_of_int (Registry.counter_value (Registry.counter t.registry name))) in
      let gval name =
        let g = Registry.gauge t.registry name in
        if Registry.gauge_is_set g then Json.Num (Registry.gauge_value g) else Json.Null
      in
      let quantiles lh =
        let h = Registry.log_histogram_stats lh in
        Json.Obj
          [
            ("count", Json.Num (float_of_int (Mmfair_stats.Log_histogram.count h)));
            ("p50", Json.Num (Registry.log_quantile lh 0.50));
            ("p90", Json.Num (Registry.log_quantile lh 0.90));
            ("p99", Json.Num (Registry.log_quantile lh 0.99));
            ("max", Json.Num (Mmfair_stats.Log_histogram.max_value h));
            ("overflow", Json.Num (float_of_int (Mmfair_stats.Log_histogram.overflow h)));
            ("underflow", Json.Num (float_of_int (Mmfair_stats.Log_histogram.underflow h)));
          ]
      in
      let gc = Gc.quick_stat () in
      respond
        ("stats "
        ^ Json.to_string
            (Json.Obj
               [
                 ("t", Json.Num (Clock.now_s ()));
                 ("epoch", Json.Num (float_of_int (Batch.epoch t.engine)));
                 ("ingested", cval "serve.events.ingested.total");
                 ("rejected", cval "serve.events.rejected.total");
                 ("epochs", cval "serve.epochs.total");
                 ("queries", cval "serve.queries.total");
                 ("connections", cval "serve.connections.total");
                 ("solve", quantiles t.solve_h);
                 ("staleness", quantiles t.staleness_h);
                 ("staleness_max", gval "serve.staleness.max.seconds");
                 ("jain", gval "fairness.jain");
                 ("pool_utilization", gval "pool.utilization");
                 ( "gc",
                   Json.Obj
                     [
                       ("minor", Json.Num (float_of_int gc.Gc.minor_collections));
                       ("major", Json.Num (float_of_int gc.Gc.major_collections));
                       ("heap_words", Json.Num (float_of_int gc.Gc.heap_words));
                     ] );
               ]))
  | Protocol.Series { name; window } ->
      let pts = Timeseries.points t.series name in
      let pts =
        match window with
        | None -> pts
        | Some w ->
            let n = List.length pts in
            if n <= w then pts else List.filteri (fun i _ -> i >= n - w) pts
      in
      respond (Printf.sprintf "series %s %d" name (List.length pts));
      List.iter
        (fun (p : Timeseries.point) ->
          respond
            (Printf.sprintf "%.9g %d %.9g %.9g %.9g %.9g" p.Timeseries.p_t p.Timeseries.p_count
               p.Timeseries.p_min p.Timeseries.p_max (Timeseries.mean p) p.Timeseries.p_last))
        pts

(* ------------------------------------------------------------------ *)
(* Per-connection line handling.                                       *)

type conn = {
  mutable lineno : int;
  mutable block : Churn_parser.batch_state;  (* open [batch ... end], if any *)
  respond : string -> unit;
}

let make_conn respond = { lineno = 0; block = None; respond }

(* Feed one raw line.  A malformed line answers [err line N: ...] and
   the loop lives on; a structural block error (nested batch, empty
   block, end-without-batch) additionally abandons any open block — a
   half-burst must never be applied. *)
let handle_line t (c : conn) raw =
  c.lineno <- c.lineno + 1;
  let lineno = c.lineno in
  let reject (l, msg) =
    Registry.incr t.rejected;
    c.respond (Printf.sprintf "err line %d: %s" l msg)
  in
  match Protocol.parse t.parsed ~lineno raw with
  | exception Churn_parser.Parse_error (l, msg) ->
      reject (l, msg);
      `Continue
  | Protocol.Quit ->
      c.respond "bye";
      `Quit
  | Protocol.Query q -> (
      match answer t ~lineno ~respond:c.respond q with
      | () -> `Continue
      | exception Churn_parser.Parse_error (l, msg) ->
          reject (l, msg);
          `Continue)
  | Protocol.Churn line -> (
      match Churn_parser.step_line c.block ~lineno line with
      | exception Churn_parser.Parse_error (l, msg) ->
          c.block <- None;
          reject (l, msg);
          `Continue
      | block, item ->
          c.block <- block;
          (match item with
          | Some (Churn_parser.Single ev) -> enqueue t ~lineno ~respond:c.respond [ ev ]
          | Some (Churn_parser.Batch evs) -> enqueue t ~lineno ~respond:c.respond evs
          | None -> ());
          `Continue)

(* End-of-stream bookkeeping: a block left open is a trace error,
   reported at its opening line (like the offline parser). *)
let finish_conn t (c : conn) =
  match Churn_parser.close_batch c.block with
  | () -> ()
  | exception Churn_parser.Parse_error (l, msg) ->
      c.block <- None;
      Registry.incr t.rejected;
      c.respond (Printf.sprintf "err line %d: %s" l msg)

(* ------------------------------------------------------------------ *)
(* Transports.                                                         *)

exception Write_timeout

(* Full write, EINTR-safe.  On a non-blocking fd a full send buffer
   surfaces as EAGAIN/EWOULDBLOCK; we then wait for writability via
   select — bounded by [timeout] seconds for the whole write when
   given, raising [Write_timeout] on expiry so one client that stopped
   reading costs its own connection, never the daemon.
   EPIPE/ECONNRESET raise to the caller, which drops the connection
   (SIGPIPE itself is ignored while serving). *)
let write_all ?timeout fd s =
  let deadline = Option.map (fun d -> Clock.now_s () +. d) timeout in
  let b = Bytes.of_string s in
  let n = Bytes.length b in
  let rec go pos =
    if pos < n then
      match Unix.write fd b pos (n - pos) with
      | written -> go (pos + written)
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> go pos
      | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) ->
          let wait =
            match deadline with
            | None -> -1.0 (* unbounded: block until writable *)
            | Some d ->
                let left = d -. Clock.now_s () in
                if left <= 0.0 then raise Write_timeout;
                left
          in
          (match Unix.select [] [ fd ] [] wait with
          | _, [], _ -> if deadline <> None then raise Write_timeout
          | _, _ :: _, _ -> ()
          | exception Unix.Unix_error (Unix.EINTR, _, _) -> ());
          go pos
  in
  go 0

let respond_fd fd line = write_all fd (line ^ "\n")

(* Serve with SIGINT/SIGTERM flipping the stop flag (the select loop
   polls it) and SIGPIPE ignored (a dead client must surface as EPIPE
   on its own write, not kill the process).  Previous dispositions are
   restored on the way out, whatever the loop did. *)
let with_signals t f =
  let install signal behavior =
    match Sys.signal signal behavior with
    | prev -> Some prev
    | exception (Invalid_argument _ | Sys_error _) -> None
  in
  let stop_on _ = stop t in
  let saved =
    [
      (Sys.sigint, install Sys.sigint (Sys.Signal_handle stop_on));
      (Sys.sigterm, install Sys.sigterm (Sys.Signal_handle stop_on));
      (Sys.sigpipe, install Sys.sigpipe Sys.Signal_ignore);
    ]
  in
  Fun.protect
    ~finally:(fun () ->
      List.iter
        (function s, Some prev -> (try Sys.set_signal s prev with _ -> ()) | _, None -> ())
        saved)
    f

(* The registry observes the engine's own probe stream (epoch events
   feed the dynamic.* and fairness.* instruments) tee'd onto whatever
   sink the caller already installed. *)
let with_probe t f =
  Probe.with_sink (Sink.tee (Probe.get ()) (Registry.sink ~clock:Clock.now_s t.registry)) f

let select_read fds timeout =
  match Unix.select fds [] [] timeout with
  | ready, _, _ -> ready
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> []

let serve_fd t ~input ~output =
  with_signals t @@ fun () ->
  with_probe t @@ fun () ->
  Registry.incr t.connections;
  let reader = Line_reader.of_fd input in
  let c = make_conn (respond_fd output) in
  let quit = ref false in
  (* One wakeup = at most one read() plus every line it completed;
     the queue coalesces into a single epoch per wakeup. *)
  let drain_lines () =
    let rec go () =
      match Line_reader.pending_line reader with
      | None -> ()
      | Some raw -> ( match handle_line t c raw with `Quit -> quit := true | `Continue -> go ())
    in
    go ()
  in
  while (not (stopped t)) && (not !quit) && not (Line_reader.at_eof reader) do
    (match select_read [ input ] t.config.poll_interval with
    | [] -> ()
    | _ :: _ ->
        ignore (Line_reader.refill reader);
        drain_lines ());
    flush t;
    maybe_sample t
  done;
  (* EOF may leave a terminator-less trailing line buffered; after a
     [quit], though, anything still buffered (commands sent past quit
     in the same chunk) is dead input and must not be answered. *)
  if not !quit then begin
    drain_lines ();
    if not !quit then finish_conn t c
  end;
  flush t

let serve_socket t ~path =
  with_signals t @@ fun () ->
  with_probe t @@ fun () ->
  let listener = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  (try Unix.unlink path with Unix.Unix_error _ -> ());
  Unix.bind listener (Unix.ADDR_UNIX path);
  Unix.listen listener 16;
  (* Non-blocking, so a connection aborted between select and accept
     surfaces as EAGAIN below instead of blocking the whole loop. *)
  Unix.set_nonblock listener;
  (* fd -> live connection.  The [bool ref] is a liveness guard:
     respond closures outlive the socket (queued acks, lines still
     draining after a drop), and a raw fd number freed by close can be
     reused at once by a concurrent connect/accept — so every respond
     checks the guard first and a stale one becomes a no-op instead of
     a write into somebody else's socket. *)
  let conns : (Unix.file_descr, Line_reader.t * conn * bool ref) Hashtbl.t = Hashtbl.create 8 in
  let close_conn fd =
    match Hashtbl.find_opt conns fd with
    | None -> ()
    | Some (_, c, alive) ->
        Hashtbl.remove conns fd;
        finish_conn t c;
        alive := false;
        (try Unix.close fd with Unix.Unix_error _ -> ())
  in
  let respond_conn fd alive line =
    if !alive then
      try write_all ~timeout:t.config.write_timeout fd (line ^ "\n") with
      | Unix.Unix_error ((Unix.EPIPE | Unix.ECONNRESET | Unix.EBADF), _, _) ->
          (* The client went away mid-answer; drop it, keep serving. *)
          close_conn fd
      | Write_timeout ->
          (* The client stopped reading and its buffer stayed full for
             write_timeout seconds; drop it rather than wedge every
             other connection behind one stalled fd. *)
          close_conn fd
  in
  Fun.protect
    ~finally:(fun () ->
      List.iter close_conn (Hashtbl.fold (fun fd _ acc -> fd :: acc) conns []);
      (try Unix.close listener with Unix.Unix_error _ -> ());
      (try Unix.unlink path with Unix.Unix_error _ -> ());
      flush t)
    (fun () ->
      while not (stopped t) do
        let fds = listener :: Hashtbl.fold (fun fd _ acc -> fd :: acc) conns [] in
        let ready = select_read fds t.config.poll_interval in
        List.iter
          (fun fd ->
            if fd = listener then begin
              match Unix.accept listener with
              | client, _ ->
                  Unix.set_nonblock client;
                  Registry.incr t.connections;
                  let alive = ref true in
                  Hashtbl.replace conns client
                    (Line_reader.of_fd client, make_conn (respond_conn client alive), alive)
              | exception Unix.Unix_error ((Unix.EINTR | Unix.EAGAIN | Unix.EWOULDBLOCK), _, _)
                -> ()
            end
            else
              match Hashtbl.find_opt conns fd with
              | None -> ()
              | Some (reader, c, alive) -> (
                  match Line_reader.refill reader with
                  | status -> (
                      (* A respond mid-loop may drop the connection
                         (slow or dead client); its remaining lines are
                         then dead input, not commands. *)
                      let rec go () =
                        if not !alive then `Continue
                        else
                          match Line_reader.pending_line reader with
                          | None -> `Continue
                          | Some raw -> (
                              match handle_line t c raw with
                              | `Quit -> `Quit
                              | `Continue -> go ())
                      in
                      match (go (), status) with
                      | `Quit, _ | _, `Eof -> close_conn fd
                      | `Continue, `Data -> ())
                  | exception
                      Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) ->
                      ()
                  | exception Unix.Unix_error (Unix.ECONNRESET, _, _) -> close_conn fd))
          ready;
        (* One coalesced epoch per wakeup, across every connection. *)
        flush t;
        maybe_sample t
      done)
