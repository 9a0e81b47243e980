(* Chrome trace_event writer (the JSON-object format with a
   "traceEvents" array), streamed incrementally so a crash mid-run
   still leaves a mostly-loadable file and memory use stays O(1).
   chrome://tracing and Perfetto both accept it.  Format reference:
   the "Trace Event Format" document (catapult project). *)

type t = {
  emit : string -> unit;
  clock : unit -> float;
  t0 : float;
  mutable events : int;
  mutable closed : bool;
}

let create ?clock ~emit () =
  let clock = match clock with Some c -> c | None -> Unix.gettimeofday in
  emit "{\"traceEvents\":[";
  { emit; clock; t0 = clock (); events = 0; closed = false }

let event_count t = t.events

let push t (json : Json.t) =
  if not t.closed then begin
    t.emit (if t.events = 0 then "\n" else ",\n");
    t.emit (Json.to_string json);
    t.events <- t.events + 1
  end

let ts_us t = (t.clock () -. t.t0) *. 1e6

let base ~name ~cat ~ph ~ts rest =
  Json.Obj
    ([
       ("name", Json.Str name);
       ("cat", Json.Str cat);
       ("ph", Json.Str ph);
       ("ts", Json.Num ts);
       ("pid", Json.Num 1.0);
       ("tid", Json.Num 1.0);
     ]
    @ rest)

let counter t ~name ~ts fields = push t (base ~name ~cat:"counter" ~ph:"C" ~ts [ ("args", Json.Obj fields) ])

let on_round t (ev : Events.round) =
  let ts = ts_us t in
  push t
    (base ~name:"round" ~cat:"solver" ~ph:"i" ~ts
       [
         ("s", Json.Str "t");
         ( "args",
           Json.Obj
             [
               ("solver", Json.Str ev.Events.solver);
               ("round", Json.Num (float_of_int ev.Events.round));
               ("level", Json.Num ev.Events.level);
               ("increment", Json.Num ev.Events.increment);
               ("active", Json.Num (float_of_int ev.Events.active));
               ("frozen", Json.Num (float_of_int (List.length ev.Events.frozen)));
               ( "saturated_links",
                 Json.List (List.map (fun l -> Json.Num (float_of_int l)) ev.Events.saturated_links)
               );
               ( "bottleneck_link",
                 match ev.Events.bottleneck_link with
                 | Some l -> Json.Num (float_of_int l)
                 | None -> Json.Null );
               ("residual_slack", Json.Num ev.Events.residual_slack);
             ] );
       ]);
  counter t ~name:("active:" ^ ev.Events.solver) ~ts
    [ ("receivers", Json.Num (float_of_int ev.Events.active)) ]

let on_epoch t (ev : Events.epoch) =
  let ts = ts_us t in
  let int n = Json.Num (float_of_int n) in
  push t
    (base ~name:"epoch" ~cat:"dynamic" ~ph:"i" ~ts
       [
         ("s", Json.Str "t");
         ( "args",
           Json.Obj
             [
               ("epoch", int ev.Events.epoch);
               ("kind", Json.Str ev.Events.kind);
               ("events", int ev.Events.events);
               ("net_events", int ev.Events.net_events);
               ("cancelled", int ev.Events.cancelled);
               ("component_sessions", int ev.Events.component_sessions);
               ("component_receivers", int ev.Events.component_receivers);
               ("total_receivers", int ev.Events.total_receivers);
               ("reuse_fraction", Json.Num ev.Events.reuse_fraction);
               ("full_solve", Json.Bool ev.Events.full_solve);
               ("solves", int ev.Events.solves);
               ("components", int ev.Events.components);
               ("largest_component", int ev.Events.largest_component);
               ("jain", Json.Num ev.Events.jain);
               ("max_delta_rate", Json.Num ev.Events.max_delta_rate);
             ] );
       ]);
  counter t ~name:"dynamic:reuse" ~ts [ ("fraction", Json.Num ev.Events.reuse_fraction) ];
  counter t ~name:"dynamic:batch-events" ~ts [ ("events", int ev.Events.events) ];
  counter t ~name:"dynamic:jain" ~ts [ ("index", Json.Num ev.Events.jain) ]

let on_pool t (ev : Events.pool) =
  let ts = ts_us t in
  let util =
    if ev.Events.p_wall > 0.0 && ev.Events.p_domains > 0 then
      ev.Events.p_busy_total /. (ev.Events.p_wall *. float_of_int ev.Events.p_domains)
    else 0.0
  in
  push t
    (base ~name:"pool" ~cat:"pool" ~ph:"i" ~ts
       [
         ("s", Json.Str "t");
         ( "args",
           Json.Obj
             [
               ("domains", Json.Num (float_of_int ev.Events.p_domains));
               ("tasks", Json.Num (float_of_int ev.Events.p_tasks));
               ("wall", Json.Num ev.Events.p_wall);
               ("wait_total", Json.Num ev.Events.p_wait_total);
               ("wait_max", Json.Num ev.Events.p_wait_max);
               ("busy_total", Json.Num ev.Events.p_busy_total);
               ("busy_max", Json.Num ev.Events.p_busy_max);
             ] );
       ]);
  counter t ~name:"pool:utilization" ~ts [ ("fraction", Json.Num util) ]

let on_sim t (ev : Events.sim) =
  let ts = ts_us t in
  match ev with
  | Events.Scheduled { depth; _ } | Events.Fired { depth; _ } ->
      counter t ~name:"sim:queue-depth" ~ts [ ("depth", Json.Num (float_of_int depth)) ]
  | Events.Dropped { count } ->
      push t
        (base ~name:"sim:dropped" ~cat:"sim" ~ph:"i" ~ts
           [ ("s", Json.Str "t"); ("args", Json.Obj [ ("count", Json.Num (float_of_int count)) ]) ])

let on_span t ph name = push t (base ~name ~cat:"span" ~ph ~ts:(ts_us t) [])

let sink t =
  Sink.make ~on_round:(on_round t) ~on_epoch:(on_epoch t) ~on_pool:(on_pool t) ~on_sim:(on_sim t)
    ~on_span_begin:(on_span t "B")
    ~on_span_end:(on_span t "E")
    ()

let close t =
  if not t.closed then begin
    t.closed <- true;
    t.emit "\n]}\n"
  end
