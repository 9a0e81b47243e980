module Histogram = Mmfair_stats.Histogram
module Log_histogram = Mmfair_stats.Log_histogram

type counter = { c_name : string; mutable c_value : int }
type gauge = { g_name : string; mutable g_value : float; mutable g_set : bool }

type histogram = {
  h_name : string;
  h_lo : float;
  h_hi : float;
  h_bins : int;
  h : Histogram.t;
  mutable h_sum : float;
}

type log_histogram = { l_name : string; l_lo : float; l_hi : float; l_bins : int; l : Log_histogram.t }

type instrument =
  | Counter of counter
  | Gauge of gauge
  | Histo of histogram
  | Log_histo of log_histogram

type t = { instruments : (string, instrument) Hashtbl.t }

let create () = { instruments = Hashtbl.create 32 }

let kind_name = function
  | Counter _ -> "counter"
  | Gauge _ -> "gauge"
  | Histo _ -> "histogram"
  | Log_histo _ -> "log_histogram"

let clash name want got =
  invalid_arg
    (Printf.sprintf "Registry.%s: %S is already registered as a %s" want name (kind_name got))

let counter t name =
  match Hashtbl.find_opt t.instruments name with
  | Some (Counter c) -> c
  | Some other -> clash name "counter" other
  | None ->
      let c = { c_name = name; c_value = 0 } in
      Hashtbl.add t.instruments name (Counter c);
      c

let incr ?(by = 1) c =
  if by < 0 then
    invalid_arg (Printf.sprintf "Registry.incr: counter %S is monotonic (by = %d)" c.c_name by);
  c.c_value <- c.c_value + by

let counter_value c = c.c_value

let gauge t name =
  match Hashtbl.find_opt t.instruments name with
  | Some (Gauge g) -> g
  | Some other -> clash name "gauge" other
  | None ->
      let g = { g_name = name; g_value = 0.0; g_set = false } in
      Hashtbl.add t.instruments name (Gauge g);
      g

let set g v =
  g.g_value <- v;
  g.g_set <- true

let set_max g v = if (not g.g_set) || v > g.g_value then set g v
let gauge_value g = g.g_value
let gauge_is_set g = g.g_set

let histogram t ~lo ~hi ~bins name =
  match Hashtbl.find_opt t.instruments name with
  | Some (Histo h) ->
      if h.h_lo <> lo || h.h_hi <> hi || h.h_bins <> bins then
        invalid_arg
          (Printf.sprintf "Registry.histogram: %S re-registered with different bucketing" name);
      h
  | Some other -> clash name "histogram" other
  | None ->
      let h = { h_name = name; h_lo = lo; h_hi = hi; h_bins = bins; h = Histogram.create ~lo ~hi ~bins; h_sum = 0.0 } in
      Hashtbl.add t.instruments name (Histo h);
      h

let observe h x =
  Histogram.add h.h x;
  h.h_sum <- h.h_sum +. x

let log_histogram t ~lo ~hi ~bins name =
  match Hashtbl.find_opt t.instruments name with
  | Some (Log_histo l) ->
      if l.l_lo <> lo || l.l_hi <> hi || l.l_bins <> bins then
        invalid_arg
          (Printf.sprintf "Registry.log_histogram: %S re-registered with different bucketing" name);
      l
  | Some other -> clash name "log_histogram" other
  | None ->
      let l = { l_name = name; l_lo = lo; l_hi = hi; l_bins = bins; l = Log_histogram.create ~lo ~hi ~bins } in
      Hashtbl.add t.instruments name (Log_histo l);
      l

let observe_log l x = Log_histogram.add l.l x
let log_quantile l q = Log_histogram.quantile l.l q
let log_histogram_stats l = l.l

(* --- snapshot ------------------------------------------------------- *)

let sorted_instruments t =
  Hashtbl.fold (fun _ i acc -> i :: acc) t.instruments []
  |> List.sort
       (fun a b ->
         let name = function
           | Counter c -> c.c_name
           | Gauge g -> g.g_name
           | Histo h -> h.h_name
           | Log_histo l -> l.l_name
         in
         compare (name a) (name b))

let schema_id = "mmfair.metrics/v2"

let snapshot t : Json.t =
  let instruments = sorted_instruments t in
  let counters =
    List.filter_map
      (function Counter c -> Some (c.c_name, Json.Num (float_of_int c.c_value)) | _ -> None)
      instruments
  in
  let gauges =
    List.filter_map (function Gauge g -> Some (g.g_name, Json.Num g.g_value) | _ -> None) instruments
  in
  let histograms =
    List.filter_map
      (function
        | Histo h ->
            let counts =
              List.init h.h_bins (fun i -> Json.Num (float_of_int (Histogram.bin_count h.h i)))
            in
            Some
              ( h.h_name,
                Json.Obj
                  [
                    ("lo", Json.Num h.h_lo);
                    ("hi", Json.Num h.h_hi);
                    ("bins", Json.Num (float_of_int h.h_bins));
                    ("count", Json.Num (float_of_int (Histogram.count h.h)));
                    ("sum", Json.Num h.h_sum);
                    ("underflow", Json.Num (float_of_int (Histogram.underflow h.h)));
                    ("overflow", Json.Num (float_of_int (Histogram.overflow h.h)));
                    ("counts", Json.List counts);
                  ] )
        | _ -> None)
      instruments
  in
  let log_histograms =
    List.filter_map
      (function
        | Log_histo l ->
            let counts =
              List.init l.l_bins (fun i -> Json.Num (float_of_int (Log_histogram.bin_count l.l i)))
            in
            Some
              ( l.l_name,
                Json.Obj
                  [
                    ("lo", Json.Num l.l_lo);
                    ("hi", Json.Num l.l_hi);
                    ("bins", Json.Num (float_of_int l.l_bins));
                    ("count", Json.Num (float_of_int (Log_histogram.count l.l)));
                    ("sum", Json.Num (Log_histogram.sum l.l));
                    ("underflow", Json.Num (float_of_int (Log_histogram.underflow l.l)));
                    ("overflow", Json.Num (float_of_int (Log_histogram.overflow l.l)));
                    ("max", Json.Num (Log_histogram.max_value l.l));
                    ("p50", Json.Num (Log_histogram.quantile l.l 0.50));
                    ("p90", Json.Num (Log_histogram.quantile l.l 0.90));
                    ("p99", Json.Num (Log_histogram.quantile l.l 0.99));
                    ("counts", Json.List counts);
                  ] )
        | _ -> None)
      instruments
  in
  Json.Obj
    [
      ("schema", Json.Str schema_id);
      ("counters", Json.Obj counters);
      ("gauges", Json.Obj gauges);
      ("histograms", Json.Obj histograms);
      ("log_histograms", Json.Obj log_histograms);
    ]

(* --- the flat sample readout (for time-series capture) --------------- *)

let sample t =
  List.concat_map
    (function
      | Counter c -> [ (c.c_name, float_of_int c.c_value) ]
      | Gauge g -> if g.g_set then [ (g.g_name, g.g_value) ] else []
      | Histo h ->
          let n = Histogram.count h.h in
          [
            (h.h_name ^ ".count", float_of_int n);
            (h.h_name ^ ".mean", if n = 0 then 0.0 else h.h_sum /. float_of_int n);
          ]
      | Log_histo l ->
          let n = Log_histogram.count l.l in
          if n = 0 then [ (l.l_name ^ ".count", 0.0) ]
          else
            [
              (l.l_name ^ ".count", float_of_int n);
              (l.l_name ^ ".p50", Log_histogram.quantile l.l 0.50);
              (l.l_name ^ ".p90", Log_histogram.quantile l.l 0.90);
              (l.l_name ^ ".p99", Log_histogram.quantile l.l 0.99);
              (l.l_name ^ ".max", Log_histogram.max_value l.l);
            ])
    (sorted_instruments t)

(* --- Prometheus text exposition ------------------------------------- *)

let prom_name name =
  let b = Buffer.create (String.length name + 7) in
  Buffer.add_string b "mmfair_";
  String.iter
    (fun c ->
      match c with
      | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' -> Buffer.add_char b c
      | _ -> Buffer.add_char b '_')
    name;
  Buffer.contents b

(* Cumulative buckets; underflow observations (x < lo) are counted as
   <= every edge, which is the tightest sound bound available without
   their values.  Shared by the linear and log kinds — only the edge
   sequence differs. *)
let prom_histogram b ~name ~bins ~underflow ~edge ~bin_count ~total ~sum =
  let n = prom_name name in
  Buffer.add_string b (Printf.sprintf "# TYPE %s histogram\n" n);
  let cum = ref underflow in
  for i = 0 to bins - 1 do
    cum := !cum + bin_count i;
    Buffer.add_string b
      (Printf.sprintf "%s_bucket{le=\"%s\"} %d\n" n (Json.to_string (Json.Num (edge i))) !cum)
  done;
  Buffer.add_string b (Printf.sprintf "%s_bucket{le=\"+Inf\"} %d\n" n total);
  Buffer.add_string b (Printf.sprintf "%s_sum %s\n" n (Json.to_string (Json.Num sum)));
  Buffer.add_string b (Printf.sprintf "%s_count %d\n" n total)

let to_prometheus t =
  let b = Buffer.create 1024 in
  List.iter
    (function
      | Counter c ->
          let n = prom_name c.c_name in
          Buffer.add_string b (Printf.sprintf "# TYPE %s counter\n%s %d\n" n n c.c_value)
      | Gauge g ->
          let n = prom_name g.g_name in
          Buffer.add_string b (Printf.sprintf "# TYPE %s gauge\n%s %s\n" n n (Json.to_string (Json.Num g.g_value)))
      | Histo h ->
          prom_histogram b ~name:h.h_name ~bins:h.h_bins ~underflow:(Histogram.underflow h.h)
            ~edge:(fun i -> snd (Histogram.bin_edges h.h i))
            ~bin_count:(Histogram.bin_count h.h) ~total:(Histogram.count h.h) ~sum:h.h_sum
      | Log_histo l ->
          prom_histogram b ~name:l.l_name ~bins:l.l_bins ~underflow:(Log_histogram.underflow l.l)
            ~edge:(fun i -> snd (Log_histogram.bin_edges l.l i))
            ~bin_count:(Log_histogram.bin_count l.l) ~total:(Log_histogram.count l.l)
            ~sum:(Log_histogram.sum l.l))
    (sorted_instruments t);
  Buffer.contents b

(* --- the standard probe -> registry bridge --------------------------- *)

let sink ?(clock = Unix.gettimeofday) t =
  let rounds_total = counter t "solver.rounds.total" in
  let freezes_total = counter t "solver.freezes.total" in
  let saturations = counter t "solver.saturated.links.total" in
  let active_hist = histogram t ~lo:0.0 ~hi:256.0 ~bins:32 "solver.round.active" in
  let epochs_total = counter t "dynamic.epochs.total" in
  let full_solves = counter t "dynamic.full_solves.total" in
  let component_solves = counter t "dynamic.solves.total" in
  let reuse_hist = histogram t ~lo:0.0 ~hi:1.0 ~bins:20 "dynamic.epoch.reuse_fraction" in
  let component_hist = histogram t ~lo:0.0 ~hi:256.0 ~bins:32 "dynamic.epoch.component_receivers" in
  let batches_total = counter t "dynamic.batches.total" in
  let batch_events = counter t "dynamic.batch.events.total" in
  let batch_cancelled = counter t "dynamic.batch.cancelled.total" in
  let batch_size_hist = histogram t ~lo:0.0 ~hi:64.0 ~bins:32 "dynamic.batch.events" in
  let jain_g = gauge t "fairness.jain" in
  let delta_lh = log_histogram t ~lo:1e-6 ~hi:1e3 ~bins:36 "fairness.delta_rate" in
  let delta_max_g = gauge t "fairness.delta_rate.max" in
  let components_g = gauge t "fairness.components" in
  let largest_g = gauge t "fairness.largest_component" in
  let pool_batches = counter t "pool.batches.total" in
  let pool_tasks = counter t "pool.tasks.total" in
  let pool_domains_g = gauge t "pool.domains" in
  let pool_util_g = gauge t "pool.utilization" in
  let pool_wait_lh = log_histogram t ~lo:1e-7 ~hi:10.0 ~bins:32 "pool.task.wait.seconds" in
  let pool_busy_lh = log_histogram t ~lo:1e-7 ~hi:10.0 ~bins:32 "pool.task.busy.seconds" in
  let scheduled = counter t "sim.events.scheduled.total" in
  let fired = counter t "sim.events.fired.total" in
  let dropped = counter t "sim.events.dropped.total" in
  let depth_hwm = gauge t "sim.queue.depth.hwm" in
  let span_seconds = histogram t ~lo:0.0 ~hi:10.0 ~bins:50 "span.seconds" in
  let span_stack = ref [] in
  Sink.make
    ~on_round:(fun (ev : Events.round) ->
      incr rounds_total;
      incr ~by:(List.length ev.Events.frozen) freezes_total;
      incr ~by:(List.length ev.Events.saturated_links) saturations;
      observe active_hist (float_of_int ev.Events.active);
      incr (counter t ("solver.rounds." ^ ev.Events.solver));
      set (gauge t ("solver.level." ^ ev.Events.solver)) ev.Events.level)
    ~on_epoch:(fun (ev : Events.epoch) ->
      incr epochs_total;
      incr ~by:ev.Events.solves component_solves;
      if ev.Events.full_solve then incr full_solves;
      incr (counter t ("dynamic.events." ^ ev.Events.kind));
      observe reuse_hist ev.Events.reuse_fraction;
      observe component_hist (float_of_int ev.Events.component_receivers);
      incr batches_total;
      incr ~by:ev.Events.events batch_events;
      incr ~by:ev.Events.cancelled batch_cancelled;
      observe batch_size_hist (float_of_int ev.Events.events);
      set jain_g ev.Events.jain;
      observe_log delta_lh ev.Events.max_delta_rate;
      set_max delta_max_g ev.Events.max_delta_rate;
      set components_g (float_of_int ev.Events.components);
      set largest_g (float_of_int ev.Events.largest_component))
    ~on_pool:(fun (ev : Events.pool) ->
      incr pool_batches;
      incr ~by:ev.Events.p_tasks pool_tasks;
      set pool_domains_g (float_of_int ev.Events.p_domains);
      if ev.Events.p_wall > 0.0 && ev.Events.p_domains > 0 then
        set pool_util_g
          (ev.Events.p_busy_total /. (ev.Events.p_wall *. float_of_int ev.Events.p_domains));
      if ev.Events.p_tasks > 0 then begin
        (* One histogram entry per batch (the mean), plus the max:
           per-task entries would be O(tasks) work inside the bridge. *)
        observe_log pool_wait_lh (ev.Events.p_wait_total /. float_of_int ev.Events.p_tasks);
        observe_log pool_busy_lh (ev.Events.p_busy_total /. float_of_int ev.Events.p_tasks)
      end)
    ~on_sim:(function
      | Events.Scheduled { depth; _ } ->
          incr scheduled;
          set_max depth_hwm (float_of_int depth)
      | Events.Fired _ -> incr fired
      | Events.Dropped { count } -> incr ~by:count dropped)
    ~on_span_begin:(fun name -> span_stack := (name, clock ()) :: !span_stack)
    ~on_span_end:(fun name ->
      match !span_stack with
      | (top, t0) :: rest when top = name ->
          span_stack := rest;
          incr (counter t ("span.count." ^ name));
          observe span_seconds (clock () -. t0)
      | _ -> ())
    ()
