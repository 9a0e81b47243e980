module Batch = Mmfair_dynamic.Batch
module Event = Mmfair_dynamic.Event
module Allocation = Mmfair_core.Allocation
module Xoshiro = Mmfair_prng.Xoshiro
module Arrivals = Mmfair_workload.Churn_gen.Arrivals
module Log_histogram = Mmfair_stats.Log_histogram
module Timeseries = Mmfair_obs.Timeseries

type config = {
  horizon : float;
  seed : int64;
  domains : int;
  pulses : (float * int) list;
  series_capacity : int;
  record_departures : bool;
}

let default =
  {
    horizon = 100.0;
    seed = 0x5EED_F10AL;
    domains = 1;
    pulses = [];
    series_capacity = 256;
    record_departures = false;
  }

type departure = { d_time : float; d_cls : int; d_slot : int; d_size : float; d_sojourn : float }

type result = {
  offered_load : float;
  horizon : float;
  arrivals : int;
  departures : int;
  blocked : int;
  pulse_arrivals : int;
  epochs : int;
  applied_events : int;
  final_population : int;
  max_population : int;
  time_avg_population : float;
  first_half_mean : float;
  second_half_mean : float;
  regenerations : int;
  sojourn : Log_histogram.t;
  flow_rate : Log_histogram.t;
  series : Timeseries.t;
  departure_log : departure list;
}

let mean_sojourn r =
  if Log_histogram.count r.sojourn = 0 then nan
  else Log_histogram.sum r.sojourn /. float_of_int (Log_histogram.count r.sojourn)

let completion_rate r = float_of_int r.departures /. r.horizon

let check_config (cfg : config) =
  if not (Float.is_finite cfg.horizon && cfg.horizon > 0.0) then
    invalid_arg "Sim.run: horizon must be finite and positive";
  if cfg.domains < 1 then invalid_arg "Sim.run: domains must be >= 1";
  if cfg.series_capacity < 2 then invalid_arg "Sim.run: series_capacity must be >= 2";
  List.iter
    (fun (at, n) ->
      if not (Float.is_finite at && at >= 0.0) then
        invalid_arg "Sim.run: pulse time must be finite and >= 0";
      if n < 1 then invalid_arg "Sim.run: pulse size must be >= 1")
    cfg.pulses

let run ?(config = default) scn =
  check_config config;
  let nc = Scenario.class_count scn in
  let slots = Scenario.slots scn in
  let classes = Scenario.classes scn in
  let park_rho = Scenario.park_rho scn in
  let horizon = config.horizon in
  let eng = Batch.create ~domains:config.domains (Scenario.network scn) in
  (* One child rng per class, split off the master in class order:
     every class's draw sequence (arrival gap, size, gap, size, …) is
     then independent of the other classes, so trajectories are fully
     determined by (seed, scenario, config). *)
  let master = Xoshiro.create ~seed:config.seed () in
  let rngs = Array.init nc (fun _ -> Xoshiro.split master) in
  let streams =
    Array.init nc (fun c -> Arrivals.poisson ~rate:classes.(c).Scenario.rate rngs.(c))
  in
  (* Per-flow state is indexed by [f = c * slots + s].  The active
     flows are [live.(0 .. population - 1)] ([pos] is each one's place
     there, so removal swaps in the last): every per-epoch scan walks
     the population, not every class × slot. *)
  let residual = Array.make (nc * slots) 0.0 in
  let arrived = Array.make (nc * slots) 0.0 in
  let size_of = Array.make (nc * slots) 0.0 in
  let rate = Array.make (nc * slots) 0.0 in
  let live = Array.make (nc * slots) 0 and pos = Array.make (nc * slots) 0 in
  let population = ref 0 in
  let activate f =
    live.(!population) <- f;
    pos.(f) <- !population;
    incr population
  in
  let deactivate f =
    decr population;
    let last = live.(!population) in
    live.(pos.(f)) <- last;
    pos.(last) <- pos.(f)
  in
  let free = Array.init nc (fun _ -> List.init slots (fun s -> s)) in
  let sojourn = Log_histogram.create ~lo:1e-4 ~hi:1e5 ~bins:108 in
  let flow_rate = Log_histogram.create ~lo:1e-5 ~hi:1e4 ~bins:108 in
  let series = Timeseries.create ~capacity:config.series_capacity () in
  let pulses = ref (List.sort compare config.pulses) in
  let rr = ref 0 in
  let t = ref 0.0 in
  let arrivals = ref 0 in
  let departures = ref 0 in
  let blocked = ref 0 in
  let pulse_arrivals = ref 0 in
  let epochs = ref 0 in
  let applied_events = ref 0 in
  let max_population = ref 0 in
  let regenerations = ref 0 in
  let dep_log = ref [] in
  let mid = horizon /. 2.0 in
  let int_first = ref 0.0 in
  let int_second = ref 0.0 in
  let integrate t0 t1 n =
    (* Population is piecewise constant between epochs; split the
       segment at the halfway mark so the drift statistic (second-half
       vs first-half time average) is exact. *)
    let n = float_of_int n in
    if t1 <= mid then int_first := !int_first +. (n *. (t1 -. t0))
    else if t0 >= mid then int_second := !int_second +. (n *. (t1 -. t0))
    else begin
      int_first := !int_first +. (n *. (mid -. t0));
      int_second := !int_second +. (n *. (t1 -. mid))
    end
  in
  let refresh_rates () =
    let alloc = Batch.allocation eng in
    for j = 0 to !population - 1 do
      let f = live.(j) in
      rate.(f) <-
        Allocation.rate alloc
          { Mmfair_core.Network.session = Scenario.session_of scn ~cls:(f / slots) ~slot:(f mod slots);
            index = 0 }
    done
  in
  (* One admission: sample the workload first (the offered stream does
     not depend on admission), then take a slot or count the loss. *)
  let admit ~pulse c now evs =
    let w = Size.sample rngs.(c) classes.(c).Scenario.size in
    incr arrivals;
    if pulse then incr pulse_arrivals;
    match free.(c) with
    | [] ->
        incr blocked;
        evs
    | s :: rest ->
        free.(c) <- rest;
        let f = (c * slots) + s in
        activate f;
        residual.(f) <- w;
        size_of.(f) <- w;
        arrived.(f) <- now;
        if !population > !max_population then max_population := !population;
        Event.Rho_change
          { session = Scenario.session_of scn ~cls:c ~slot:s;
            rho = Scenario.active_rho classes.(c) }
        :: evs
  in
  let finished = ref false in
  while not !finished do
    (* Next epoch instant: earliest arrival, completion or pulse. *)
    let t_arr = ref infinity in
    for c = 0 to nc - 1 do
      if Arrivals.peek streams.(c) < !t_arr then t_arr := Arrivals.peek streams.(c)
    done;
    let t_dep = ref infinity in
    for j = 0 to !population - 1 do
      let f = live.(j) in
      if rate.(f) > 0.0 then begin
        let d = !t +. (residual.(f) /. rate.(f)) in
        if d < !t_dep then t_dep := d
      end
    done;
    let t_pulse = match !pulses with [] -> infinity | (at, _) :: _ -> at in
    let t_next = Float.min (Float.min !t_arr !t_dep) (Float.min t_pulse horizon) in
    integrate !t t_next !population;
    let dt = t_next -. !t in
    if dt > 0.0 then
      for j = 0 to !population - 1 do
        let f = live.(j) in
        residual.(f) <- Float.max 0.0 (residual.(f) -. (rate.(f) *. dt))
      done;
    t := t_next;
    if t_next >= horizon then finished := true
    else begin
      let had_population = !population > 0 in
      let evs = ref [] in
      (* Completions first (they free slots for same-instant arrivals):
         every flow whose scheduled finish is (numerically) now, taken
         in (class, slot) order so the free lists and the event order
         do not depend on the order of [live]. *)
      let dep_tol = 1e-12 *. (1.0 +. Float.abs t_next) in
      if !t_dep <= t_next +. dep_tol then begin
        let done_ = ref [] in
        for j = 0 to !population - 1 do
          let f = live.(j) in
          (* After draining exactly (residual/rate)·rate the leftover is
             rounding noise of order eps·size, so the done-test
             tolerance scales with the flow's size. *)
          if rate.(f) > 0.0 && residual.(f) <= 1e-9 *. (1.0 +. size_of.(f)) then done_ := f :: !done_
        done;
        List.iter
          (fun f ->
            let c = f / slots and s = f mod slots in
            deactivate f;
            residual.(f) <- 0.0;
            free.(c) <- s :: free.(c);
            incr departures;
            let so = t_next -. arrived.(f) in
            Log_histogram.add sojourn so;
            if so > 0.0 then Log_histogram.add flow_rate (size_of.(f) /. so);
            if config.record_departures then
              dep_log :=
                { d_time = t_next; d_cls = c; d_slot = s; d_size = size_of.(f); d_sojourn = so }
                :: !dep_log;
            evs :=
              Event.Rho_change { session = Scenario.session_of scn ~cls:c ~slot:s; rho = park_rho }
              :: !evs)
          (List.sort Int.compare !done_)
      end;
      (* Poisson arrivals landing at this instant. *)
      for c = 0 to nc - 1 do
        while Arrivals.peek streams.(c) <= t_next do
          ignore (Arrivals.pop streams.(c));
          evs := admit ~pulse:false c t_next !evs
        done
      done;
      (* Flash-crowd pulses: a burst of simultaneous arrivals dealt
         round-robin across classes, coalesced into this one epoch. *)
      let rec fire_pulses () =
        match !pulses with
        | (at, n) :: rest when at <= t_next ->
            pulses := rest;
            for _ = 1 to n do
              evs := admit ~pulse:true (!rr mod nc) t_next !evs;
              incr rr
            done;
            fire_pulses ()
        | _ -> ()
      in
      fire_pulses ();
      (match !evs with
      | [] -> ()
      | evs ->
          let stats = Batch.apply eng evs in
          incr epochs;
          applied_events := !applied_events + stats.Batch.events;
          refresh_rates ());
      if had_population && !population = 0 then incr regenerations;
      Timeseries.observe series ~ts:t_next "flow.population" (float_of_int !population);
      Timeseries.observe series ~ts:t_next "flow.departures" (float_of_int !departures);
      Timeseries.observe series ~ts:t_next "flow.blocked" (float_of_int !blocked)
    end
  done;
  {
    offered_load = Scenario.offered_load scn;
    horizon;
    arrivals = !arrivals;
    departures = !departures;
    blocked = !blocked;
    pulse_arrivals = !pulse_arrivals;
    epochs = !epochs;
    applied_events = !applied_events;
    final_population = !population;
    max_population = !max_population;
    time_avg_population = (!int_first +. !int_second) /. horizon;
    first_half_mean = !int_first /. mid;
    second_half_mean = !int_second /. (horizon -. mid);
    regenerations = !regenerations;
    sojourn;
    flow_rate;
    series;
    departure_log = List.rev !dep_log;
  }
