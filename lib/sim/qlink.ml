type marking =
  | No_marking
  | Threshold of int
  | Red of { min_th : float; max_th : float; max_p : float; weight : float }

type t = {
  capacity : float;
  delay : float;
  buffer : int;
  marking : marking;
  rng : Mmfair_prng.Xoshiro.t option;
  service : float; (* seconds per packet *)
  mutable last_offer : float;
  (* departure times of queued/in-service packets, earliest first;
     kept short (<= buffer) so a list is fine *)
  mutable departures : float list;
  mutable avg_queue : float;
  mutable offered : int;
  mutable dropped : int;
  mutable marked : int;
  mutable busy : float; (* cumulative transmission time *)
}

let create ~capacity ?(delay = 0.001) ?(buffer = 32) ?(marking = No_marking) ?rng () =
  if not (capacity > 0.0) then invalid_arg "Qlink.create: capacity must be positive";
  if delay < 0.0 then invalid_arg "Qlink.create: negative delay";
  if buffer < 1 then invalid_arg "Qlink.create: buffer must hold at least one packet";
  (match marking with
  | No_marking -> ()
  | Threshold q -> if q < 1 then invalid_arg "Qlink.create: marking threshold must be >= 1"
  | Red { min_th; max_th; max_p; weight } ->
      if not (0.0 <= min_th && min_th < max_th) then invalid_arg "Qlink.create: RED thresholds";
      if not (0.0 < max_p && max_p <= 1.0) then invalid_arg "Qlink.create: RED max_p in (0,1]";
      if not (0.0 < weight && weight <= 1.0) then invalid_arg "Qlink.create: RED weight in (0,1]";
      if rng = None then invalid_arg "Qlink.create: RED marking requires an rng");
  {
    capacity;
    delay;
    buffer;
    marking;
    rng;
    service = 1.0 /. capacity;
    last_offer = neg_infinity;
    departures = [];
    avg_queue = 0.0;
    offered = 0;
    dropped = 0;
    marked = 0;
    busy = 0.0;
  }


let prune t ~now = t.departures <- List.filter (fun d -> d > now) t.departures

type verdict = Accepted of { delivery : float; marked : bool } | Dropped

let decide_mark t queue_now =
  match t.marking with
  | No_marking -> false
  | Threshold q -> queue_now >= q
  | Red { min_th; max_th; max_p; weight } ->
      (* EWMA update on every arrival, then the linear mark profile *)
      t.avg_queue <- ((1.0 -. weight) *. t.avg_queue) +. (weight *. float_of_int queue_now);
      if t.avg_queue < min_th then false
      else if t.avg_queue >= max_th then true
      else begin
        let p = max_p *. (t.avg_queue -. min_th) /. (max_th -. min_th) in
        match t.rng with Some rng -> Mmfair_prng.Xoshiro.bernoulli rng p | None -> false
      end

let offer t ~now =
  if now < t.last_offer then invalid_arg "Qlink.offer: time moved backwards";
  t.last_offer <- now;
  prune t ~now;
  t.offered <- t.offered + 1;
  let queue_now = List.length t.departures in
  if queue_now >= t.buffer then begin
    t.dropped <- t.dropped + 1;
    Dropped
  end
  else begin
    let mark = decide_mark t queue_now in
    if mark then t.marked <- t.marked + 1;
    let start = match List.rev t.departures with [] -> now | last :: _ -> Stdlib.max now last in
    let departure = start +. t.service in
    t.departures <- t.departures @ [ departure ];
    t.busy <- t.busy +. t.service;
    Accepted { delivery = departure +. t.delay; marked = mark }
  end

let queue_length t ~now =
  prune t ~now;
  List.length t.departures

let avg_queue t = t.avg_queue
let offered t = t.offered
let dropped t = t.dropped
let marked t = t.marked

let utilization t ~now = if now <= 0.0 then 0.0 else Stdlib.min 1.0 (t.busy /. now)
