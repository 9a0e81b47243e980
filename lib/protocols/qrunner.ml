module Graph = Mmfair_topology.Graph
module Routing = Mmfair_topology.Routing
module Engine = Mmfair_sim.Engine
module Qlink = Mmfair_sim.Qlink
module Scheme = Mmfair_layering.Scheme
module Xoshiro = Mmfair_prng.Xoshiro

type traffic =
  | Layered
  | Aimd of { alpha : float; min_rate : float; initial_rate : float }

type membership_mode =
  | Ideal
  | Igmp of { leave_timeout : float; join_hop_delay : float }

type config = {
  kind : Protocol.kind;
  layers : int;
  unit_rate : float;
  duration : float;
  warmup : float;
  buffer : int;
  link_delay : float;
  marking : Qlink.marking;
  membership : membership_mode;
  seed : int64;
}

let config ?(layers = 6) ?(unit_rate = 8.0) ?(duration = 120.0) ?(warmup = 30.0) ?(buffer = 16)
    ?(link_delay = 0.001) ?(marking = Qlink.No_marking) ?(membership = Ideal) ?(seed = 42L) kind =
  if layers < 1 then invalid_arg "Qrunner.config: need at least one layer";
  if not (unit_rate > 0.0) then invalid_arg "Qrunner.config: unit rate must be positive";
  if not (duration > warmup) || warmup < 0.0 then invalid_arg "Qrunner.config: bad duration/warmup";
  (match membership with
  | Ideal -> ()
  | Igmp { leave_timeout; join_hop_delay } ->
      if leave_timeout < 0.0 || join_hop_delay < 0.0 then
        invalid_arg "Qrunner.config: negative membership latency");
  { kind; layers; unit_rate; duration; warmup; buffer; link_delay; marking; membership; seed }

type session_spec = {
  sender : Graph.node;
  receivers : Graph.node array;
  traffic : traffic;
}

let layered ~sender ~receivers = { sender; receivers; traffic = Layered }

let aimd ?(alpha = 4.0) ?(min_rate = 1.0) ?(initial_rate = 8.0) ~sender ~receiver () =
  if not (alpha > 0.0 && min_rate > 0.0 && initial_rate >= min_rate) then
    invalid_arg "Qrunner.aimd: bad parameters";
  { sender; receivers = [| receiver |]; traffic = Aimd { alpha; min_rate; initial_rate } }

type session_result = {
  goodput : float array;
  mean_level : float array;
  sustainable : float array;
  link_rates : float array;
      (* packets entering each link per second during measurement *)
}

type multi_result = {
  sessions : session_result array;
  total_drops : (Graph.link_id * int) list;
  total_marks : int;
  link_utilization : (Graph.link_id * float) list;
}

(* AIMD sender state: rate-based additive increase (once per RTT when
   no congestion was reported in that RTT), multiplicative decrease on
   a congestion report (at most one decrease per RTT). *)
type aimd_state = {
  alpha : float;
  min_rate : float;
  mutable rate : float;
  rtt : float;
  mutable last_decrease : float;
  mutable congested_since_tick : bool;
}

type proto_state =
  | Layered_state of {
      states : Protocol.receiver array;
      psender : Protocol.sender;
      schedule : Layer_schedule.t;
      sched_rng : Xoshiro.t;
    }
  | Aimd_state of aimd_state

(* per-session routed tree and protocol state *)
type session_state = {
  spec : session_spec;
  paths : Graph.link_id array array;
  children : (Graph.link_id * Graph.node) list array;
  downstream : int list array;
  receivers_at : int list array;
  proto : proto_state;
  membership : Mmfair_sim.Membership.t option;
  layer_seq : int array;
  next_seq : int array array;
  received : int array;
  level_integral : float array;
  last_level_update : float array;
  link_entered : int array;
}

type event =
  | Send of int
  | Aimd_tick of int
  | Congestion_report of int  (* reaches the AIMD sender after ~RTT/2 *)
  | Arrive of { session : int; node : Graph.node; layer : int; seq : int;
                signal : int option; marked : bool }

let build_session cfg graph root spec =
  let n = Array.length spec.receivers in
  if n = 0 then invalid_arg "Qrunner: session needs at least one receiver";
  (match spec.traffic with
  | Aimd _ when n <> 1 -> invalid_arg "Qrunner: AIMD sessions have exactly one receiver"
  | _ -> ());
  let m = cfg.layers in
  let paths =
    Array.mapi
      (fun k route ->
        match route with
        | Some p -> Array.of_list p
        | None -> invalid_arg (Printf.sprintf "Qrunner: receiver %d unreachable" k))
      (Routing.routes graph [| (spec.sender, spec.receivers) |]).(0)
  in
  let node_count = Graph.node_count graph in
  let children = Array.make node_count [] in
  let downstream = Array.make (Graph.link_count graph) [] in
  let seen_edge = Hashtbl.create 64 in
  Array.iteri
    (fun k path ->
      let v = ref spec.sender in
      Array.iter
        (fun l ->
          let w = Graph.other_end graph l !v in
          if not (Hashtbl.mem seen_edge l) then begin
            Hashtbl.add seen_edge l ();
            children.(!v) <- children.(!v) @ [ (l, w) ]
          end;
          downstream.(l) <- k :: downstream.(l);
          v := w)
        path)
    paths;
  let receivers_at = Array.make node_count [] in
  Array.iteri (fun k r -> receivers_at.(r) <- k :: receivers_at.(r)) spec.receivers;
  let proto =
    match spec.traffic with
    | Layered ->
        Layered_state
          {
            states =
              Array.init n (fun _ -> Protocol.receiver cfg.kind ~layers:m ~rng:(Xoshiro.split root));
            psender = Protocol.sender cfg.kind ~layers:m;
            schedule = Layer_schedule.create (Scheme.exponential ~layers:m);
            sched_rng = Xoshiro.split root;
          }
    | Aimd { alpha; min_rate; initial_rate } ->
        let hops = Array.length paths.(0) in
        Aimd_state
          {
            alpha;
            min_rate;
            rate = initial_rate;
            rtt = Stdlib.max 0.005 (2.0 *. float_of_int hops *. cfg.link_delay);
            last_decrease = neg_infinity;
            congested_since_tick = false;
          }
  in
  let membership =
    match (cfg.membership, spec.traffic) with
    | Ideal, _ | _, Aimd _ -> None
    | Igmp { leave_timeout; join_hop_delay }, Layered ->
        let mem =
          Mmfair_sim.Membership.create ~links:(Graph.link_count graph) ~layers:m ~leave_timeout
            ~join_hop_delay
        in
        (* every receiver starts joined to layer 1, pre-propagated *)
        Array.iter
          (fun path -> Mmfair_sim.Membership.join mem ~now:(-1000.0) ~path ~layer:1)
          paths;
        Some mem
  in
  {
    spec;
    paths;
    children;
    downstream;
    receivers_at;
    proto;
    membership;
    layer_seq = Array.make m 0;
    next_seq = Array.make_matrix n m (-1);
    received = Array.make n 0;
    level_integral = Array.make n 0.0;
    last_level_update = Array.make n cfg.warmup;
    link_entered = Array.make (Graph.link_count graph) 0;
  }

let run_multi cfg ~graph ~sessions =
  if Array.length sessions = 0 then invalid_arg "Qrunner.run_multi: need at least one session";
  let m = cfg.layers in
  let root = Xoshiro.create ~seed:cfg.seed () in
  let mark_rng = Xoshiro.split root in
  let ss = Array.map (build_session cfg graph root) sessions in
  let qlinks =
    Array.init (Graph.link_count graph) (fun l ->
        Qlink.create ~capacity:(Graph.capacity graph l) ~delay:cfg.link_delay ~buffer:cfg.buffer
          ~marking:cfg.marking ~rng:(Xoshiro.split mark_rng) ())
  in
  let engine = Engine.create () in
  let scheme = Scheme.exponential ~layers:m in
  let aggregate = Scheme.top_rate scheme *. cfg.unit_rate in
  let layered_interval = 1.0 /. aggregate in
  let update_level_integral s k now level =
    if now > cfg.warmup then begin
      let from = Stdlib.max s.last_level_update.(k) cfg.warmup in
      s.level_integral.(k) <- s.level_integral.(k) +. (float_of_int level *. (now -. from))
    end;
    s.last_level_update.(k) <- now
  in
  let desync s k ~from_layer ~to_layer =
    for l = from_layer to to_layer do
      if l >= 1 && l <= m then s.next_seq.(k).(l - 1) <- -1
    done
  in
  let subscribed s k ~layer =
    match s.proto with
    | Layered_state ls -> Protocol.subscribed ls.states.(k) ~layer
    | Aimd_state _ -> layer = 1
  in
  let forward now si ~node ~layer ~seq ~signal ~marked =
    let s = ss.(si) in
    List.iter
      (fun (l, w) ->
        let wanted =
          match s.membership with
          | Some mem -> Mmfair_sim.Membership.flowing mem ~now ~link:l ~layer
          | None -> List.exists (fun k -> subscribed s k ~layer) s.downstream.(l)
        in
        if wanted then begin
          if now > cfg.warmup then s.link_entered.(l) <- s.link_entered.(l) + 1;
          match Qlink.offer qlinks.(l) ~now with
          | Qlink.Accepted { delivery; marked = mark_here } ->
              Engine.schedule_at engine ~time:delivery
                (Arrive { session = si; node = w; layer; seq; signal; marked = marked || mark_here })
          | Qlink.Dropped -> ()
        end)
      s.children.(node)
  in
  let membership_transition s k ~before ~after now =
    match s.membership with
    | None -> ()
    | Some mem ->
        let path = s.paths.(k) in
        if after > before then
          for layer = before + 1 to after do
            Mmfair_sim.Membership.join mem ~now ~path ~layer
          done
        else
          for layer = after + 1 to before do
            Mmfair_sim.Membership.leave mem ~now ~path ~layer
          done
  in
  let aimd_congestion now si =
    (* the receiver reports congestion; the report reaches the sender
       after ~RTT/2 *)
    let s = ss.(si) in
    match s.proto with
    | Aimd_state st -> Engine.schedule_at engine ~time:(now +. (st.rtt /. 2.0)) (Congestion_report si)
    | Layered_state _ -> ()
  in
  let deliver now si k ~layer ~seq ~signal ~marked =
    let s = ss.(si) in
    match s.proto with
    | Aimd_state _ ->
        let expected = s.next_seq.(k).(0) in
        if expected >= 0 && seq > expected then aimd_congestion now si;
        s.next_seq.(k).(0) <- seq + 1;
        if now > cfg.warmup then s.received.(k) <- s.received.(k) + 1;
        if marked then aimd_congestion now si
    | Layered_state ls ->
        if Protocol.subscribed ls.states.(k) ~layer then begin
          let expected = s.next_seq.(k).(layer - 1) in
          let before = Protocol.level ls.states.(k) in
          if expected >= 0 && seq > expected then Protocol.on_congestion ls.states.(k);
          if Protocol.subscribed ls.states.(k) ~layer then begin
            s.next_seq.(k).(layer - 1) <- seq + 1;
            if now > cfg.warmup then s.received.(k) <- s.received.(k) + 1;
            if marked then Protocol.on_congestion ls.states.(k)
            else Protocol.on_received ls.states.(k) ~signal
          end;
          let after = Protocol.level ls.states.(k) in
          if after <> before then begin
            update_level_integral s k now before;
            membership_transition s k ~before ~after now;
            if after > before then desync s k ~from_layer:(before + 1) ~to_layer:after
            else desync s k ~from_layer:(after + 1) ~to_layer:before
          end
        end
  in
  let handler now = function
    | Send si ->
        let s = ss.(si) in
        let layer, signal, next_at =
          match s.proto with
          | Layered_state ls ->
              let layer = Layer_schedule.next ls.schedule ~rng:ls.sched_rng in
              (layer, Protocol.on_send ls.psender ~layer, now +. layered_interval)
          | Aimd_state st -> (1, None, now +. (1.0 /. st.rate))
        in
        let seq = s.layer_seq.(layer - 1) in
        s.layer_seq.(layer - 1) <- seq + 1;
        List.iter (fun k -> deliver now si k ~layer ~seq ~signal ~marked:false) s.receivers_at.(s.spec.sender);
        forward now si ~node:s.spec.sender ~layer ~seq ~signal ~marked:false;
        if next_at <= cfg.duration then Engine.schedule_at engine ~time:next_at (Send si);
        Engine.Continue
    | Aimd_tick si ->
        (match ss.(si).proto with
        | Aimd_state st ->
            if not st.congested_since_tick then st.rate <- st.rate +. st.alpha;
            st.congested_since_tick <- false;
            if now +. st.rtt <= cfg.duration then
              Engine.schedule_at engine ~time:(now +. st.rtt) (Aimd_tick si)
        | Layered_state _ -> ());
        Engine.Continue
    | Congestion_report si ->
        (match ss.(si).proto with
        | Aimd_state st ->
            if now -. st.last_decrease >= st.rtt then begin
              st.rate <- Stdlib.max st.min_rate (st.rate /. 2.0);
              st.last_decrease <- now;
              st.congested_since_tick <- true
            end
        | Layered_state _ -> ());
        Engine.Continue
    | Arrive { session = si; node; layer; seq; signal; marked } ->
        List.iter (fun k -> deliver now si k ~layer ~seq ~signal ~marked) ss.(si).receivers_at.(node);
        forward now si ~node ~layer ~seq ~signal ~marked;
        Engine.Continue
  in
  Array.iteri
    (fun si s ->
      let offset = layered_interval *. float_of_int si /. float_of_int (Array.length ss) in
      Engine.schedule_at engine ~time:offset (Send si);
      match s.proto with
      | Aimd_state st -> Engine.schedule_at engine ~time:(offset +. st.rtt) (Aimd_tick si)
      | Layered_state _ -> ())
    ss;
  Engine.run engine ~until:cfg.duration ~handler;
  let window = cfg.duration -. cfg.warmup in
  let session_results =
    Array.map
      (fun s ->
        (match s.proto with
        | Layered_state ls ->
            Array.iteri (fun k st -> update_level_integral s k cfg.duration (Protocol.level st)) ls.states
        | Aimd_state _ ->
            Array.iteri (fun k _ -> update_level_integral s k cfg.duration 1) s.received);
        let sustainable =
          Array.map
            (fun path ->
              let bottleneck =
                Array.fold_left (fun acc l -> Stdlib.min acc (Graph.capacity graph l)) infinity path
              in
              match s.spec.traffic with
              | Aimd _ -> bottleneck
              | Layered ->
                  let level = Scheme.level_for_rate scheme (bottleneck /. cfg.unit_rate) in
                  Scheme.cumulative scheme level *. cfg.unit_rate)
            s.paths
        in
        {
          goodput = Array.map (fun c -> float_of_int c /. window) s.received;
          mean_level = Array.map (fun integral -> integral /. window) s.level_integral;
          sustainable;
          link_rates = Array.map (fun c -> float_of_int c /. window) s.link_entered;
        })
      ss
  in
  {
    sessions = session_results;
    total_drops = List.init (Array.length qlinks) (fun l -> (l, Qlink.dropped qlinks.(l)));
    total_marks = Array.fold_left (fun acc q -> acc + Qlink.marked q) 0 qlinks;
    link_utilization =
      List.init (Array.length qlinks) (fun l -> (l, Qlink.utilization qlinks.(l) ~now:cfg.duration));
  }

type result = {
  goodput : float array;
  mean_level : float array;
  sustainable : float array;
  drops : (Graph.link_id * int) list;
  marks : int;
  utilization : (Graph.link_id * float) list;
}

let run cfg ~graph ~sender ~receivers =
  let r = run_multi cfg ~graph ~sessions:[| layered ~sender ~receivers |] in
  let s = r.sessions.(0) in
  {
    goodput = s.goodput;
    mean_level = s.mean_level;
    sustainable = s.sustainable;
    drops = r.total_drops;
    marks = r.total_marks;
    utilization = r.link_utilization;
  }

let run_star cfg ~shared_capacity ~fanout_capacities =
  let star = Mmfair_topology.Builders.modified_star ~shared_capacity ~fanout_capacities in
  run cfg ~graph:star.Mmfair_topology.Builders.graph ~sender:star.Mmfair_topology.Builders.sender
    ~receivers:star.Mmfair_topology.Builders.receivers
