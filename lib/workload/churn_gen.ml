module Graph = Mmfair_topology.Graph
module Network = Mmfair_core.Network
module Xoshiro = Mmfair_prng.Xoshiro
module Event = Mmfair_dynamic.Event

(* One seeded Poisson arrival process, shared by every open-loop
   arrival stream in the tree (flow-level session arrivals in lib/flow,
   `mmfair churnd-load --poisson` pacing, timed traces here).  Keeping
   the exponential-gap sampling in one place means a fixed seed yields
   the same arrival instants wherever the process is consumed. *)
module Arrivals = struct
  type t = { rng : Xoshiro.t; rate : float; mutable next : float }

  let poisson ?(start = 0.0) ~rate rng =
    if not (Float.is_finite rate && rate > 0.0) then
      invalid_arg "Churn_gen.Arrivals.poisson: rate must be finite and positive";
    if not (Float.is_finite start) then
      invalid_arg "Churn_gen.Arrivals.poisson: start must be finite";
    { rng; rate; next = start +. Xoshiro.exponential rng rate }

  let peek t = t.next

  let pop t =
    let at = t.next in
    t.next <- at +. Xoshiro.exponential t.rng t.rate;
    at
end

type config = {
  events : int;
  join_weight : float;
  leave_weight : float;
  rho_weight : float;
  cap_weight : float;
  max_receivers : int;
  rho_inf_prob : float;
  cap_lo_factor : float;
  cap_hi_factor : float;
}

let default =
  {
    events = 100;
    join_weight = 0.35;
    leave_weight = 0.35;
    rho_weight = 0.15;
    cap_weight = 0.15;
    max_receivers = 6;
    rho_inf_prob = 0.25;
    cap_lo_factor = 0.5;
    cap_hi_factor = 1.5;
  }

let check cfg =
  if cfg.events < 0 then invalid_arg "Churn_gen: events must be >= 0";
  if cfg.max_receivers < 1 then invalid_arg "Churn_gen: max_receivers must be >= 1";
  List.iter
    (fun (w, what) ->
      if not (Float.is_finite w && w >= 0.0) then
        invalid_arg (Printf.sprintf "Churn_gen: %s must be finite and >= 0" what))
    [
      (cfg.join_weight, "join_weight");
      (cfg.leave_weight, "leave_weight");
      (cfg.rho_weight, "rho_weight");
      (cfg.cap_weight, "cap_weight");
    ];
  if cfg.join_weight +. cfg.leave_weight +. cfg.rho_weight +. cfg.cap_weight <= 0.0 then
    invalid_arg "Churn_gen: all event weights are zero";
  if not (Float.is_finite cfg.cap_lo_factor && cfg.cap_lo_factor > 0.0) then
    invalid_arg "Churn_gen: cap_lo_factor must be a finite positive number";
  if not (Float.is_finite cfg.cap_hi_factor && cfg.cap_hi_factor >= cfg.cap_lo_factor) then
    invalid_arg "Churn_gen: cap_hi_factor must be finite and >= cap_lo_factor";
  if not (cfg.rho_inf_prob >= 0.0 && cfg.rho_inf_prob <= 1.0) then
    invalid_arg "Churn_gen: rho_inf_prob must be in [0, 1]"

(* Mirror of the evolving network, just rich enough to keep generated
   events applicable in order: per-session member node sets and the
   current link capacities. *)
type sim = {
  senders : int array;
  members : (int, unit) Hashtbl.t array; (* node -> () per session *)
  caps : float array;
  orig_caps : float array;
  nodes : int;
}

let sim_of net =
  let g = Network.graph net in
  let m = Network.session_count net in
  let senders = Array.init m (fun i -> (Network.session_spec net i).Network.sender) in
  let members =
    Array.init m (fun i ->
        let tbl = Hashtbl.create 8 in
        Array.iter (fun r -> Hashtbl.replace tbl r ()) (Network.session_spec net i).Network.receivers;
        tbl)
  in
  let caps = Array.init (Graph.link_count g) (Graph.capacity g) in
  { senders; members; caps; orig_caps = Array.copy caps; nodes = Graph.node_count g }

(* Sessions with room to grow and at least one free node. *)
let join_candidate rng sim cfg =
  let m = Array.length sim.senders in
  let eligible = ref [] in
  for i = 0 to m - 1 do
    if Hashtbl.length sim.members.(i) < cfg.max_receivers
       && Hashtbl.length sim.members.(i) + 1 < sim.nodes
    then eligible := i :: !eligible
  done;
  match !eligible with
  | [] -> None
  | sessions ->
      let i = List.nth sessions (Xoshiro.below rng (List.length sessions)) in
      let free = ref [] in
      for v = sim.nodes - 1 downto 0 do
        if v <> sim.senders.(i) && not (Hashtbl.mem sim.members.(i) v) then free := v :: !free
      done;
      let node = List.nth !free (Xoshiro.below rng (List.length !free)) in
      Some (i, node)

(* Sessions that can afford to lose a receiver (>= 2 members). *)
let leave_candidate rng sim =
  let eligible = ref [] in
  Array.iteri (fun i tbl -> if Hashtbl.length tbl >= 2 then eligible := i :: !eligible) sim.members;
  match !eligible with
  | [] -> None
  | sessions ->
      let i = List.nth sessions (Xoshiro.below rng (List.length sessions)) in
      let nodes = Hashtbl.fold (fun v () acc -> v :: acc) sim.members.(i) [] in
      let nodes = List.sort compare nodes in
      let node = List.nth nodes (Xoshiro.below rng (List.length nodes)) in
      Some (i, node)

let generate ~rng net cfg =
  check cfg;
  let sim = sim_of net in
  let m = Array.length sim.senders in
  let nl = Array.length sim.caps in
  let max_cap = Array.fold_left Stdlib.max 1.0 sim.orig_caps in
  let out = ref [] in
  let n_out = ref 0 in
  let classes = [| `Join; `Leave; `Rho; `Cap |] in
  let weights = [| cfg.join_weight; cfg.leave_weight; cfg.rho_weight; cfg.cap_weight |] in
  if nl = 0 then weights.(3) <- 0.0;
  let total_weight = Array.fold_left ( +. ) 0.0 weights in
  if total_weight <= 0.0 then invalid_arg "Churn_gen: no applicable event class for this network";
  let pick_class () =
    let x = Xoshiro.float rng *. total_weight in
    let acc = ref 0.0 and chosen = ref `Join in
    (try
       Array.iteri
         (fun k w ->
           acc := !acc +. w;
           if x < !acc then begin
             chosen := classes.(k);
             raise Exit
           end)
         weights
     with Exit -> ());
    !chosen
  in
  let emit ev =
    out := ev :: !out;
    incr n_out
  in
  let attempts = ref 0 in
  let max_attempts = (cfg.events * 16) + 16 in
  while !n_out < cfg.events && !attempts < max_attempts do
    incr attempts;
    match pick_class () with
    | `Join -> (
        match join_candidate rng sim cfg with
        | None -> ()
        | Some (i, node) ->
            Hashtbl.replace sim.members.(i) node ();
            emit (Event.Join { session = i; node; weight = None }))
    | `Leave -> (
        match leave_candidate rng sim with
        | None -> ()
        | Some (i, node) ->
            Hashtbl.remove sim.members.(i) node;
            emit (Event.Leave { session = i; node }))
    | `Rho ->
        let i = Xoshiro.below rng m in
        let rho =
          if Xoshiro.bernoulli rng cfg.rho_inf_prob then infinity
          else Xoshiro.uniform rng (0.05 *. max_cap) (1.2 *. max_cap)
        in
        emit (Event.Rho_change { session = i; rho })
    | `Cap ->
        let l = Xoshiro.below rng nl in
        let cap = sim.orig_caps.(l) *. Xoshiro.uniform rng cfg.cap_lo_factor cfg.cap_hi_factor in
        sim.caps.(l) <- cap;
        emit (Event.Capacity_change { link = l; cap })
  done;
  List.rev !out

let generate_timed ~rng net cfg ~rate =
  let events = generate ~rng net cfg in
  (* The arrival process draws from the same rng *after* the event
     draws, so a (seed, config, rate) triple fully determines the timed
     trace — and the untimed prefix equals plain [generate]. *)
  let arrivals = Arrivals.poisson ~rate rng in
  List.map (fun ev -> (Arrivals.pop arrivals, ev)) events
