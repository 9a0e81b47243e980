module Graph = Mmfair_topology.Graph
module Builders = Mmfair_topology.Builders
module Network = Mmfair_core.Network

type cls = {
  label : string;
  sender : Graph.node;
  attach : Graph.node;
  size : Size.t;
  rate : float;
  peak_rate : float option;
}

let cls ?(label = "class") ?peak_rate ~sender ~attach ~size ~rate () =
  { label; sender; attach; size; rate; peak_rate }

type t = {
  graph : Graph.t;
  classes : cls array;
  slots : int;
  park_rho : float;
  net : Network.t;
}

(* Small enough that a full pool of parked slots consumes a negligible
   fraction of any link modelled at O(1) capacity. *)
let default_park_rho = 1e-9

let check_class i c =
  if not (Float.is_finite c.rate && c.rate > 0.0) then
    invalid_arg
      (Printf.sprintf "Scenario: class %d (%s) arrival rate must be finite and positive" i c.label);
  Size.check c.size;
  match c.peak_rate with
  | None -> ()
  | Some p ->
      if not (Float.is_finite p && p > 0.0) then
        invalid_arg
          (Printf.sprintf "Scenario: class %d (%s) peak rate must be finite and positive" i c.label)

let make ?(park_rho = default_park_rho) ?(slots = 64) graph classes =
  if Array.length classes = 0 then invalid_arg "Scenario.make: no classes";
  if slots < 1 then invalid_arg "Scenario.make: slots must be >= 1";
  if not (Float.is_finite park_rho && park_rho > 0.0) then
    invalid_arg "Scenario.make: park_rho must be finite and positive";
  Array.iteri check_class classes;
  (* Class-major slot pool: session [c*slots + s] is the s-th flow slot
     of class c, a single-receiver session parked at a negligible rho.
     Distinct sessions may share a node, so all of a class's slots sit
     on its one attach node. *)
  let specs =
    Array.init
      (Array.length classes * slots)
      (fun id ->
        let c = classes.(id / slots) in
        Network.session ~rho:park_rho ~sender:c.sender ~receivers:[| c.attach |] ())
  in
  { graph; classes; slots; park_rho; net = Network.make graph specs }

let network t = t.net
let graph t = t.graph
let classes t = t.classes
let class_count t = Array.length t.classes
let slots t = t.slots
let park_rho t = t.park_rho
let session_of t ~cls ~slot = (cls * t.slots) + slot

let active_rho c = match c.peak_rate with None -> infinity | Some p -> p

let link_loads t =
  let g = t.graph in
  let loads = Array.make (Graph.link_count g) 0.0 in
  Array.iteri
    (fun c spec ->
      (* All slots of a class share the (sender, attach) route; slot 0
         stands in for the class. *)
      let work = spec.rate *. Size.mean spec.size in
      List.iter
        (fun l -> loads.(l) <- loads.(l) +. (work /. Graph.capacity g l))
        (Network.session_links t.net (session_of t ~cls:c ~slot:0)))
    t.classes;
  loads

let offered_load t = Array.fold_left Float.max 0.0 (link_loads t)

let scale_to_load ?park_rho ?slots:slots' t ~load =
  if not (Float.is_finite load && load > 0.0) then
    invalid_arg "Scenario.scale_to_load: load must be finite and positive";
  let current = offered_load t in
  if current <= 0.0 then invalid_arg "Scenario.scale_to_load: scenario offers no load";
  let f = load /. current in
  let classes = Array.map (fun c -> { c with rate = c.rate *. f }) t.classes in
  let park_rho = Option.value park_rho ~default:t.park_rho in
  let slots = Option.value slots' ~default:t.slots in
  (* The network holds only the slot pool (senders, attach nodes,
     [park_rho]), never a class rate: with the pool unchanged it is
     reused as it is. *)
  if slots = t.slots && Float.equal park_rho t.park_rho then begin
    Array.iteri check_class classes;
    { t with classes }
  end
  else make ~park_rho ~slots t.graph classes

let single_link ?(capacity = 1.0) ?(slots = 64) ?park_rho ~size ~rate () =
  if not (Float.is_finite capacity && capacity > 0.0) then
    invalid_arg "Scenario.single_link: capacity must be finite and positive";
  let g = Graph.create ~nodes:2 in
  ignore (Graph.add_link g 0 1 capacity);
  make ?park_rho ~slots g
    [| { label = "flow"; sender = 0; attach = 1; size; rate; peak_rate = None } |]

let star_of_stars ?(clusters = 8) ?(trunk_capacity = 4.0) ?(leaf_factor = 4.0) ?(slots = 64)
    ?park_rho ~size ~rate () =
  if clusters < 1 then invalid_arg "Scenario.star_of_stars: clusters must be >= 1";
  if not (Float.is_finite trunk_capacity && trunk_capacity > 0.0) then
    invalid_arg "Scenario.star_of_stars: trunk_capacity must be finite and positive";
  if not (Float.is_finite leaf_factor && leaf_factor >= 1.0) then
    invalid_arg "Scenario.star_of_stars: leaf_factor must be finite and >= 1";
  (* Flows of distinct sessions SUM on a shared link, so the leaf
     needs headroom over the trunk to keep the trunk the unique
     bottleneck of its class.  The topology itself is the shared
     star-of-stars builder at one leaf per cluster — same node and
     link numbering this module used to construct privately. *)
  let t =
    Builders.star_of_stars ~clusters ~trunk_capacity
      ~leaf_capacity:(trunk_capacity *. leaf_factor) ()
  in
  let classes =
    Array.init clusters (fun c ->
        { label = Printf.sprintf "cluster%d" c; sender = t.Builders.root;
          attach = t.Builders.leaves.(c).(0); size; rate; peak_rate = None })
  in
  make ?park_rho ~slots t.Builders.graph classes
