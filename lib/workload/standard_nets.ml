module Graph = Mmfair_topology.Graph
module Builders = Mmfair_topology.Builders
module Network = Mmfair_core.Network

let ablation ~sessions =
  let rng = Mmfair_prng.Xoshiro.create ~seed:123L () in
  Random_nets.generate ~rng
    {
      Random_nets.default with
      Random_nets.sessions;
      nodes = 4 * sessions;
      max_receivers = 4;
      extra_links = sessions;
    }

let churn_bench () =
  let raw = ablation ~sessions:100 in
  let g = Graph.copy (Network.graph raw) in
  let inc = Network.incidence raw in
  for l = 0 to Graph.link_count g - 1 do
    let crossing = inc.Network.link_row.(l + 1) - inc.Network.link_row.(l) in
    if crossing >= 2 then Graph.set_capacity g l (50.0 *. float_of_int crossing)
    else if crossing = 1 then Graph.set_capacity g l (2.0 +. (0.5 *. float_of_int (l mod 8)))
  done;
  let sessions =
    Array.init (Network.session_count raw) (fun i ->
        let spec = Network.session_spec raw i in
        { spec with Network.rho = Float.min spec.Network.rho 10.0 })
  in
  Network.make g sessions

let fat_tree ~k ~per_host =
  let t = Builders.fat_tree ~k () in
  let half = k / 2 in
  let hosts = t.Builders.hosts in
  let peer h j =
    let base = h / half * half in
    base + ((h - base + 1 + (j mod (half - 1))) mod half)
  in
  ( t,
    Array.init
      (Array.length hosts * per_host)
      (fun s ->
        let h = s / per_host and j = s mod per_host in
        Network.session ~sender:hosts.(h) ~receivers:[| hosts.(peer h j) |] ()) )

let power_law ~rng ~nodes ~attach =
  let g = (Builders.power_law ~rng ~nodes ~attach ~cap_lo:1.0 ~cap_hi:4.0).Builders.graph in
  ( g,
    Array.init nodes (fun v ->
        match Graph.neighbors g v with
        | (u, _) :: _ -> Network.session ~sender:v ~receivers:[| u |] ()
        | [] -> invalid_arg (Printf.sprintf "isolated node %d" v)) )

let full_heap () =
  let t = Builders.balanced_tree ~depth:2 ~fanout:3 ~capacity_at:(fun d -> if d = 0 then 3.0 else 2.0) in
  let level = t.Builders.level_nodes in
  let leaves = level.(2) in
  let group j = Array.sub leaves (3 * j) 3 in
  let roots =
    List.init 3 (fun j ->
        Network.session ~rho:(0.6 +. (0.3 *. float_of_int j)) ~sender:t.Builders.root ~receivers:(group j) ())
  in
  let units =
    List.init 9 (fun i ->
        Network.session
          ~rho:(0.5 +. (0.25 *. float_of_int (i mod 4)))
          ~sender:level.(1).(i / 3) ~receivers:[| leaves.(i) |] ())
  in
  let cross =
    [
      Network.session ~rho:1.0 ~sender:leaves.(0) ~receivers:[| leaves.(4); leaves.(8) |] ();
      Network.session ~session_type:Network.Single_rate ~rho:1.0 ~sender:leaves.(5)
        ~receivers:[| leaves.(1); leaves.(6) |] ();
    ]
  in
  Network.make t.Builders.graph (Array.of_list (roots @ units @ cross))
