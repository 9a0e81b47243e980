module Graph = Mmfair_topology.Graph
module Routing = Mmfair_topology.Routing

type t = {
  paths : Graph.link_id array array;
  all_links : Graph.link_id list;
  (* Per-packet memo, keyed by link id and stamped with a packet
     counter so no per-delivery allocation is needed. *)
  stamp : int array;
  passed : bool array;
  mutable packet : int;
}

let make g ~sender ~receivers =
  if Array.length receivers = 0 then invalid_arg "Mcast_tree.make: need at least one receiver";
  let routed = (Routing.routes g [| (sender, receivers) |]).(0) in
  let paths =
    Array.mapi
      (fun k route ->
        match route with
        | Some p -> Array.of_list p
        | None -> invalid_arg (Printf.sprintf "Mcast_tree.make: receiver %d unreachable" k))
      routed
  in
  let all_links =
    Array.fold_left (fun acc p -> Array.fold_left (fun acc l -> l :: acc) acc p) [] paths
    |> List.sort_uniq compare
  in
  let n_links = Graph.link_count g in
  { paths; all_links; stamp = Array.make n_links (-1); passed = Array.make n_links false; packet = 0 }

let receiver_count t = Array.length t.paths
let path_of t k =
  if k < 0 || k >= Array.length t.paths then invalid_arg "Mcast_tree.path_of: unknown receiver";
  Array.copy t.paths.(k)

let links t = t.all_links

type delivery = { entered : Graph.link_id list; received : int list }

let deliver t ~subscribed ~drops =
  t.packet <- t.packet + 1;
  let stamp = t.packet in
  let entered = ref [] and received = ref [] in
  (* In a (BFS-)tree the prefix of links leading to any given link is
     unique, so sampling each link once and memoizing its outcome
     yields a consistent per-packet realization: receivers behind the
     same lossy link share its fate. *)
  for k = Array.length t.paths - 1 downto 0 do
    if subscribed k then begin
      let path = t.paths.(k) in
      let alive = ref true in
      let i = ref 0 in
      let len = Array.length path in
      while !alive && !i < len do
        let l = path.(!i) in
        if t.stamp.(l) = stamp then alive := t.passed.(l)
        else begin
          entered := l :: !entered;
          let ok = not (drops l) in
          t.stamp.(l) <- stamp;
          t.passed.(l) <- ok;
          alive := ok
        end;
        incr i
      done;
      if !alive then received := k :: !received
    end
  done;
  { entered = !entered; received = !received }
