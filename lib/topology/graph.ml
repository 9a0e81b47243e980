type node = int
type link_id = int

type link = { a : node; b : node }

(* Capacities live in one flat float array beside the link records:
   the solvers read them by link id in their per-link loops, unboxed
   (see [unsafe_capacities]). *)
type t = {
  mutable nodes : int;
  mutable links : link array;
  mutable caps : float array; (* same length as [links] *)
  mutable nlinks : int;
  mutable adj : (node * link_id) list array; (* reversed insertion order *)
}

let create ~nodes =
  if nodes < 0 then invalid_arg "Graph.create: negative node count";
  {
    nodes;
    links = Array.make 8 { a = 0; b = 0 };
    caps = Array.make 8 0.0;
    nlinks = 0;
    adj = Array.make (max nodes 1) [];
  }

let add_node g =
  let id = g.nodes in
  g.nodes <- g.nodes + 1;
  if g.nodes > Array.length g.adj then begin
    let fresh = Array.make (2 * Array.length g.adj) [] in
    Array.blit g.adj 0 fresh 0 (Array.length g.adj);
    g.adj <- fresh
  end;
  id

let check_node g v name =
  if v < 0 || v >= g.nodes then invalid_arg (Printf.sprintf "Graph.%s: unknown node %d" name v)

let add_link g a b cap =
  check_node g a "add_link";
  check_node g b "add_link";
  if a = b then invalid_arg "Graph.add_link: self-loop";
  if not (cap > 0.0) then invalid_arg "Graph.add_link: capacity must be positive";
  let id = g.nlinks in
  if id = Array.length g.links then begin
    let fresh = Array.make (2 * id) g.links.(0) and caps = Array.make (2 * id) 0.0 in
    Array.blit g.links 0 fresh 0 id;
    Array.blit g.caps 0 caps 0 id;
    g.links <- fresh;
    g.caps <- caps
  end;
  g.links.(id) <- { a; b };
  g.caps.(id) <- cap;
  g.nlinks <- g.nlinks + 1;
  g.adj.(a) <- (b, id) :: g.adj.(a);
  g.adj.(b) <- (a, id) :: g.adj.(b);
  id

let node_count g = g.nodes
let link_count g = g.nlinks

let copy g =
  {
    nodes = g.nodes;
    links = Array.copy g.links;
    caps = Array.copy g.caps;
    nlinks = g.nlinks;
    adj = Array.copy g.adj;
  }

let set_capacity g l cap =
  if l < 0 || l >= g.nlinks then invalid_arg (Printf.sprintf "Graph.set_capacity: unknown link %d" l);
  if not (cap > 0.0) then invalid_arg "Graph.set_capacity: capacity must be positive";
  g.caps.(l) <- cap

let check_link g l name =
  if l < 0 || l >= g.nlinks then invalid_arg (Printf.sprintf "Graph.%s: unknown link %d" name l)

let capacity g l =
  check_link g l "capacity";
  g.caps.(l)

let unsafe_capacities g = g.caps

let endpoints g l =
  check_link g l "endpoints";
  (g.links.(l).a, g.links.(l).b)

let other_end g l v =
  check_link g l "other_end";
  let { a; b } = g.links.(l) in
  if v = a then b
  else if v = b then a
  else invalid_arg "Graph.other_end: node not an endpoint"

let neighbors g v =
  check_node g v "neighbors";
  List.rev g.adj.(v)

(* Same visit order as [neighbors] (insertion order) without building
   the reversed list — the adjacency is stored newest-first, so the
   callback fires on the unwind.  Recursion depth is the node degree.
   Search loops (BFS / Dijkstra) call this per dequeued node; the
   per-call [List.rev] of [neighbors] was their dominant allocation. *)
let iter_neighbors g v ~f =
  check_node g v "iter_neighbors";
  let rec go = function
    | [] -> ()
    | (w, l) :: rest ->
        go rest;
        f w l
  in
  go g.adj.(v)

let links g = List.init g.nlinks Fun.id

let fold_links g ~init ~f =
  let acc = ref init in
  for l = 0 to g.nlinks - 1 do
    acc := f !acc l
  done;
  !acc

let pp fmt g =
  for l = 0 to g.nlinks - 1 do
    let { a; b } = g.links.(l) in
    Format.fprintf fmt "l%d: %d -- %d (cap %g)@." l a b g.caps.(l)
  done

let to_dot g =
  let buf = Buffer.create 256 in
  Buffer.add_string buf "graph network {\n";
  for v = 0 to g.nodes - 1 do
    Buffer.add_string buf (Printf.sprintf "  n%d;\n" v)
  done;
  for l = 0 to g.nlinks - 1 do
    let { a; b } = g.links.(l) in
    Buffer.add_string buf (Printf.sprintf "  n%d -- n%d [label=\"l%d: %g\"];\n" a b l g.caps.(l))
  done;
  Buffer.add_string buf "}\n";
  Buffer.contents buf
