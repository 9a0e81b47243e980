module Graph = Mmfair_topology.Graph

(* Links whose slack could flip a freeze decision are treated as
   binding.  Wider than the solvers' 1e-9 working tolerance on
   purpose: a link within 1e-7 (relative) of saturation joins the
   coupling graph, so float drift between an incremental and a
   from-scratch solve stays well inside the differential gate. *)
let eps_bind = 1e-7

(* Membership, the union-find parents and the per-link marks live in
   an arena of dense arrays stamped with a generation: an entry belongs
   to this component only if its stamp is the component's, so starting
   a component costs O(1) instead of clearing or allocating O(sessions +
   links).  [create] gets a fresh arena; [with_component] reuses a
   per-domain one from one epoch to the next.  Membership is a stamped
   array load, not a hash probe: [absorb] and the boundary scan test it
   once per cell they walk.

   Beyond the member set, [parent] tracks which members were absorbed
   through a shared binding link (union-find, union-by-min so a group's
   root is its smallest session).  Disjoint groups are independent
   sub-problems: their restricted solves commute, which is what lets
   the batch engine hand each group to its own domain. *)
type arena = {
  mutable busy : bool;
  mutable stamp : int; (* the current component's generation *)
  mutable scan : int; (* the current boundary scan's generation *)
  mutable member : int array; (* per session: [stamp] iff a member *)
  mutable parent : int array; (* per session; meaningful for members only *)
  mutable expanded : int array; (* per link: [stamp] iff [absorb] expanded it *)
  mutable seen : int array; (* per link: [scan] iff the current scan met it *)
}

type t = {
  net : Network.t;
  arena : arena;
  stamp : int;
  mutable members : int list; (* the member set, insertion order *)
  mutable n_sessions : int;
  mutable n_recv : int; (* total receivers across members *)
}

let new_arena () =
  { busy = false; stamp = 0; scan = 0; member = [||]; parent = [||]; expanded = [||]; seen = [||] }

(* Arrays grow without keeping their contents: zero is never a live
   stamp, since both generations are bumped before use. *)
let ensure a n = if Array.length a >= n then a else Array.make (Int.max n (2 * Array.length a)) 0

let start arena net =
  let n = Network.session_count net and nl = Graph.link_count (Network.graph net) in
  arena.member <- ensure arena.member n;
  arena.parent <- ensure arena.parent n;
  arena.expanded <- ensure arena.expanded nl;
  arena.seen <- ensure arena.seen nl;
  arena.stamp <- arena.stamp + 1;
  { net; arena; stamp = arena.stamp; members = []; n_sessions = 0; n_recv = 0 }

let create net = start (new_arena ()) net
let arena_key = Domain.DLS.new_key new_arena

let with_component net f =
  let arena = Domain.DLS.get arena_key in
  if arena.busy then f (create net)
  else begin
    arena.busy <- true;
    Fun.protect ~finally:(fun () -> arena.busy <- false) (fun () -> f (start arena net))
  end

let network t = t.net
let mem t i = t.arena.member.(i) = t.stamp
let cardinal t = t.n_sessions
let is_empty t = t.n_sessions = 0
let is_full t = t.n_sessions = Network.session_count t.net

(* Every enumeration below walks the member list (sorted ascending for
   determinism) instead of the per-session stamps: the churn engine's
   components are tiny next to the network, and an O(sessions) sweep
   per batch is exactly what the incremental path must avoid. *)
let sorted_members t = List.sort Int.compare t.members

let rec find t i =
  let p = t.arena.parent.(i) in
  if p = i then i
  else begin
    let root = find t p in
    t.arena.parent.(i) <- root;
    root
  end

let union t i j =
  let ri = find t i and rj = find t j in
  if ri < rj then t.arena.parent.(rj) <- ri else if rj < ri then t.arena.parent.(ri) <- rj

let fill t =
  let n = Network.session_count t.net in
  Array.fill t.arena.member 0 n t.stamp;
  Array.fill t.arena.parent 0 n 0;
  t.members <- List.init n Fun.id;
  t.n_sessions <- n;
  t.n_recv <- Network.receiver_count t.net

let sessions t = Array.of_list (sorted_members t)

let groups t =
  (* Ascending iteration meets each group at its smallest session,
     which union-by-min makes the root: buckets come out keyed and
     ordered by root, members ascending within. *)
  let buckets = Hashtbl.create 16 in
  let roots = ref [] in
  List.iter
    (fun i ->
      let r = find t i in
      match Hashtbl.find_opt buckets r with
      | None ->
          Hashtbl.add buckets r (ref [ i ]);
          roots := r :: !roots
      | Some members -> members := i :: !members)
    (sorted_members t);
  List.rev_map (fun r -> Array.of_list (List.rev !(Hashtbl.find buckets r))) !roots

let receiver_count t = t.n_recv

(* Per-link binding test, lazy and memoized.  The memo is sparse (a
   hash table, not an O(links) array): the churn engine builds one of
   these per group per boundary-fixed-point iteration, and only
   component-adjacent links are ever queried, so a dense cache would
   put an O(links) allocation on every disjoint group of every batch.
   Capacities come from the allocation's own network, so a
   pre-surgery allocation is judged against pre-surgery capacities. *)
let binding alloc =
  let g = Network.graph (Allocation.network alloc) in
  let cache = Hashtbl.create 64 in
  fun l ->
    match Hashtbl.find_opt cache l with
    | Some b -> b
    | None ->
        let c = Graph.capacity g l in
        (* [max 1.0 c], spelled monomorphically. *)
        let scale = if 1.0 >= c then 1.0 else c in
        let b = Allocation.link_rate alloc l >= c -. (eps_bind *. scale) in
        Hashtbl.add cache l b;
        b

let add t i =
  if not (mem t i) then begin
    t.arena.member.(i) <- t.stamp;
    t.arena.parent.(i) <- i;
    t.members <- i :: t.members;
    t.n_sessions <- t.n_sessions + 1;
    t.n_recv <-
      t.n_recv + Array.length (Network.session_spec t.net i).Network.receivers
  end

(* Grow by session [i] and everything reachable from it over binding
   links, stack-based, straight off the incidence CSR.  Sessions met
   across a binding link are unioned with the session being expanded —
   also when already members, which is how separately-seeded groups
   merge on contact.

   Each link is expanded at most once per component: afterwards every
   session on it is a member and all of them share one group, and
   since members and groups only ever grow, both facts stay true.  A
   later visit — from another session on the link, another seed, or a
   wider [binding] — would add nobody and union nothing, so it is
   skipped.  The closure therefore costs the cells of the links it
   absorbs plus the path cells of the sessions it expands: a saturated
   trunk shared by many sessions is walked once, not once per
   session. *)
let absorb t ~binding i =
  let inc = Network.incidence t.net in
  let session_first = inc.Network.session_first in
  let recv_row = inc.Network.recv_row and recv_cells = inc.Network.recv_cells in
  let link_row = inc.Network.link_row and cell_session = inc.Network.cell_session in
  let stack = ref [ i ] in
  add t i;
  while
    match !stack with
    | [] -> false
    | s :: rest ->
        stack := rest;
        for p = recv_row.(session_first.(s)) to recv_row.(session_first.(s + 1)) - 1 do
          let l = recv_cells.(p) in
          if t.arena.expanded.(l) <> t.stamp && binding l then begin
            t.arena.expanded.(l) <- t.stamp;
            for c = link_row.(l) to link_row.(l + 1) - 1 do
              let j = cell_session.(c) in
              if not (mem t j) then begin
                add t j;
                stack := j :: !stack
              end;
              union t s j
            done
          end
        done;
        true
  do
    ()
  done

let absorb_link t ~binding l =
  if binding l then begin
    let inc = Network.incidence t.net in
    for c = inc.Network.link_row.(l) to inc.Network.link_row.(l + 1) - 1 do
      absorb t ~binding inc.Network.cell_session.(c)
    done
  end

(* Shared scan: links on the given sessions' paths that are binding
   and carry both a [member] and a non-[member] receiver. *)
let boundary_scan t ~binding ~member iter_sessions =
  let inc = Network.incidence t.net in
  (* A fresh scan generation marks the links this scan has met. *)
  let arena = t.arena in
  arena.scan <- arena.scan + 1;
  let scan = arena.scan in
  let boundary = ref [] in
  (* A boundary link carries at least one member receiver, so only
     links on the member sessions' paths can qualify: enumerate those
     straight off the receiver CSR instead of scanning every link. *)
  iter_sessions (fun i ->
      for gid = inc.Network.session_first.(i) to inc.Network.session_first.(i + 1) - 1 do
        for p = inc.Network.recv_row.(gid) to inc.Network.recv_row.(gid + 1) - 1 do
          let l = inc.Network.recv_cells.(p) in
          if arena.seen.(l) <> scan then begin
            arena.seen.(l) <- scan;
            if binding l then begin
              (* Straight off the CSR: does the saturated link carry
                 both member and frozen receivers? *)
              let has_in = ref false and has_out = ref false in
              for q = inc.Network.cell_first.(inc.Network.link_row.(l))
                   to inc.Network.cell_first.(inc.Network.link_row.(l + 1)) - 1 do
                if member inc.Network.gid_session.(inc.Network.link_cells.(q)) then has_in := true
                else has_out := true
              done;
              if !has_in && !has_out then boundary := l :: !boundary
            end
          end
        done
      done);
  !boundary

let boundary_links t ~binding =
  boundary_scan t ~binding
    ~member:(mem t)
    (fun f -> List.iter f (sorted_members t))

let group_boundary_links t ~binding group =
  if Array.length group = 0 then []
  else begin
    let root = find t group.(0) in
    boundary_scan t ~binding
      ~member:(fun s -> mem t s && find t s = root)
      (fun f -> Array.iter f group)
  end
