module Graph = Mmfair_topology.Graph

(* Links whose slack could flip a freeze decision are treated as
   binding.  Wider than the solvers' 1e-9 working tolerance on
   purpose: a link within 1e-7 (relative) of saturation joins the
   coupling graph, so float drift between an incremental and a
   from-scratch solve stays well inside the differential gate. *)
let eps_bind = 1e-7

(* What a component knows of one allocation's links, filled lazily one
   link at a time.

   Whether a link binds comes from the usage the allocation carries
   ([Allocation.usage]): a read of an [Every_link] vector's spine, or a
   bit set from a solve's touched links when the slot is bound.  For a
   link the allocation carries nothing about, the bit is
   [Allocation.link_rate]'s, computed once per slot and link.  Binding
   a slot also keeps the graph's capacity array and the carried
   vector's spine in it, so a check reads both straight off arrays.

   A summary is the ρ-pin pass over a binding link's cells: the highest
   normalised rate among its receivers below their ρ ([top]), and per
   cell the highest normalised rate of the cell's receivers ([norm])
   and that rate again if every one of them sits at its ρ, infinity
   otherwise ([pin]).  Only [stays_out] and the boundary scan's [flags]
   ask for one, and no reader folds the link's rates a second time.
   The per-cell pairs are appended to [cells] as links are summarised,
   so a summary costs the cells it was asked about, not the network's.

   [top] is negative when no receiver on the link may stay out: some
   session on it is single-rate or not [Efficient] (outside the domain
   of the local max-min characterisation, where the pass stops), or
   the allocation's incidence is not the component's, so its cell
   numbers mean nothing to the walks.  The link's cells are then not
   recorded. *)
type summary = {
  mutable alloc : Allocation.t option; (* the summarised allocation; [None] = free *)
  mutable gen : int; (* bumped whenever the slot is rebound *)
  mutable used : int; (* clock of the last lookup, for eviction *)
  mutable caps : float array; (* the allocation's graph's capacities (Graph.unsafe_capacities) *)
  mutable every : float array array; (* an [Every_link] usage's spine, [[||]] for other usages *)
  mutable link : int array; (* per link: [2 gen + 1] if binding, [2 gen] if not; unused for [every] *)
  mutable summed : int array; (* per link: [gen] once summarised *)
  mutable top : float array; (* per link *)
  mutable first : int array; (* per link: where its cells' pairs start in [cells] *)
  mutable cells : float array; (* [norm; pin] per recorded cell, in link order *)
  mutable fill : int; (* used length of [cells] *)
}

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
   the batch engine hand each group to its own domain.

   The arena also holds three link summaries, one per allocation a
   binding names at most (the previous epoch's, a pack's solve and the
   merged candidate in the expansion loop).  The least recently used
   one is evicted and just recomputed when it is asked for again;
   resolving one binding never evicts a summary it has just resolved. *)
type arena = {
  mutable busy : bool;
  mutable stamp : int; (* the current component's generation *)
  mutable scan : int; (* the current boundary scan's generation *)
  mutable clock : int;
  mutable member : int array; (* per session: [stamp] iff a member *)
  mutable parent : int array; (* per session; meaningful for members only *)
  mutable bucket : int array; (* per session: scratch for [groups] *)
  mutable expanded : int array; (* per link: [stamp] iff [absorb] expanded it *)
  mutable anchor : int array;
      (* per expanded link: the session that expanded it, or -1 if
         every session on it joined then *)
  mutable seen : int array; (* per link: [scan] iff the current scan met it *)
  mutable inside : int array; (* per session: [scan] iff the current scan listed it inside *)
  summaries : summary array;
}

type t = {
  net : Network.t;
  arena : arena;
  stamp : int;
  mutable members : int list; (* the member set, insertion order *)
  mutable n_sessions : int;
  mutable n_recv : int; (* total receivers across members *)
}

let n_summaries = 3

let new_arena () =
  {
    busy = false;
    stamp = 0;
    scan = 0;
    clock = 0;
    member = [||];
    parent = [||];
    bucket = [||];
    expanded = [||];
    anchor = [||];
    seen = [||];
    inside = [||];
    summaries =
      Array.init n_summaries (fun _ ->
          {
            alloc = None;
            gen = 0;
            used = 0;
            caps = [||];
            every = [||];
            link = [||];
            summed = [||];
            top = [||];
            first = [||];
            cells = [||];
            fill = 0;
          });
  }

(* Arrays grow without keeping their contents: zero is never a live
   stamp, since every generation is bumped before use. *)
let ensure a n = if Array.length a >= n then a else Array.make (Int.max n (2 * Array.length a)) 0
let ensure_f a n = if Array.length a >= n then a else Array.make (Int.max n (2 * Array.length a)) 0.0


let start arena net =
  let n = Network.session_count net and nl = Graph.link_count (Network.graph net) in
  arena.member <- ensure arena.member n;
  arena.parent <- ensure arena.parent n;
  arena.bucket <- ensure arena.bucket n;
  arena.expanded <- ensure arena.expanded nl;
  arena.anchor <- ensure arena.anchor nl;
  arena.seen <- ensure arena.seen nl;
  arena.inside <- ensure arena.inside n;
  arena.stamp <- arena.stamp + 1;
  { net; arena; stamp = arena.stamp; members = []; n_sessions = 0; n_recv = 0 }

let create net = start (new_arena ()) net
let arena_key = Domain.DLS.new_key new_arena

let with_component net f =
  let arena = Domain.DLS.get arena_key in
  if arena.busy then f (create net)
  else begin
    arena.busy <- true;
    (* Summaries never outlive their component: which cells they
       record depends on the component's network, and the arena must
       not keep an old epoch's allocations alive. *)
    Fun.protect
      ~finally:(fun () ->
        Array.iter
          (fun s ->
            s.alloc <- None;
            s.caps <- [||];
            s.every <- [||])
          arena.summaries;
        arena.busy <- false)
      (fun () -> f (start arena net))
  end

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
     which union-by-min makes the root: numbering roots as they come
     orders the buckets by root, and filling them from the largest
     member down leaves each ascending. *)
  let members = sorted_members t in
  let bucket = t.arena.bucket in
  let n =
    List.fold_left
      (fun n i ->
        if find t i = i then begin
          bucket.(i) <- n;
          n + 1
        end
        else n)
      0 members
  in
  let buckets = Array.make n [] in
  List.iter
    (fun i ->
      let b = bucket.(find t i) in
      buckets.(b) <- i :: buckets.(b))
    (List.rev members);
  Array.to_list (Array.map Array.of_list buckets)

let receiver_count t = t.n_recv

(* --- link summaries --------------------------------------------------- *)

type binding = Allocation.t list

let binding ?(also = []) alloc =
  if List.length also >= n_summaries then
    invalid_arg
      (Printf.sprintf "Component.binding: at most %d allocations besides the first"
         (n_summaries - 1));
  alloc :: also

(* Whether usage [u] binds link [l], whose capacity is [caps.(l)]. *)
let[@inline] binds_at caps l u =
  let cap = caps.(l) in
  (* [max 1.0 cap], spelled monomorphically. *)
  let scale = if 1.0 >= cap then 1.0 else cap in
  u >= cap -. (eps_bind *. scale)

(* The arena's summary of [alloc]: the slot already bound to it, or
   the least recently used one, rebound.  Binding a slot to a solve's
   result sets the bits of the links the solve touched. *)
let summary t alloc =
  let arena = t.arena in
  arena.clock <- arena.clock + 1;
  let slots = arena.summaries in
  let rec bound k =
    if k = n_summaries then None
    else match slots.(k).alloc with Some a when a == alloc -> Some slots.(k) | _ -> bound (k + 1)
  in
  let s =
    match bound 0 with
    | Some s -> s
    | None ->
        let s = ref slots.(0) in
        Array.iter (fun x -> if x.used < !s.used then s := x) slots;
        let s = !s in
        let g = Network.graph (Allocation.network alloc) in
        let nl = Graph.link_count g in
        s.alloc <- Some alloc;
        s.caps <- Graph.unsafe_capacities g;
        s.gen <- s.gen + 1;
        s.link <- ensure s.link nl;
        s.summed <- ensure s.summed nl;
        s.top <- ensure_f s.top nl;
        s.first <- ensure s.first nl;
        s.fill <- 0;
        s.every <- [||];
        (match Allocation.usage alloc with
        | Allocation.Solved { links; usage } ->
            for k = 0 to Array.length links - 1 do
              let l = links.(k) in
              s.link.(l) <- (2 * s.gen) + if binds_at s.caps l usage.(k) then 1 else 0
            done
        | Allocation.Every_link u -> s.every <- Pvec.unsafe_spine u
        | Allocation.No_usage -> ());
        s
  in
  s.used <- arena.clock;
  s

(* A binding resolved against the arena: the judge's summary and the
   others'. *)
type views = { judge : summary; others : summary list }

let views t (binding : binding) =
  match binding with
  | judge :: others ->
      let judge = summary t judge in
      { judge; others = List.map (summary t) others }
  | [] -> assert false

let alloc_of s = match s.alloc with Some a -> a | None -> assert false

(* The ρ-pin pass over link [l]'s cells under [s]'s allocation.  The
   specs and rows are read straight off their spines and each cell is
   folded in place: a call per cell would box the float it returns
   (DESIGN §11).  Indices that come off the incidence
   CSR, and weights (the network checks their count), skip the bounds
   checks; a rate is read checked, since only the allocation's
   constructor vouches for its row's length.  The pass stops at the
   first cell outside the local domain. *)
let summarise t s l =
  if s.summed.(l) <> s.gen then begin
    s.summed.(l) <- s.gen;
    s.top.(l) <- -1.0;
    let alloc = alloc_of s in
    let net = Allocation.network alloc in
    let inc = Network.incidence net in
    if inc == Network.incidence t.net then begin
      let specs = Pvec.unsafe_spine (Network.unsafe_specs net) in
      let rows = Pvec.unsafe_spine (Allocation.unsafe_rows alloc) in
      let session_first = inc.Network.session_first and cell_first = inc.Network.cell_first in
      let link_cells = inc.Network.link_cells and cell_session = inc.Network.cell_session in
      let lo_cell = inc.Network.link_row.(l) and hi_cell = inc.Network.link_row.(l + 1) in
      let base = s.fill in
      if Array.length s.cells < base + (2 * (hi_cell - lo_cell)) then begin
        let grown = Array.make (Int.max 64 (2 * (base + (2 * (hi_cell - lo_cell))))) 0.0 in
        Array.blit s.cells 0 grown 0 base;
        s.cells <- grown
      end;
      let cells = s.cells in
      let top = ref 0.0 and c = ref lo_cell in
      while !c < hi_cell do
        let i = Array.unsafe_get cell_session !c in
        let spec = Array.unsafe_get (Array.unsafe_get specs (i lsr 5)) (i land 31) in
        match spec.Network.vfn with
        | Redundancy_fn.Efficient when spec.Network.session_type = Network.Multi_rate ->
            let rates = Array.unsafe_get (Array.unsafe_get rows (i lsr 5)) (i land 31) in
            let g0 = Array.unsafe_get session_first i in
            let norm = ref 0.0 and pinned = ref true in
            let rho = spec.Network.rho and weights = spec.Network.weights in
            for p = Array.unsafe_get cell_first !c to Array.unsafe_get cell_first (!c + 1) - 1 do
              let k = Array.unsafe_get link_cells p - g0 in
              let a = rates.(k) in
              let x = a /. Array.unsafe_get weights k in
              if x > !norm then norm := x;
              if a < rho then begin
                pinned := false;
                if x > !top then top := x
              end
            done;
            let k = base + (2 * (!c - lo_cell)) in
            Array.unsafe_set cells k !norm;
            Array.unsafe_set cells (k + 1) (if !pinned then !norm else Float.infinity);
            incr c
        | _ -> c := hi_cell + 1
      done;
      if !c = hi_cell then begin
        s.top.(l) <- !top;
        s.first.(l) <- base - (2 * lo_cell);
        s.fill <- base + (2 * (hi_cell - lo_cell))
      end
    end
  end

(* A recorded cell's pair: only for links whose [top] is not negative. *)
let norm s l c = s.cells.(s.first.(l) + (2 * c))
let pin s l c = s.cells.(s.first.(l) + (2 * c) + 1)

(* An [Every_link] usage is read off the spine the slot keeps: a call
   would box the float.  A link the allocation carries nothing about
   takes [Allocation.link_rate]'s bit, once. *)
let binds_one s l =
  if Array.length s.every > 0 then binds_at s.caps l s.every.(l lsr 5).(l land 31)
  else begin
    if s.link.(l) lsr 1 <> s.gen then
      s.link.(l) <-
        (2 * s.gen) + if binds_at s.caps l (Allocation.link_rate (alloc_of s) l) then 1 else 0;
    s.link.(l) land 1 = 1
  end

(* The others first: the previous epoch's allocation is usually among
   them, and its bit is a read of its carried usage. *)
let rec binds_any l = function [] -> false | s :: rest -> binds_one s l || binds_any l rest
let binds_in v l = binds_any l v.others || binds_one v.judge l
let binds t binding l = binds_in (views t binding) l

(* Whether a non-member's cell [c] on [l] may stay out of the closure:
   it sits at its ρ, below the judge's top among the link's unpinned
   receivers.  The judge's summary is only made when a non-member
   asks. *)
let stays_out t v l c =
  summarise t v.judge l;
  let top = v.judge.top.(l) in
  top >= 0.0 && pin v.judge l c < (1.0 -. eps_bind) *. top

(* --- closure ------------------------------------------------------------ *)

(* [session_first] is the component's network's: receivers are counted
   off the incidence, not the specs. *)
let add t session_first i =
  if not (mem t i) then begin
    t.arena.member.(i) <- t.stamp;
    t.arena.parent.(i) <- i;
    t.members <- i :: t.members;
    t.n_sessions <- t.n_sessions + 1;
    t.n_recv <- t.n_recv + session_first.(i + 1) - session_first.(i)
  end

(* Grow by session [i] and everything reachable from it over binding
   links, stack-based, straight off the incidence CSR.  Sessions met
   across a binding link are unioned with the session being expanded —
   also when already members, which is how separately-seeded groups
   merge on contact.

   A non-member whose cell on the link sits at its ρ, below the
   first view's top ([stays_out]), stays out: it is certified by
   its own ρ, and no receiver whose certificate is this link rates
   lower.  Everyone else on the link is absorbed.

   Each link is expanded at most once per component and, if somebody
   stayed out, remembers the session that expanded it ([anchor]).
   Afterwards every member on it shares the anchor's group: the
   members it met were unioned then, and a session absorbed later (one
   that stayed out here and joined through another link) walks its own
   path, meets the expanded link and unions with the anchor.  A later visit — from another session
   on the link, another seed, or a wider binding — therefore has no
   group left to merge, and is skipped.  The closure costs the cells
   of the links it expands plus the path cells of the sessions it
   absorbs: a saturated trunk shared by many sessions is walked once,
   not once per session. *)
let absorb_views t views i =
  let inc = Network.incidence t.net in
  let session_first = inc.Network.session_first in
  let recv_row = inc.Network.recv_row and recv_cells = inc.Network.recv_cells in
  let link_row = inc.Network.link_row and cell_session = inc.Network.cell_session in
  let arena = t.arena in
  let stack = ref [ i ] in
  add t session_first i;
  while
    match !stack with
    | [] -> false
    | s :: rest ->
        stack := rest;
        for p = recv_row.(session_first.(s)) to recv_row.(session_first.(s + 1)) - 1 do
          let l = recv_cells.(p) in
          if arena.expanded.(l) = t.stamp then begin
            if arena.anchor.(l) >= 0 then union t s arena.anchor.(l)
          end
          else if binds_in views l then begin
            arena.expanded.(l) <- t.stamp;
            let skipped = ref false in
            for c = link_row.(l) to link_row.(l + 1) - 1 do
              let j = cell_session.(c) in
              if mem t j then union t s j
              else if stays_out t views l c then skipped := true
              else begin
                add t session_first j;
                stack := j :: !stack;
                union t s j
              end
            done;
            arena.anchor.(l) <- (if !skipped then s else -1)
          end
        done;
        true
  do
    ()
  done

let absorb t ~binding i = absorb_views t (views t binding) i

let absorb_link t ~binding l =
  let views = views t binding in
  if binds_in views l then begin
    let inc = Network.incidence t.net in
    for c = inc.Network.link_row.(l) to inc.Network.link_row.(l + 1) - 1 do
      let j = inc.Network.cell_session.(c) in
      if mem t j || not (stays_out t views l c) then absorb_views t views j
    done
  end

(* --- boundary scan ------------------------------------------------------ *)

(* Whether the binding link [l] carries an outside receiver that may
   not stay out.  Another group's member never stays out (the
   multi-pack background pins it at zero).  A non-member stays out if
   its cell sits at its ρ below the top of the inside cells on the
   link, under the judge: then no inside receiver whose certificate is
   the link rates lower.  Every non-member stays out, whatever its
   rate, when every receiver on the link, inside or out, sits at its
   ρ under the judge: each is certified by its own ρ, so the link is
   nobody's certificate.  The judge's summary is only read when a
   non-member is outside.

   The closure's [stays_out] must not take that second rule: it judges
   by the previous allocation, under which the seed's own ρ may since
   have risen, and a link all at ρ before the event can bind the
   raised seed.

   Inside is [root]'s group.  The scan marked the sessions it
   enumerates, so a cell's test is one load; only an unmarked member
   (another group's, or one merged into this group after its sessions
   were listed) asks [find]. *)
let[@inline] inside t ~root j = t.arena.inside.(j) = t.arena.scan || (mem t j && find t j = root)

let flags t v ~root l =
  let inc = Network.incidence t.net in
  let cell_session = inc.Network.cell_session in
  let lo = inc.Network.link_row.(l) and hi = inc.Network.link_row.(l + 1) in
  let other_group = ref false and non_member = ref false in
  for c = lo to hi - 1 do
    let j = cell_session.(c) in
    if not (inside t ~root j) then if mem t j then other_group := true else non_member := true
  done;
  !other_group
  || !non_member
     &&
     let s = v.judge in
     summarise t s l;
     s.top.(l) < 0.0
     ||
     let top = ref 0.0 and out = ref 0.0 and pinned = ref true in
     for c = lo to hi - 1 do
       if inside t ~root cell_session.(c) then begin
         if norm s l c > !top then top := norm s l c;
         if pin s l c = Float.infinity then pinned := false
       end
       else if pin s l c > !out then out := pin s l c
     done;
     not ((!pinned && !out < Float.infinity) || !out < (1.0 -. eps_bind) *. !top)

(* Links on the inside sessions' paths that bind and are flagged.  A
   fresh scan generation marks the inside sessions among those
   [iter_sessions] lists, and the links this scan has met. *)
let boundary_scan t ~binding ~root iter_sessions =
  let views = views t binding in
  let inc = Network.incidence t.net in
  let arena = t.arena in
  arena.scan <- arena.scan + 1;
  let scan = arena.scan in
  iter_sessions (fun i -> if mem t i && find t i = root then arena.inside.(i) <- scan);
  let boundary = ref [] in
  (* A boundary link carries an inside receiver, so only links on the
     inside sessions' paths can qualify: enumerate those straight off
     the receiver CSR instead of scanning every link. *)
  iter_sessions (fun i ->
      for gid = inc.Network.session_first.(i) to inc.Network.session_first.(i + 1) - 1 do
        for p = inc.Network.recv_row.(gid) to inc.Network.recv_row.(gid + 1) - 1 do
          let l = inc.Network.recv_cells.(p) in
          if arena.seen.(l) <> scan then begin
            arena.seen.(l) <- scan;
            if binds_in views l && flags t views ~root l then boundary := l :: !boundary
          end
        done
      done);
  !boundary

let group_boundary_links t ~binding group =
  if Array.length group = 0 then []
  else boundary_scan t ~binding ~root:(find t group.(0)) (fun f -> Array.iter f group)
