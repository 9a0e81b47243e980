module Graph = Mmfair_topology.Graph
module Routing = Mmfair_topology.Routing

type session_type = Single_rate | Multi_rate

type session_spec = {
  sender : Graph.node;
  receivers : Graph.node array;
  session_type : session_type;
  rho : float;
  vfn : Redundancy_fn.t;
  weights : float array;
}

let session ?(session_type = Multi_rate) ?(rho = infinity) ?(vfn = Redundancy_fn.Efficient)
    ?weights ~sender ~receivers () =
  let weights =
    match weights with
    | Some w -> Array.copy w
    | None -> Array.make (Array.length receivers) 1.0
  in
  { sender; receivers; session_type; rho; vfn; weights }

type receiver_id = { session : int; index : int }

type incidence = {
  n_receivers : int;
  n_cells : int;
  session_first : int array;
  gid_session : int array;
  link_row : int array;
  cell_session : int array;
  cell_first : int array;
  link_cells : int array;
  recv_row : int array;
  recv_cells : int array;
  recv_cell_of : int array;
}

type t = {
  graph : Graph.t;
  sessions : session_spec Pvec.t; (* surgeries share every untouched spec and chunk *)
  inc : incidence; (* the only stored routing: the forward rows are the data-paths *)
  max_cap : float; (* the graph's largest capacity, 0 without links *)
}

(* Where a session's forward rows come from: a routed path per
   receiver, or the same session's rows in an earlier incidence. *)
type row_source = Paths of Routing.path array | Copy of incidence

(* Flat CSR views of the routing: global receiver ids are
   session-major.  This is the one writer of the forward rows, for
   [make] (every session [Paths]) and for a surgery commit (touched
   sessions [Paths], every other session one copy of its [Copy] range).
   The link→receiver direction is {e compact}: only the (link, session)
   pairs some receiver actually crosses get a cell, so every pass here
   — and the allocator's warm-up — is linear in the routed path length
   plus [n_links], never in [n_links * sessions]. *)
let build_incidence n_links sessions (source : int -> row_source) =
  let m = Pvec.length sessions in
  let session_first = Array.make (m + 1) 0 in
  Pvec.iteri (fun i s -> session_first.(i + 1) <- session_first.(i) + Array.length s.receivers) sessions;
  let n_receivers = session_first.(m) in
  let gid_session = Array.make n_receivers 0 in
  let recv_row = Array.make (n_receivers + 1) 0 in
  for i = 0 to m - 1 do
    let src = source i and g0 = session_first.(i) in
    for gid = g0 to session_first.(i + 1) - 1 do
      let len =
        match src with
        | Paths paths -> List.length paths.(gid - g0)
        | Copy b ->
            let bg = b.session_first.(i) + gid - g0 in
            b.recv_row.(bg + 1) - b.recv_row.(bg)
      in
      gid_session.(gid) <- i;
      recv_row.(gid + 1) <- recv_row.(gid) + len
    done
  done;
  let total = recv_row.(n_receivers) in
  let recv_cells = Array.make (Stdlib.max total 1) 0 in
  for i = 0 to m - 1 do
    let g0 = session_first.(i) in
    match source i with
    | Paths paths ->
        Array.iteri (fun k p -> List.iteri (fun j l -> recv_cells.(recv_row.(g0 + k) + j) <- l) p) paths
    | Copy b ->
        (* Typed int stores: [Array.blit] into a major-heap array would
           pay a write barrier per element. *)
        let shift = b.recv_row.(b.session_first.(i)) - recv_row.(g0) in
        for p = recv_row.(g0) to recv_row.(session_first.(i + 1)) - 1 do
          recv_cells.(p) <- b.recv_cells.(p + shift)
        done
  done;
  (* Pass 1: count each link's compact cells with a last-session-seen
     mark (receivers of one session are contiguous in gid order, so a
     repeat visit of (l, i) is exactly [last_seen.(l) = i]). *)
  let last_seen = Array.make (Stdlib.max n_links 1) (-1) in
  let link_ncells = Array.make (Stdlib.max n_links 1) 0 in
  for gid = 0 to n_receivers - 1 do
    let i = gid_session.(gid) in
    for p = recv_row.(gid) to recv_row.(gid + 1) - 1 do
      let l = recv_cells.(p) in
      if last_seen.(l) <> i then begin
        last_seen.(l) <- i;
        link_ncells.(l) <- link_ncells.(l) + 1
      end
    done
  done;
  let link_row = Array.make (n_links + 1) 0 in
  for l = 0 to n_links - 1 do
    link_row.(l + 1) <- link_row.(l) + link_ncells.(l)
  done;
  let n_cells = link_row.(n_links) in
  let cell_session = Array.make (Stdlib.max n_cells 1) 0 in
  let cell_first = Array.make (n_cells + 1) 0 in
  let recv_cell_of = Array.make (Stdlib.max total 1) 0 in
  (* Pass 2: assign compact cell ids (ascending sessions within each
     link, because gids — hence sessions — ascend), tag every path
     entry with its cell, and count cell sizes. *)
  Array.fill last_seen 0 (Array.length last_seen) (-1);
  let cell_cursor = Array.sub link_row 0 (Stdlib.max n_links 1) in
  let cell_at = Array.make (Stdlib.max n_links 1) 0 in
  for gid = 0 to n_receivers - 1 do
    let i = gid_session.(gid) in
    for p = recv_row.(gid) to recv_row.(gid + 1) - 1 do
      let l = recv_cells.(p) in
      if last_seen.(l) <> i then begin
        last_seen.(l) <- i;
        let c = cell_cursor.(l) in
        cell_cursor.(l) <- c + 1;
        cell_session.(c) <- i;
        cell_at.(l) <- c
      end;
      let c = cell_at.(l) in
      recv_cell_of.(p) <- c;
      cell_first.(c + 1) <- cell_first.(c + 1) + 1
    done
  done;
  for c = 0 to n_cells - 1 do
    cell_first.(c + 1) <- cell_first.(c + 1) + cell_first.(c)
  done;
  (* Pass 3: fill each cell's receivers, gid-ascending. *)
  let link_cells = Array.make (Stdlib.max total 1) 0 in
  let fill_cursor = Array.sub cell_first 0 (Stdlib.max n_cells 1) in
  for gid = 0 to n_receivers - 1 do
    for p = recv_row.(gid) to recv_row.(gid + 1) - 1 do
      let c = recv_cell_of.(p) in
      link_cells.(fill_cursor.(c)) <- gid;
      fill_cursor.(c) <- fill_cursor.(c) + 1
    done
  done;
  {
    n_receivers;
    n_cells;
    session_first;
    gid_session;
    link_row;
    cell_session;
    cell_first;
    link_cells;
    recv_row;
    recv_cells;
    recv_cell_of;
  }

(* Find the compact cell of (link, session), if any: the link's cells
   list sessions in ascending order and there are few of them, so a
   linear scan beats a binary search at realistic fan-in. *)
let find_cell inc ~session ~link =
  let lo = inc.link_row.(link) and hi = inc.link_row.(link + 1) in
  let found = ref (-1) in
  let c = ref lo in
  while !found < 0 && !c < hi do
    let s = inc.cell_session.(!c) in
    if s = session then found := !c else if s > session then c := hi else incr c
  done;
  !found

(* Per-session validation (everything but routing); [name] is the
   entry point the message names. *)
let validate_session ~name graph i s =
  let fail fmt = Printf.ksprintf (fun msg -> invalid_arg (Printf.sprintf "Network.%s: %s" name msg)) fmt in
  if Array.length s.receivers = 0 then fail "session %d has no receivers" i;
  if not (s.rho > 0.0) then fail "session %d has rho <= 0" i;
  (match s.vfn with
  | Redundancy_fn.Scaled k when not (Float.is_finite k && k >= 1.0) ->
      fail "session %d has Scaled redundancy factor %g (need a finite factor >= 1)" i k
  | _ -> ());
  if Array.length s.weights <> Array.length s.receivers then fail "session %d weight count mismatch" i;
  Array.iter
    (fun w ->
      if not (w > 0.0) then fail "session %d has a non-positive weight" i;
      if not (Float.is_finite w) then fail "session %d has a non-finite weight" i)
    s.weights;
  if s.sender < 0 || s.sender >= Graph.node_count graph then
    fail "session %d sender on unknown node %d" i s.sender;
  (if s.session_type = Single_rate && Array.length s.weights > 0 then begin
     let w0 = s.weights.(0) in
     if Array.exists (fun w -> w <> w0) s.weights then fail "single-rate session %d has unequal weights" i
   end);
  (* The paper's restriction on τ: no two members of one session
     share a node. *)
  let members = Array.append [| s.sender |] s.receivers in
  let sorted = Array.copy members in
  Array.sort compare sorted;
  for k = 1 to Array.length sorted - 1 do
    if sorted.(k) = sorted.(k - 1) then fail "session %d maps two members to node %d" i sorted.(k)
  done;
  Array.iteri
    (fun k r ->
      if r < 0 || r >= Graph.node_count graph then fail "session %d receiver %d on unknown node" i k)
    s.receivers

(* Graph.add_link already rejects NaN/zero/negative capacities; an
   infinite capacity would make the water-filling bounds meaningless
   (slack arithmetic produces NaN), so reject it here.  Returns the
   largest capacity: the allocator's bisection bracket and linear pop
   window read it in O(1) instead of scanning the links per solve. *)
let check_capacities graph =
  let max_cap = ref 0.0 in
  for l = 0 to Graph.link_count graph - 1 do
    let c = Graph.capacity graph l in
    if not (Float.is_finite c) then
      invalid_arg (Printf.sprintf "Network.make: link %d has non-finite capacity %g" l c);
    if c > !max_cap then max_cap := c
  done;
  !max_cap

(* Validate everything first, so a validation error always wins over
   a routing error.  Then route each distinct sender once: sessions are
   chained by sender through [first] (node-indexed) and [next]
   (session-indexed), in ascending session order, and each chain's
   distinct receiver nodes become the targets of one early-exit
   search.  Listing a node once per sender keeps the search's result
   arrays small (a flow class's 96 slots share one receiver node) and
   gives every session of that sender on that node the same physical
   path list, which the incidence writer copies and drops.  [at] is
   node-indexed: while listing, it holds the head session of the chain
   that last listed the node; while handing out, the node's position
   in the current chain's targets. *)
let validate_and_route graph sessions =
  let max_cap = check_capacities graph in
  Array.iteri (validate_session ~name:"make" graph) sessions;
  let m = Array.length sessions and n = Graph.node_count graph in
  let first = Array.make n (-1) and next = Array.make m (-1) in
  for i = m - 1 downto 0 do
    let x = sessions.(i).sender in
    next.(i) <- first.(x);
    first.(x) <- i
  done;
  let chain x f =
    let i = ref first.(x) in
    while !i >= 0 do
      f !i;
      i := next.(!i)
    done
  in
  let at = Array.make n (-1) and groups = ref [] in
  for h = m - 1 downto 0 do
    let x = sessions.(h).sender in
    if first.(x) = h then begin
      let targets = ref [] in
      chain x (fun i ->
          Array.iter
            (fun r ->
              if at.(r) <> h then begin
                at.(r) <- h;
                targets := r :: !targets
              end)
            sessions.(i).receivers);
      groups := (x, Array.of_list (List.rev !targets)) :: !groups
    end
  done;
  let groups = Array.of_list !groups in
  let routed = Routing.routes graph groups in
  (* The lowest unreachable (session, receiver) is the one reported. *)
  let paths = Array.make m [||] and bad = ref (m, 0) in
  Array.iteri
    (fun j (x, targets) ->
      Array.iteri (fun q r -> at.(r) <- q) targets;
      chain x (fun i ->
          paths.(i) <-
            Array.mapi
              (fun k r ->
                match routed.(j).(at.(r)) with
                | Some p -> p
                | None ->
                    bad := min !bad (i, k);
                    [])
              sessions.(i).receivers))
    groups;
  (match !bad with
  | i, k when i < m -> invalid_arg (Printf.sprintf "Network.make: session %d receiver %d unreachable" i k)
  | _ -> ());
  let sessions = Pvec.of_array sessions in
  let inc = build_incidence (Graph.link_count graph) sessions (fun i -> Paths paths.(i)) in
  { graph; sessions; inc; max_cap }

let make = validate_and_route

let graph t = t.graph
let session_count t = Pvec.length t.sessions
(* Straight off the incidence — the churn engine reads this per batch,
   so the fold over every spec would be an O(sessions) term. *)
let receiver_count t = t.inc.n_receivers

let check_session t i name =
  if i < 0 || i >= Pvec.length t.sessions then
    invalid_arg (Printf.sprintf "Network.%s: unknown session %d" name i)

let session_spec t i =
  check_session t i "session_spec";
  Pvec.get t.sessions i

let unsafe_specs t = t.sessions
let session_type t i = (session_spec t i).session_type

let weight t (r : receiver_id) =
  let spec = session_spec t r.session in
  if r.index < 0 || r.index >= Array.length spec.weights then
    invalid_arg "Network.weight: unknown receiver";
  spec.weights.(r.index)

let all_weights_unit t =
  Pvec.fold_left (fun unit s -> unit && Array.for_all (fun w -> w = 1.0) s.weights) true t.sessions

(* Rebuild every spec with [f], re-validated with the entry point's
   name, so every constructed [t] stays as safe to solve as one from
   [make]. *)
let revalidate t name f =
  let sessions = Pvec.init (session_count t) (fun i -> f i (Pvec.get t.sessions i)) in
  Pvec.iteri (validate_session ~name t.graph) sessions;
  { t with sessions }

let with_weights t w =
  if Array.length w <> session_count t then invalid_arg "Network.with_weights: session count mismatch";
  revalidate t "with_weights" (fun i s -> { s with weights = Array.copy w.(i) })

let rho t i = (session_spec t i).rho
let vfn t i = (session_spec t i).vfn

let receivers_of_session t i =
  check_session t i "receivers_of_session";
  Array.init (Array.length (Pvec.get t.sessions i).receivers) (fun k -> { session = i; index = k })

let all_receivers t =
  Array.concat (List.init (session_count t) (fun i -> receivers_of_session t i))

(* The spec argument lets the surgery builder validate against its
   accumulated state with the same messages. *)
let check_receiver_of spec r name =
  if r.index < 0 || r.index >= Array.length spec.receivers then
    invalid_arg (Printf.sprintf "Network.%s: unknown receiver %d of session %d" name r.index r.session)

let check_receiver t r name =
  check_session t r.session name;
  check_receiver_of (Pvec.get t.sessions r.session) r name

(* A receiver's forward row as a fresh path list. *)
let row_path inc gid =
  let lo = inc.recv_row.(gid) in
  List.init (inc.recv_row.(gid + 1) - lo) (fun j -> inc.recv_cells.(lo + j))

let data_path t r =
  check_receiver t r "data_path";
  row_path t.inc (t.inc.session_first.(r.session) + r.index)

let session_links t i =
  check_session t i "session_links";
  let inc = t.inc in
  let links = ref [] in
  for gid = inc.session_first.(i) to inc.session_first.(i + 1) - 1 do
    for p = inc.recv_row.(gid) to inc.recv_row.(gid + 1) - 1 do
      links := inc.recv_cells.(p) :: !links
    done
  done;
  List.sort_uniq compare !links

let receiver_of inc gid =
  let session = inc.gid_session.(gid) in
  { session; index = gid - inc.session_first.(session) }

(* A cell lists its gids ascending, i.e. receiver-index ascending —
   the order the cached lists kept. *)
let receivers_on_link t ~session ~link =
  check_session t session "receivers_on_link";
  if link < 0 || link >= Graph.link_count t.graph then
    invalid_arg "Network.receivers_on_link: unknown link";
  let inc = t.inc in
  match find_cell inc ~session ~link with
  | -1 -> []
  | c ->
      List.init
        (inc.cell_first.(c + 1) - inc.cell_first.(c))
        (fun j -> receiver_of inc inc.link_cells.(inc.cell_first.(c) + j))

(* A link's whole cell range spans its sessions in ascending order, so
   this is the session-major concatenation the cache used to hold. *)
let all_on_link t ~link =
  if link < 0 || link >= Graph.link_count t.graph then invalid_arg "Network.all_on_link: unknown link";
  let inc = t.inc in
  let lo = inc.cell_first.(inc.link_row.(link)) and hi = inc.cell_first.(inc.link_row.(link + 1)) in
  List.init (hi - lo) (fun j -> receiver_of inc inc.link_cells.(lo + j))

let incidence t = t.inc
let max_capacity t = t.max_cap

let receiver_gid t r =
  check_receiver t r "receiver_gid";
  t.inc.session_first.(r.session) + r.index

let is_unicast t i = Array.length (session_spec t i).receivers = 1

let with_session_types t types =
  if Array.length types <> session_count t then invalid_arg "Network.with_session_types: length mismatch";
  revalidate t "with_session_types" (fun i s -> { s with session_type = types.(i) })

let with_vfns t vfns =
  if Array.length vfns <> session_count t then invalid_arg "Network.with_vfns: length mismatch";
  revalidate t "with_vfns" (fun i s -> { s with vfn = vfns.(i) })

let drop_index arr k = Array.init (Array.length arr - 1) (fun j -> if j < k then arr.(j) else arr.(j + 1))

(* --- surgery ------------------------------------------------------------ *)

(* The one way to change a network's membership, rates or capacities:
   a single churn event is a one-event surgery, a coalesced batch a
   K-event one.  The builder keeps only the touched sessions' specs;
   each operation validates against the accumulated state, and a raise
   leaves the base network untouched (the builder is the only thing
   dirtied).  The commit writes the touched specs into the base's spec
   vector in one batched update, so a surgery costs its touched
   sessions plus the vector's spine, never a copy of every spec.

   A surgery without a join or leave cannot move any path — routing is
   hop-count BFS, so capacity-independent, and ρ is not a routing
   input — and its commit shares the base's incidence.  A surgery with
   one pays one [build_incidence] at commit, however many events it
   holds, which is what lets the batch engine's per-event cost
   amortize toward the component-local solve at 10⁵–10⁶ sessions. *)

(* [srg_graph] is the base's own until the first capacity write copies
   it.  [srg_specs] holds the specs of the sessions some operation
   touched; [srg_touched] the paths of those a join or leave touched,
   seeded from the base's rows on first touch.  The commit copies
   every other session's rows from the base. *)
type surgery = {
  srg_base : t;
  mutable srg_graph : Graph.t;
  srg_specs : (int, session_spec) Hashtbl.t;
  srg_touched : (int, Routing.path array) Hashtbl.t;
}

let surgery_begin t =
  { srg_base = t; srg_graph = t.graph; srg_specs = Hashtbl.create 8; srg_touched = Hashtbl.create 8 }

let touched_paths srg i =
  match Hashtbl.find_opt srg.srg_touched i with
  | Some paths -> paths
  | None ->
      let inc = srg.srg_base.inc in
      Array.init (Array.length (Pvec.get srg.srg_base.sessions i).receivers) (fun k ->
          row_path inc (inc.session_first.(i) + k))

let surgery_session_count srg = session_count srg.srg_base

(* The accumulated spec of session [i], checked under [name]. *)
let accumulated srg i name =
  check_session srg.srg_base i name;
  match Hashtbl.find_opt srg.srg_specs i with Some s -> s | None -> Pvec.get srg.srg_base.sessions i

let surgery_spec srg i = accumulated srg i "surgery_spec"

let surgery_join ?weight srg ~session ~node =
  let s = accumulated srg session "with_receiver" in
  let weight = match weight with Some w -> w | None -> s.weights.(0) in
  if not (weight > 0.0 && Float.is_finite weight) then
    invalid_arg "Network.with_receiver: weight must be positive and finite";
  if s.session_type = Single_rate && weight <> s.weights.(0) then
    invalid_arg "Network.with_receiver: unequal weights in single-rate session";
  if node < 0 || node >= Graph.node_count srg.srg_graph then
    invalid_arg (Printf.sprintf "Network.with_receiver: unknown node %d" node);
  if s.sender = node || Array.exists (fun r -> r = node) s.receivers then
    invalid_arg
      (Printf.sprintf "Network.with_receiver: session %d already has a member on node %d" session node);
  (* Route only the newcomer: one early-exit BFS from the session's
     sender.  BFS is deterministic, so this is the exact path a full
     re-route of the session would assign, and every existing
     receiver's frozen path is reused verbatim. *)
  let new_path =
    match Routing.shortest_path srg.srg_graph s.sender node with
    | Some p -> p
    | None ->
        invalid_arg
          (Printf.sprintf "Network.with_receiver: session %d cannot reach node %d from its sender"
             session node)
  in
  Hashtbl.replace srg.srg_specs session
    { s with
      receivers = Array.append s.receivers [| node |];
      weights = Array.append s.weights [| weight |] };
  Hashtbl.replace srg.srg_touched session (Array.append (touched_paths srg session) [| new_path |])

let surgery_leave srg (r : receiver_id) =
  let s = accumulated srg r.session "without_receiver" in
  check_receiver_of s r "without_receiver";
  if Array.length s.receivers <= 1 then
    invalid_arg "Network.without_receiver: session would become empty";
  Hashtbl.replace srg.srg_specs r.session
    { s with receivers = drop_index s.receivers r.index; weights = drop_index s.weights r.index };
  Hashtbl.replace srg.srg_touched r.session (drop_index (touched_paths srg r.session) r.index)

let surgery_rho srg i rho =
  let s = accumulated srg i "with_rho" in
  if not (rho > 0.0) then invalid_arg "Network.with_rho: rho must be positive";
  Hashtbl.replace srg.srg_specs i { s with rho }

let surgery_capacity srg link cap =
  if link < 0 || link >= Graph.link_count srg.srg_graph then
    invalid_arg (Printf.sprintf "Network.with_capacity: unknown link %d" link);
  if not (Float.is_finite cap && cap > 0.0) then
    invalid_arg (Printf.sprintf "Network.with_capacity: capacity must be positive and finite (got %g)" cap);
  if srg.srg_graph == srg.srg_base.graph then srg.srg_graph <- Graph.copy srg.srg_graph;
  Graph.set_capacity srg.srg_graph link cap

(* A capacity write copied the graph (O(links)), so re-taking the
   maximum over it costs the same order once per surgery, however many
   writes it holds; [surgery_capacity] has validated every new value. *)
let surgery_commit srg =
  let base = srg.srg_base in
  let max_cap = if srg.srg_graph == base.graph then base.max_cap else check_capacities srg.srg_graph in
  let sessions =
    if Hashtbl.length srg.srg_specs = 0 then base.sessions
    else Pvec.update base.sessions (fun set -> Hashtbl.iter set srg.srg_specs)
  in
  if Hashtbl.length srg.srg_touched = 0 then { base with graph = srg.srg_graph; sessions; max_cap }
  else
    let source i = match Hashtbl.find_opt srg.srg_touched i with Some p -> Paths p | None -> Copy base.inc in
    let inc = build_incidence (Graph.link_count srg.srg_graph) sessions source in
    { graph = srg.srg_graph; sessions; inc; max_cap }

let one_event t op =
  let srg = surgery_begin t in
  op srg;
  surgery_commit srg

let with_receiver ?weight t ~session ~node = one_event t (surgery_join ?weight ~session ~node)
let without_receiver t r = one_event t (fun srg -> surgery_leave srg r)
let with_rho t i rho = one_event t (fun srg -> surgery_rho srg i rho)
let with_capacity t link cap = one_event t (fun srg -> surgery_capacity srg link cap)

let pp fmt t =
  Pvec.iteri
    (fun i s ->
      let ty = match s.session_type with Single_rate -> "S" | Multi_rate -> "M" in
      Format.fprintf fmt "S%d [%s, rho=%g, v=%a]: X@%d -> " (i + 1) ty s.rho Redundancy_fn.pp s.vfn
        s.sender;
      Array.iteri
        (fun k r ->
          let path = row_path t.inc (t.inc.session_first.(i) + k) in
          Format.fprintf fmt "%sr%d,%d@%d via {%s}" (if k > 0 then "; " else "") (i + 1) (k + 1) r
            (String.concat "," (List.map (Printf.sprintf "l%d") path)))
        s.receivers;
      Format.fprintf fmt "@.")
    t.sessions
