module Graph = Mmfair_topology.Graph
module Network = Mmfair_core.Network
module Allocation = Mmfair_core.Allocation
module Component = Mmfair_core.Component
module Solve_engine = Mmfair_core.Solve_engine
module Solver_error = Mmfair_core.Solver_error
module Pvec = Mmfair_core.Pvec
module Obs = Mmfair_obs

type stats = {
  events : int;
  net_events : int;
  cancelled : int;
  components : int;
  component_sessions : int;
  component_receivers : int;
  total_receivers : int;
  reuse_fraction : float;
  full_solve : bool;
  solves : int;
}

type scheduler = { run : (unit -> unit) list -> unit }

let sequential = { run = (fun tasks -> List.iter (fun f -> f ()) tasks) }

let pool ~domains =
  if domains < 1 then
    invalid_arg (Printf.sprintf "Dynamic.Batch.pool: domains must be >= 1 (got %d)" domains);
  let p = Mmfair_core.Domain_pool.shared ~domains in
  { run = (fun tasks -> Mmfair_core.Domain_pool.run p tasks) }

type t = {
  solver : Solve_engine.t;
  scheduler : scheduler;
  store : Store.t;
  mutable network : Network.t;
  mutable allocation : Allocation.t;
}

let solver_name = "Dynamic"

let create ?(solver = Solve_engine.default) ?scheduler ?(domains = 1) ?retain ?allocation net =
  if not (Solve_engine.capabilities solver).Solve_engine.partial then
    invalid_arg
      (Printf.sprintf "Dynamic.Batch.create: solver %s has no warm-start partial solve"
         (Solve_engine.name solver));
  let scheduler =
    match scheduler with
    | Some s -> s
    | None ->
        if domains < 1 then
          invalid_arg
            (Printf.sprintf "Dynamic.Batch.create: domains must be >= 1 (got %d)" domains)
        else if domains > 1 then pool ~domains
        else sequential
  in
  let allocation =
    match allocation with
    | Some a -> a
    | None ->
        let (module E : Solve_engine.S) = solver in
        E.solve net
  in
  { solver; scheduler; store = Store.create ?retain net allocation; network = net; allocation }

let create_result ?solver ?scheduler ?domains ?retain ?allocation net =
  Solver_error.protect ~solver:solver_name (fun () ->
      create ?solver ?scheduler ?domains ?retain ?allocation net)

let network t = t.network
let allocation t = t.allocation
let epoch t = Store.epoch t.store
let store t = t.store
let solver t = t.solver

(* --- event application ------------------------------------------------ *)

(* Event semantics over the surgery builder: validation runs against
   the accumulated mid-batch state (a leave sees the batch's earlier
   joins), and a batch with any join or leave pays one incidence
   rebuild at commit, however many events it holds. *)
let apply_surgery_event srg (event : Event.t) =
  match event with
  | Event.Join { session; node; weight } -> Network.surgery_join ?weight srg ~session ~node
  | Event.Leave { session; node } ->
      if session < 0 || session >= Network.surgery_session_count srg then
        invalid_arg (Printf.sprintf "Dynamic.Batch.apply: leave targets unknown session %d" session);
      let receivers = (Network.surgery_spec srg session).Network.receivers in
      let index =
        match Array.find_index (fun r -> r = node) receivers with
        | Some k -> k
        | None ->
            invalid_arg
              (Printf.sprintf "Dynamic.Batch.apply: session %d has no receiver on node %d" session node)
      in
      Network.surgery_leave srg { Network.session; index }
  | Event.Rho_change { session; rho } -> Network.surgery_rho srg session rho
  | Event.Capacity_change { link; cap } -> Network.surgery_capacity srg link cap

(* --- coalescing diff --------------------------------------------------- *)

(* What a session looks like after the whole batch, relative to before.
   Coalescing is a *state* diff, not an event-log transform: the max-min
   allocation depends only on the final network, so a join/leave pair on
   one node nets out to nothing and repeated rho/cap writes keep only
   the last value, with no bookkeeping of the path taken. *)
type session_diff = {
  changed : bool;
      (* The receiver multiset (node, weight) moved; rates cannot be
         carried over (and receiver indices may have shifted). *)
  arrived : int; (* Final nodes absent before, or present with a new weight. *)
  departed : int; (* Initial nodes absent after. *)
  frozen_row : float array;
      (* Old rates remapped to the final receiver order by node (0.0
         for arrived or weight-changed nodes).  For an unchanged
         session this is its previous row {e shared}, not copied —
         rows flow pin → solve → next epoch's allocation by pointer,
         and nobody mutates a row once built.  A changed session's row
         is never its own pin (it is always inside some solved group)
         but serves as background load when *other* disjoint groups
         solve with this session frozen. *)
  departed_paths : Mmfair_topology.Routing.path list;
      (* Old data-paths of the net-departed receivers: links the new
         network no longer associates with the session but whose freed
         capacity lets bystanders rise. *)
}

(* An unchanged session's pin is its previous row shared by pointer:
   materializing a copy per session would put an O(receivers) term on
   every batch, which is exactly what the event-derived candidate sets
   below exist to avoid. *)
let unchanged_diff old_alloc i =
  {
    changed = false;
    arrived = 0;
    departed = 0;
    frozen_row = Allocation.unsafe_rates_of_session old_alloc i;
    departed_paths = [];
  }

let diff_session old_net old_alloc new_net i =
  let old_spec = Network.session_spec old_net i in
  let new_spec = Network.session_spec new_net i in
  let old_recv = old_spec.Network.receivers in
  let new_recv = new_spec.Network.receivers in
  (* Surgeries copy the sessions array but share untouched specs (and
     their receiver/weight arrays) physically, so pointer equality
     proves the membership never moved — the common case for every
     session a batch does not touch.  A touched-but-netted-out session
     (leave + rejoin) gets fresh arrays and takes the full diff. *)
  if old_recv == new_recv && old_spec.Network.weights == new_spec.Network.weights then
    unchanged_diff old_alloc i
  else
  let n_old = Array.length old_recv and n_new = Array.length new_recv in
  (* Nodes are distinct within a session (the paper's τ restriction),
     so node -> old index is a bijection on the old membership. *)
  let old_index = Hashtbl.create (2 * n_old) in
  Array.iteri (fun k node -> Hashtbl.replace old_index node k) old_recv;
  let arrived = ref 0 in
  let frozen_row = Array.make n_new 0.0 in
  let ok = ref true in
  Array.iteri
    (fun k node ->
      match Hashtbl.find_opt old_index node with
      | None ->
          incr arrived;
          ok := false
      | Some k_old ->
          let w_old = Network.weight old_net { Network.session = i; index = k_old } in
          let w_new = Network.weight new_net { Network.session = i; index = k } in
          if w_old <> w_new then begin
            incr arrived;
            ok := false
          end
          else frozen_row.(k) <- Allocation.rate old_alloc { Network.session = i; index = k_old })
    new_recv;
  let departed = ref 0 in
  let departed_paths = ref [] in
  let new_nodes = Hashtbl.create (2 * n_new) in
  Array.iter (fun node -> Hashtbl.replace new_nodes node ()) new_recv;
  Array.iteri
    (fun k node ->
      if not (Hashtbl.mem new_nodes node) then begin
        incr departed;
        departed_paths :=
          Network.data_path old_net { Network.session = i; index = k } :: !departed_paths
      end)
    old_recv;
  let changed = (not !ok) || !departed > 0 in
  {
    changed;
    arrived = !arrived;
    departed = !departed;
    frozen_row;
    departed_paths = !departed_paths;
  }

let apply t events =
  if events = [] then invalid_arg "Dynamic.Batch.apply: empty batch";
  let old_net = t.network in
  let old_alloc = t.allocation in
  (* One surgery holds the whole batch (a single event is a one-event
     surgery): a mid-batch validation failure (unknown session, leave
     of an absent receiver, …) raises before any engine state mutates,
     and K events cost at most one incidence rebuild, not K. *)
  let new_net =
    let srg = Network.surgery_begin old_net in
    List.iter (apply_surgery_event srg) events;
    Network.surgery_commit srg
  in
  let total_receivers = Network.receiver_count new_net in
  let raw = List.length events in
  (* Net out the batch per entity.  Only sessions and links named by
     some event can differ between the two networks — surgeries share
     every untouched spec physically and the graph copy preserves
     unnamed capacities — so the batch's own event list, deduplicated,
     is the complete candidate set, and only candidates are diffed at
     all.  The old-vs-new comparison sweeps over all sessions and all
     links are gone from the per-batch cost; what remains is work
     proportional to the events themselves (plus the spines of the
     persistent spec and row vectors). *)
  let cand_sessions = Hashtbl.create 16 in
  let cand_links = Hashtbl.create 16 in
  List.iter
    (fun (e : Event.t) ->
      match e with
      | Event.Join { session; _ } | Event.Leave { session; _ } | Event.Rho_change { session; _ }
        ->
          Hashtbl.replace cand_sessions session ()
      | Event.Capacity_change { link; _ } -> Hashtbl.replace cand_links link ())
    events;
  let old_g = Network.graph old_net and new_g = Network.graph new_net in
  let changed_links = ref [] in
  let cap_net = ref 0 in
  Hashtbl.iter
    (fun l () ->
      if Graph.capacity old_g l <> Graph.capacity new_g l then begin
        incr cap_net;
        changed_links := l :: !changed_links
      end)
    cand_links;
  (* Sorted for deterministic absorb order regardless of hashing. *)
  let changed_links = List.sort Stdlib.compare !changed_links in
  let cand_diffs =
    List.map
      (fun i -> (i, diff_session old_net old_alloc new_net i))
      (List.sort Stdlib.compare (Hashtbl.fold (fun i () acc -> i :: acc) cand_sessions []))
  in
  let rho_net = ref 0 in
  let membership_net = ref 0 in
  let seeds = ref [] in
  List.iter
    (fun (i, d) ->
      membership_net := !membership_net + d.arrived + d.departed;
      let rho_moved = Network.rho old_net i <> Network.rho new_net i in
      if rho_moved then incr rho_net;
      if d.changed || rho_moved then seeds := i :: !seeds)
    cand_diffs;
  let seeds = List.rev !seeds in
  let net_events = !membership_net + !rho_net + !cap_net in
  let cancelled = raw - net_events in
  (* The union fairness component: everything any surviving change can
     reach over the previous epoch's binding links.  Its arrays are
     reused from the previous epoch; it lives until [apply] returns. *)
  Component.with_component new_net @@ fun comp ->
  let old_binding = Component.binding old_alloc in
  List.iter (fun i -> Component.absorb comp ~binding:old_binding i) seeds;
  List.iter
    (fun l ->
      List.iter
        (fun (r : Network.receiver_id) ->
          Component.absorb comp ~binding:old_binding r.Network.session)
        (Network.all_on_link new_net ~link:l))
    changed_links;
  (* Departed receivers' old paths are gone from their sessions' new
     link sets; absorb the bystanders on their binding links directly. *)
  List.iter
    (fun (_, d) ->
      List.iter
        (fun path -> List.iter (fun l -> Component.absorb_link comp ~binding:old_binding l) path)
        d.departed_paths)
    cand_diffs;
  (* Unchanged sessions pin their previous rows by sharing — one
     batched update of the persistent row vector writes the diffed
     candidates' remapped rows and shares every other chunk. *)
  let pinned =
    Pvec.update (Allocation.unsafe_rows old_alloc) (fun set ->
        List.iter (fun (i, d) -> set i d.frozen_row) cand_diffs)
  in
  let (module E : Solve_engine.S) = t.solver in
  let solves = ref 0 in
  let full = ref false in
  (* Every water-filling pass goes through the scheduler seam — one
     task per disjoint group.  Each task writes its allocation into
     its own slot, so tasks never share mutable state; a slot the
     scheduler left empty is a typed scheduler failure. *)
  let run_tasks fs =
    let out = Array.make (List.length fs) None in
    t.scheduler.run (List.mapi (fun k f () -> out.(k) <- Some (f ())) fs);
    Array.mapi
      (fun k slot ->
        match slot with
        | Some a -> a
        | None ->
            Solver_error.raise_error
              (Solver_error.Scheduler_failure
                 { solver = solver_name; task = k; what = "scheduler dropped the solve task" }))
      out
  in
  let solve_full () =
    full := true;
    Component.fill comp;
    incr solves;
    (run_tasks [ (fun () -> E.solve new_net) ]).(0)
  in
  (* The frozen background a group solves against.  Fellow component
     members (always solved by *some* group) are pinned at zero, not
     at their carried rates: a changed session's carry row remaps old
     rates onto new paths and can overfill a link the victim group
     never crosses, and an infeasible background poisons the whole
     water-filling (the engines see no headroom anywhere).  Zeros keep
     every background feasible — non-members' old rates fit the new
     capacities because every crosser of a capacity-changed link was
     absorbed — at worst a group rises too high onto a link another
     group also wants, which the merged-candidate binding check
     catches and resolves by merging.  Recomputed per round: expansion
     absorbs new members.

     Only needed when some member sits outside the solve that reads
     the background.  When one solve lists every member, [pinned]
     itself is the background: a restricted solve never reads the rows
     of the sessions it lists, so the zeroed update would be identical
     work for nothing. *)
  let background () =
    Pvec.update pinned (fun set ->
        Array.iter
          (fun i -> set i (Array.make (Array.length (Pvec.get pinned i)) 0.0))
          (Component.sessions comp))
  in
  (* Scheduler-task granularity: a restricted solve has a fixed cost
     however few sessions it lists — arena setup, its result's copy of
     the row vector's spine ([sessions / 32] pointers) and its own
     [Allocation] — so scheduling every tiny component as its own task
     would make a 64-cluster flash crowd pay sixty-four of those where
     one union solve pays one (unpacked, a 64-event ρ batch on the
     104,976-session fat tree costs about 1.4× more per event, where
     the spine copies dominate; at 1,152 sessions the two tie).
     Groups are packed, in root order, into tasks of at least
     [min_task_sessions] sessions; components stay the unit of
     independence and merging, packing only amortizes the per-solve
     cost.  Packing is deterministic — independent of the domain count
     — so allocations stay bitwise identical at every count. *)
  let min_task_sessions = 256 in
  let pack_groups groups =
    let packs, last, _ =
      List.fold_left
        (fun (packs, cur, cur_n) g ->
          if cur_n >= min_task_sessions then (List.rev cur :: packs, [ g ], Array.length g)
          else (packs, g :: cur, cur_n + Array.length g))
        ([], [], 0) groups
    in
    List.rev (match last with [] -> packs | _ -> List.rev last :: packs)
  in
  let solve_groups groups =
    let packs = pack_groups groups in
    solves := !solves + List.length packs;
    let frozen =
      match packs with
      | [ pack ]
        when List.fold_left (fun n g -> n + Array.length g) 0 pack = Component.cardinal comp ->
          pinned
      | _ -> background ()
    in
    let solved =
      run_tasks
        (List.map
           (fun pack ->
             let sessions = Array.concat pack in
             fun () -> E.solve_partial ~sessions ~frozen new_net)
           packs)
    in
    (* Fan the pack allocations back out, one per group, aligned with
       the incoming group order. *)
    List.concat (List.mapi (fun k pack -> List.map (fun _ -> solved.(k)) pack) packs)
  in
  (* Stitch per-group solves into one candidate allocation: every
     group solved over the same pinned background, and the groups are
     disjoint, so each group's rows come from its own solve and every
     unsolved session keeps its pin.  Rows are shared by pointer in
     both directions (no row is ever mutated once built); one batched
     update of [pinned] writes the groups' rows. *)
  let merge groups allocs =
    match allocs with
    | [ a ] -> a
    | _ ->
        Allocation.unsafe_of_rows new_net
          (Pvec.update pinned (fun set ->
               List.iter2
                 (fun g a -> Array.iter (fun i -> set i (Allocation.unsafe_rates_of_session a i)) g)
                 groups allocs))
  in
  let final_components = ref 0 in
  let alloc =
    if Component.is_empty comp then
      (* Nobody's rates can move (pure cancellation, or a capacity
         change on an unused link): carry every rate forward verbatim,
         sharing the previous epoch's rows.  All frozen rows are full
         here — only unchanged sessions leave the component empty. *)
      Allocation.unsafe_of_rows new_net pinned
    else if Component.is_full comp && match Component.groups comp with [ _ ] -> true | _ -> false
    then begin
      (* A full component in one piece pins nothing — solve fresh.  A
         full component that still splits into disjoint groups (e.g. a
         flash crowd touching every cluster of a link-disjoint
         network) keeps the partitioned path: the groups are
         independent solves, one scheduler task each. *)
      let a = solve_full () in
      final_components := 1;
      a
    end
    else begin
      let groups = ref (Component.groups comp) in
      let allocs = ref (solve_groups !groups) in
      let merged = ref (merge !groups !allocs) in
      (* Expansion to a sound fixed point: a restricted solve is the
         global optimum only if no saturated link ends up carrying
         both solved and frozen receivers.  With disjoint groups
         "frozen" includes the *other* groups, and a link can look
         saturated in three distinct views: under the previous epoch
         (its freeze certificates), under one group's own solve (the
         group froze against it while the merged candidate has the
         far side dropping), or under the merged candidate (two
         groups independently rose onto a shared link and overcommit
         it).  A boundary link in any view is absorbed — which also
         merges the groups leaning on it — and only the dirtied
         groups re-solve, until no view flags anything (worst case:
         the full network). *)
      let continue_ = ref true in
      while !continue_ do
        let merged_binding = Component.binding !merged in
        let flagged = ref false in
        List.iter2
          (fun g a ->
            let view_binding =
              match !allocs with [ _ ] -> merged_binding | _ -> Component.binding a
            in
            let bind l = old_binding l || view_binding l || merged_binding l in
            match Component.group_boundary_links comp ~binding:bind g with
            | [] -> ()
            | links ->
                flagged := true;
                List.iter (fun l -> Component.absorb_link comp ~binding:bind l) links)
          !groups !allocs;
        if not !flagged then continue_ := false
        else begin
          let next_groups = Component.groups comp in
          match next_groups with
          | [ g ] when Array.length g = Network.session_count new_net ->
              (* Everything leans on everything: the worst case. *)
              merged := solve_full ();
              continue_ := false
          | _ ->
              (* Memberships only grow and a group's root stays its
                 smallest session, so a regrouped partition can be
                 diffed against the previous one by (root, size): a
                 match *is* the same session set — keep its
                 allocation; everything else (grown or merged groups)
                 re-solves. *)
              let prev = Hashtbl.create 16 in
              List.iter2
                (fun g a -> Hashtbl.replace prev (g.(0), Array.length g) a)
                !groups !allocs;
              let dirty =
                List.filter (fun g -> not (Hashtbl.mem prev (g.(0), Array.length g))) next_groups
              in
              let fresh = Hashtbl.create 16 in
              List.iter2
                (fun g a -> Hashtbl.replace fresh (g.(0), Array.length g) a)
                dirty (solve_groups dirty);
              groups := next_groups;
              allocs :=
                List.map
                  (fun g ->
                    let key = (g.(0), Array.length g) in
                    match (Hashtbl.find_opt prev key, Hashtbl.find_opt fresh key) with
                    | Some a, _ | None, Some a -> a
                    | None, None ->
                        (* Unreachable by construction: [dirty] is
                           exactly the groups absent from [prev], and
                           [solve_groups] returns one allocation per
                           group.  Surface a miss as a typed error with
                           the group's root as context, not a bare
                           [Not_found]. *)
                        Solver_error.raise_error
                          (Solver_error.Scheduler_failure
                             {
                               solver = solver_name;
                               task = g.(0);
                               what =
                                 Printf.sprintf
                                   "regrouped component (root %d, %d sessions) has neither a \
                                    carried nor a fresh solve"
                                   g.(0) (Array.length g);
                             }))
                  next_groups;
              merged := merge !groups !allocs
        end
      done;
      final_components := (if !full then 1 else List.length !groups);
      !merged
    end
  in
  let component_receivers = Component.receiver_count comp in
  let reuse_fraction =
    if total_receivers = 0 || !full then 0.0
    else 1.0 -. (float_of_int component_receivers /. float_of_int total_receivers)
  in
  let stats =
    {
      events = raw;
      net_events;
      cancelled;
      components = !final_components;
      component_sessions = Component.cardinal comp;
      component_receivers;
      total_receivers;
      reuse_fraction;
      full_solve = !full;
      solves = !solves;
    }
  in
  t.network <- new_net;
  t.allocation <- alloc;
  let entry = Store.push t.store ~events ~network:new_net ~allocation:alloc in
  if Obs.Probe.enabled () then begin
    (* Fairness telemetry: how fair the landed allocation is and how
       hard rates moved this epoch.  [pinned] rows are the previous
       rates remapped to the new receiver order by node (0 for
       arrivals), so the per-receiver delta matches receivers across
       the surgery and counts a join's rate as a move from zero.  A row
       physically equal to its pin is unchanged, and chunks the two
       vectors share are skipped whole, so only re-solved rows are
       walked. *)
    let max_delta = ref 0.0 in
    Pvec.iter_changed
      (fun _ now before ->
        Array.iteri
          (fun k r ->
            let d = Float.abs (r -. before.(k)) in
            if d > !max_delta then max_delta := d)
          now)
      (Allocation.unsafe_rows alloc) pinned;
    let largest_component =
      if Component.is_empty comp then 0
      else if stats.full_solve then Component.cardinal comp
      else
        List.fold_left
          (fun acc g -> Stdlib.max acc (Array.length g))
          0 (Component.groups comp)
    in
    Obs.Probe.epoch
      {
        Obs.Events.epoch = entry.Store.epoch;
        kind = (match events with [ e ] -> Event.kind e | _ -> "batch");
        events = raw;
        net_events;
        cancelled;
        component_sessions = stats.component_sessions;
        component_receivers;
        total_receivers;
        reuse_fraction;
        full_solve = stats.full_solve;
        solves = stats.solves;
        components = stats.components;
        largest_component;
        jain = Mmfair_core.Metrics.jain_index alloc;
        max_delta_rate = !max_delta;
      }
  end;
  stats

let apply_result t events = Solver_error.protect ~solver:solver_name (fun () -> apply t events)
