(* Fairness-component machinery (lib/core/component.ml), extracted
   from the churn engine in PR 5: the binding-link predicate on the
   paper's Figure 2, transitive closure under absorb, the boundary
   scan's emptiness at an optimum, and the bookkeeping accessors the
   batch coalescer leans on.

   End-to-end soundness (incremental == from-scratch after every
   event/batch) is the differential harness's job; these pin the
   component primitives in isolation. *)

module Graph = Mmfair_topology.Graph
module Network = Mmfair_core.Network
module Allocator = Mmfair_core.Allocator
module Component = Mmfair_core.Component
module Allocation = Mmfair_core.Allocation
module Paper_nets = Mmfair_workload.Paper_nets
module Random_nets = Mmfair_workload.Random_nets
module Builders = Mmfair_topology.Builders
module Xoshiro = Mmfair_prng.Xoshiro

(* Multi-rate Figure 2: rates (2.5, 2, 3) / 2.5 saturate l1 (2.5 + 2.5
   on cap 5), l2 (2 on cap 2) and l3 (3 on cap 3) while the uplink l4
   keeps slack (max-shape 3 + 2.5 on cap 6). *)
let fig2 () = (Paper_nets.figure2 ~session1_type:Network.Multi_rate ()).Paper_nets.net

let test_binding_predicate () =
  let net = fig2 () in
  let alloc = Allocator.max_min net in
  let binding = Component.binding alloc in
  let comp = Component.create net in
  List.iter
    (fun (l, expect) ->
      Alcotest.(check bool) (Printf.sprintf "link %d binding" l) expect
        (Component.binds comp binding l))
    [ (0, true); (1, true); (2, true); (3, false) ]

let test_absorb_closure () =
  let net = fig2 () in
  let binding = Component.binding (Allocator.max_min net) in
  let comp = Component.create net in
  Alcotest.(check bool) "starts empty" true (Component.is_empty comp);
  Alcotest.(check int) "no receivers yet" 0 (Component.receiver_count comp);
  (* S2's path crosses the saturated l1, which S1 also crosses: the
     closure of S2 is both sessions. *)
  Component.absorb comp ~binding 1;
  Alcotest.(check bool) "seed session inside" true (Component.mem comp 1);
  Alcotest.(check bool) "coupled session pulled in" true (Component.mem comp 0);
  Alcotest.(check bool) "component is full" true (Component.is_full comp);
  Alcotest.(check (array int)) "sessions ascending" [| 0; 1 |] (Component.sessions comp);
  Alcotest.(check int) "all four receivers" 4 (Component.receiver_count comp);
  (* Absorbing again is idempotent. *)
  Component.absorb comp ~binding 1;
  Alcotest.(check int) "idempotent" 2 (Component.cardinal comp)

let test_absorb_isolated () =
  (* Figure 3(a): S2 sits alone on its private saturated link z, so
     its closure is itself and the optimum has no boundary. *)
  let { Paper_nets.net; _ }, _ = Paper_nets.figure3a () in
  let binding = Component.binding (Allocator.max_min net) in
  let comp = Component.create net in
  Component.absorb comp ~binding 1;
  Alcotest.(check (array int)) "closure of the isolated session" [| 1 |] (Component.sessions comp);
  Alcotest.(check bool) "not full" false (Component.is_full comp);
  Alcotest.(check (list (array int))) "one group" [ [| 1 |] ] (Component.groups comp);
  Alcotest.(check (list int)) "no boundary at the optimum" []
    (Component.group_boundary_links comp ~binding [| 1 |]);
  (* S1 and S3 share the saturated q: one seed absorbs both, and their
     joint component is also boundary-free at the optimum. *)
  let comp2 = Component.create net in
  Component.absorb comp2 ~binding 0;
  Alcotest.(check (array int)) "q couples S1 and S3" [| 0; 2 |] (Component.sessions comp2);
  Alcotest.(check (list (array int))) "one joint group" [ [| 0; 2 |] ] (Component.groups comp2);
  Alcotest.(check (list int)) "no boundary at the optimum either" []
    (Component.group_boundary_links comp2 ~binding [| 0; 2 |])

let test_absorb_link () =
  let net = fig2 () in
  let binding = Component.binding (Allocator.max_min net) in
  (* Absorbing via a saturated link pulls in every session crossing
     it; via an unsaturated one it is a no-op. *)
  let comp = Component.create net in
  Component.absorb_link comp ~binding 0;
  Alcotest.(check bool) "saturated link absorbs its sessions" true (Component.is_full comp);
  let comp2 = Component.create net in
  Component.absorb_link comp2 ~binding 3;
  Alcotest.(check bool) "slack link absorbs nothing" true (Component.is_empty comp2)

let test_fill () =
  let net = fig2 () in
  let comp = Component.create net in
  Component.fill comp;
  Alcotest.(check bool) "fill makes it full" true (Component.is_full comp);
  Alcotest.(check int) "cardinal is the session count" (Network.session_count net)
    (Component.cardinal comp);
  Alcotest.(check int) "receiver_count is the network's" (Network.receiver_count net)
    (Component.receiver_count comp)

(* Boundary expansion can force two disjoint groups to merge: two
   sessions pinned by private saturated leaves share a slack trunk;
   raising the leaf capacities lets both rise until the trunk
   saturates, and the per-group boundary scan must flag the trunk for
   both groups — absorbing it merges them into one. *)
let test_groups_merge_on_expansion () =
  let build ~leaf_cap =
    let g = Graph.create ~nodes:4 in
    let trunk = Graph.add_link g 0 1 4.0 in
    let l1 = Graph.add_link g 1 2 leaf_cap in
    let l2 = Graph.add_link g 1 3 leaf_cap in
    let net =
      Network.make g
        [|
          Network.session ~sender:0 ~receivers:[| 2 |] ();
          Network.session ~sender:0 ~receivers:[| 3 |] ();
        |]
    in
    (net, trunk, l1, l2)
  in
  let net_old, trunk, l1, l2 = build ~leaf_cap:1.0 in
  (* Old optimum (1, 1): the private leaves bind, the trunk keeps
     2 of 4 slack. *)
  let old_alloc = Allocator.max_min net_old in
  let old_binding = Component.binding old_alloc in
  let probe = Component.create net_old in
  Alcotest.(check bool) "leaf l1 binds before" true (Component.binds probe old_binding l1);
  Alcotest.(check bool) "leaf l2 binds before" true (Component.binds probe old_binding l2);
  Alcotest.(check bool) "trunk slack before" false (Component.binds probe old_binding trunk);
  (* The batch raises both leaf capacities; growing the touched
     sessions' closures under the old binding view leaves them
     separate — each was pinned by its own private leaf. *)
  let net_new, trunk', _, _ = build ~leaf_cap:3.0 in
  let comp = Component.create net_new in
  Component.absorb comp ~binding:old_binding 0;
  Component.absorb comp ~binding:old_binding 1;
  (match Component.groups comp with
  | [ a; b ] ->
      Alcotest.(check (array int)) "first group" [| 0 |] a;
      Alcotest.(check (array int)) "second group" [| 1 |] b
  | gs -> Alcotest.fail (Printf.sprintf "expected two groups, got %d" (List.length gs)));
  Alcotest.(check bool) "full component, still split" true (Component.is_full comp);
  (* The merged candidate (both groups re-solved at the new leaf caps)
     rises to (2, 2) and saturates the trunk; the per-group scan must
     flag it for each group — the "outside" receiver is the other
     group's. *)
  let either = Component.binding ~also:[ old_alloc ] (Allocator.max_min net_new) in
  List.iter
    (fun grp ->
      Alcotest.(check (list int))
        (Printf.sprintf "trunk flagged for group of session %d" grp.(0))
        [ trunk' ]
        (Component.group_boundary_links comp ~binding:either grp))
    (Component.groups comp);
  (* Absorbing the flagged link merges the groups; the merged group
     certifies — its boundary is empty. *)
  Component.absorb_link comp ~binding:either trunk';
  (match Component.groups comp with
  | [ merged ] ->
      Alcotest.(check (array int)) "one merged group" [| 0; 1 |] merged;
      Alcotest.(check (list int)) "merged group certifies" []
        (Component.group_boundary_links comp ~binding:either merged)
  | gs -> Alcotest.fail (Printf.sprintf "expected one merged group, got %d" (List.length gs)))

(* --- the all-at-ρ rule ---------------------------------------------------- *)

(* One link of capacity 2 and three one-receiver sessions across it,
   filled at rates 0.5, 1.0 and 0.5.  With the default specs every
   receiver sits at its ρ, so the link is nobody's bottleneck and the
   group of session 0 has no boundary, although session 1 rates above
   the group's top there.  Each argument breaks that in one way. *)
let all_at_rho_scan ?(rho0 = 0.5) ?(rho1 = 1.0) ?(session_type = Network.Multi_rate)
    ?(vfn = Mmfair_core.Redundancy_fn.Efficient) ?(other_group = false) () =
  let g = Graph.create ~nodes:2 in
  let l = Graph.add_link g 0 1 2.0 in
  let net =
    Network.make g
      [|
        Network.session ~rho:rho0 ~sender:0 ~receivers:[| 1 |] ();
        Network.session ~rho:rho1 ~sender:0 ~receivers:[| 1 |] ();
        Network.session ~session_type ~vfn ~rho:0.5 ~sender:0 ~receivers:[| 1 |] ();
      |]
  in
  (* Grown under an empty allocation, nothing binds: each seed is its
     own group. *)
  let slack = Component.binding (Allocation.make net [| [| 0.0 |]; [| 0.0 |]; [| 0.0 |] |]) in
  let comp = Component.create net in
  Component.absorb comp ~binding:slack 0;
  if other_group then Component.absorb comp ~binding:slack 2;
  let judge = Allocation.make net [| [| 0.5 |]; [| 1.0 |]; [| 0.5 |] |] in
  (l, Component.group_boundary_links comp ~binding:(Component.binding judge) [| 0 |])

let test_all_at_rho_boundary () =
  let l, links = all_at_rho_scan () in
  Alcotest.(check (list int)) "every receiver at its rho: no boundary" [] links;
  List.iter
    (fun (what, (_, links)) -> Alcotest.(check (list int)) what [ l ] links)
    [
      ("an outside receiver below its rho", all_at_rho_scan ~rho1:2.0 ());
      ("the group's receiver below its rho", all_at_rho_scan ~rho0:Float.infinity ());
      ("another group's member crosses it", all_at_rho_scan ~other_group:true ());
      ("a single-rate session on it", all_at_rho_scan ~session_type:Network.Single_rate ());
      ( "a session on it that is not Efficient",
        all_at_rho_scan ~vfn:Mmfair_core.Redundancy_fn.Additive () );
    ]

(* --- closure oracle ------------------------------------------------------ *)

(* The naive closure, kept as the oracle for [absorb]/[absorb_link]:
   every expanded session re-walks every binding link on its path,
   also links some other member already expanded, and judges every
   pinned receiver from the receiver lists.  Members and union-by-min
   groups are tracked independently of [Component].  A binding is a
   list of allocations: a link binds under any of them, and the first
   judges who stays out. *)
module Naive = struct
  type t = { net : Network.t; member : bool array; parent : int array }

  let binds allocs l =
    List.exists
      (fun a ->
        let c = Graph.capacity (Network.graph (Allocation.network a)) l in
        Allocation.link_rate a l >= c -. (Component.eps_bind *. Float.max 1.0 c))
      allocs

  (* Session [j] stays out of link [l] under [judge]: every session on
     the link is multi-rate Efficient, and each of [j]'s receivers on
     it sits at its rho below the top normalised rate of the link's
     receivers that are below theirs. *)
  let stays_out o judge l j =
    let net = o.net in
    let on_link = Network.all_on_link net ~link:l in
    let norm r = Allocation.rate judge r /. Network.weight net r in
    let pinned (r : Network.receiver_id) =
      Allocation.rate judge r >= Network.rho net r.Network.session
    in
    let top =
      List.fold_left (fun acc r -> if pinned r then acc else Float.max acc (norm r)) 0.0 on_link
    in
    List.for_all
      (fun (r : Network.receiver_id) ->
        let i = r.Network.session in
        Network.session_type net i = Network.Multi_rate
        && match Network.vfn net i with Mmfair_core.Redundancy_fn.Efficient -> true | _ -> false)
      on_link
    && List.for_all
         (fun r -> pinned r && norm r < (1.0 -. Component.eps_bind) *. top)
         (Network.receivers_on_link net ~session:j ~link:l)

  let create net =
    let m = Network.session_count net in
    { net; member = Array.make m false; parent = Array.init m Fun.id }

  let rec find o i = if o.parent.(i) = i then i else find o o.parent.(i)

  let union o i j =
    let ri = find o i and rj = find o j in
    if ri < rj then o.parent.(rj) <- ri else if rj < ri then o.parent.(ri) <- rj

  let absorb o ~binding i =
    o.member.(i) <- true;
    let stack = Stack.create () in
    Stack.push i stack;
    while not (Stack.is_empty stack) do
      let s = Stack.pop stack in
      List.iter
        (fun l ->
          if binds binding l then
            List.iter
              (fun (r : Network.receiver_id) ->
                let j = r.Network.session in
                if o.member.(j) then union o s j
                else if not (stays_out o (List.hd binding) l j) then begin
                  o.member.(j) <- true;
                  Stack.push j stack;
                  union o s j
                end)
              (Network.all_on_link o.net ~link:l))
        (Network.session_links o.net s)
    done

  let absorb_link o ~binding l =
    if binds binding l then
      List.iter
        (fun (r : Network.receiver_id) ->
          let j = r.Network.session in
          if o.member.(j) || not (stays_out o (List.hd binding) l j) then absorb o ~binding j)
        (Network.all_on_link o.net ~link:l)

  let sessions o =
    List.filter (fun i -> o.member.(i)) (List.init (Array.length o.member) Fun.id)

  (* Same shape as [Component.groups]: ordered by smallest session,
     members ascending within. *)
  let groups o =
    let ss = sessions o in
    List.filter_map
      (fun r -> if find o r = r then Some (Array.of_list (List.filter (fun i -> find o i = r) ss)) else None)
      ss
end

(* Random rates up to [hi] on every receiver: a random binding set
   wherever they overfill a link. *)
let random_alloc rng net ~hi =
  Allocation.make net
    (Array.init (Network.session_count net) (fun i ->
         Array.init
           (Array.length (Network.session_spec net i).Network.receivers)
           (fun _ -> Xoshiro.float rng *. hi)))

(* [a] carrying every link's usage, as the churn engine's allocations
   do. *)
let every_link a =
  let net = Allocation.network a in
  let usage =
    Mmfair_core.Pvec.init (Graph.link_count (Network.graph net)) (Allocation.link_rate a)
  in
  Allocation.unsafe_of_rows ~usage:(Allocation.Every_link usage) net (Allocation.unsafe_rows a)

(* A warm-start solve of a random half of the sessions over [frozen]'s
   rows: it carries its touched links' usages ([Solved]) and nothing
   about the others. *)
let partial_solve rng net ~frozen =
  let sessions =
    List.filter (fun _ -> Xoshiro.below rng 2 = 0) (List.init (Network.session_count net) Fun.id)
  in
  Allocator.max_min_partial ~sessions:(Array.of_list sessions) ~frozen:(Allocation.unsafe_rows frozen)
    net

(* Drive [Component] and the oracle through the same absorb script —
   first under [judge] or [coin], then also under [extra], as the
   batch engine's expansion loop widens its predicate, then under a
   partial solve's result in [coin]'s place — and compare member sets
   and groups after every step.  [judge] decides who stays out
   throughout; half the time it carries every link's usage, so each
   source of a binding bit (a carried [Every_link] value, a solve's
   [Solved] links, [Allocation.link_rate] for the rest) meets the
   oracle, which judges by [link_rate] alone. *)
let closure_agrees rng net ~judge ~coin ~extra =
  let judge = if Xoshiro.below rng 2 = 0 then judge else every_link judge in
  let solved = partial_solve rng net ~frozen:coin in
  let narrow = [ judge; coin ] and wide = [ judge; coin; extra ] in
  let solved_wide = [ judge; solved; extra ] in
  let comp = Component.create net and naive = Naive.create net in
  let m = Network.session_count net in
  let n_links = Graph.link_count (Network.graph net) in
  let agrees () =
    Array.to_list (Component.sessions comp) = Naive.sessions naive
    && Component.groups comp = Naive.groups naive
  in
  (* Half the link seeds come off a member's path, so [absorb_link]
     also revisits links the closure already expanded. *)
  let pick_link () =
    let members = Component.sessions comp in
    let path =
      if Array.length members = 0 || Xoshiro.below rng 2 = 0 then []
      else Network.session_links net members.(Xoshiro.below rng (Array.length members))
    in
    if path = [] then Xoshiro.below rng n_links
    else List.nth path (Xoshiro.below rng (List.length path))
  in
  let step allocs =
    let binding = Component.binding ~also:(List.tl allocs) (List.hd allocs) in
    if Xoshiro.below rng 2 = 0 then begin
      let l = pick_link () in
      Component.absorb_link comp ~binding l;
      Naive.absorb_link naive ~binding:allocs l
    end
    else begin
      let i = Xoshiro.below rng m in
      Component.absorb comp ~binding i;
      Naive.absorb naive ~binding:allocs i
    end;
    agrees ()
  in
  let rec steps k allocs = k = 0 || (step allocs && steps (k - 1) allocs) in
  steps (1 + Xoshiro.below rng 4) narrow
  && steps (1 + Xoshiro.below rng 4) wide
  && steps (1 + Xoshiro.below rng 4) solved_wide

let qcheck_closure_random_nets =
  QCheck.Test.make ~name:"absorb matches the naive closure on random networks" ~count:1000
    QCheck.(int_range 0 100_000)
    (fun seed ->
      let rng = Xoshiro.create ~seed:(Int64.of_int seed) () in
      let config =
        {
          Random_nets.default with
          Random_nets.nodes = 8 + Xoshiro.below rng 8;
          extra_links = 2 + Xoshiro.below rng 6;
          sessions = 3 + Xoshiro.below rng 8;
          max_receivers = 4;
        }
      in
      let net = Random_nets.generate ~rng config in
      closure_agrees rng net ~judge:(Allocator.max_min net) ~coin:(random_alloc rng net ~hi:2.0)
        ~extra:(random_alloc rng net ~hi:2.0))

(* The same on larger random networks, so summaries and spine reads
   run past the first 32-entry chunk: 33–80 sessions, a share of them
   single-rate or [Scaled], and non-unit weights (one per single-rate
   session, one per receiver otherwise). *)
let qcheck_closure_random_nets_chunks =
  QCheck.Test.make ~name:"absorb matches the naive closure past the first chunk" ~count:150
    QCheck.(int_range 0 100_000)
    (fun seed ->
      let rng = Xoshiro.create ~seed:(Int64.of_int seed) () in
      let config =
        {
          Random_nets.default with
          Random_nets.nodes = 10 + Xoshiro.below rng 10;
          extra_links = 4 + Xoshiro.below rng 8;
          sessions = 33 + Xoshiro.below rng 48;
          max_receivers = 4;
          scaled_vfn_prob = 0.2;
        }
      in
      let net = Random_nets.generate ~rng config in
      let weight () = 0.5 +. float_of_int (Xoshiro.below rng 6) *. 0.5 in
      let net =
        Network.with_weights net
          (Array.init (Network.session_count net) (fun i ->
               let spec = Network.session_spec net i in
               let k = Array.length spec.Network.receivers in
               match spec.Network.session_type with
               | Network.Single_rate -> Array.make k (weight ())
               | Network.Multi_rate -> Array.init k (fun _ -> weight ())))
      in
      closure_agrees rng net ~judge:(Allocator.max_min net) ~coin:(random_alloc rng net ~hi:2.0)
        ~extra:(random_alloc rng net ~hi:2.0))

(* Slot pools on a star of stars, the flow simulator's shape: per
   cluster a few active sessions saturate the trunk and dozens of
   parked ones (tiny rho) sit on it too, so every member reaches the
   same saturated trunk — the case where re-expanding it per member
   is quadratic. *)
let qcheck_closure_slot_pools =
  QCheck.Test.make ~name:"absorb matches the naive closure on star-of-stars slot pools" ~count:60
    QCheck.(int_range 0 100_000)
    (fun seed ->
      let rng = Xoshiro.create ~seed:(Int64.of_int seed) () in
      let clusters = 1 + Xoshiro.below rng 4 and leaves_per_cluster = 1 + Xoshiro.below rng 3 in
      let t =
        Builders.star_of_stars ~leaves_per_cluster ~clusters ~trunk_capacity:4.0
          ~leaf_capacity:16.0 ()
      in
      let per_cluster = 20 + Xoshiro.below rng 30 in
      let specs =
        Array.init (clusters * per_cluster) (fun s ->
            let c = s / per_cluster in
            let leaf = t.Builders.leaves.(c).(Xoshiro.below rng leaves_per_cluster) in
            let rho = if Xoshiro.below rng 4 = 0 then Float.infinity else 1e-9 in
            Network.session ~rho ~sender:t.Builders.root ~receivers:[| leaf |] ())
      in
      let net = Network.make t.Builders.graph specs in
      (* The optimum parks most slots at their rho below the trunk's
         active rate, so they stay out; widening adds leaf links, and
         other clusters' trunks, under random rates. *)
      closure_agrees rng net ~judge:(Allocator.max_min net)
        ~coin:(random_alloc rng net ~hi:0.05) ~extra:(random_alloc rng net ~hi:1.0))

(* The arena keeps three summaries, so one binding names at most three
   allocations: a fourth would evict the judge's summary while it is in
   use. *)
let test_binding_arity () =
  let a = Allocator.max_min (fig2 ()) in
  ignore (Component.binding ~also:[ a; a ] a);
  Alcotest.check_raises "a fourth allocation"
    (Invalid_argument "Component.binding: at most 2 allocations besides the first") (fun () ->
      ignore (Component.binding ~also:[ a; a; a ] a))

let suite =
  [
    Alcotest.test_case "binding links on figure 2" `Quick test_binding_predicate;
    Alcotest.test_case "absorb takes the transitive closure" `Quick test_absorb_closure;
    Alcotest.test_case "isolated session stays alone, boundary empty" `Quick test_absorb_isolated;
    Alcotest.test_case "absorb_link seeds from a saturated link" `Quick test_absorb_link;
    Alcotest.test_case "fill covers every session" `Quick test_fill;
    Alcotest.test_case "boundary expansion merges disjoint groups" `Quick
      test_groups_merge_on_expansion;
    Alcotest.test_case "a link all at rho bounds no group" `Quick test_all_at_rho_boundary;
    QCheck_alcotest.to_alcotest qcheck_closure_random_nets;
    QCheck_alcotest.to_alcotest qcheck_closure_slot_pools;
    Alcotest.test_case "a binding names at most three allocations" `Quick test_binding_arity;
    QCheck_alcotest.to_alcotest qcheck_closure_random_nets_chunks;
  ]
