(* Differential harness for the incremental churn engine.

   For each seed: generate a random network (mixed session types,
   rho limits, Scaled link-rate functions), draw a random churn trace
   (Churn_gen), and replay it through Mmfair_dynamic.Batch.  After
   EVERY event the incremental allocation must match a from-scratch
   Allocator.max_min on the post-event network within a relative 1e-9
   — the correctness gate for the fairness-component construction
   (DESIGN.md §11).  Odd seeds and topologies (parked-star excepted)
   replay the network with every link-rate function wrapped as Custom
   (Redundancy_fn.as_custom, same rates), which drives the bisection
   engine on both sides, so both increment computations are exercised.

   With --batch-sizes B1,B2,... the same trace is additionally
   replayed coalesced: for each size a fresh engine applies the trace
   in B-event Batch.apply chunks, the allocation is checked against a
   from-scratch solve after EVERY batch, and the final rates must
   match the per-event replay within the same 1e-9 — the coalescing
   gate (DESIGN.md §12: the final allocation depends only on the final
   network, not the event path).

   With --domains D1,D2,... each coalesced replay additionally runs
   at every listed domain-pool size, and every batch's allocation must
   be BITWISE identical across the counts — the multicore gate
   (DESIGN.md §13: partitioned component solves may not depend on the
   pool size).  The from-scratch reference solves themselves are
   farmed out to the pool (largest listed count), which is where the
   harness spends its time; the 1e-9 comparisons are unchanged.

   At the end of every replay, per-event and coalesced, the engine's
   network must have the incidence a from-scratch Network.make builds
   on its final graph and specs (structural equality) — the network
   oracle: every replay's surgeries are otherwise trusted by both
   sides of the differential.

   With --topologies fat-tree,power-law,star the whole battery
   additionally runs on generated topologies from the builder layer
   (Standard_nets' placements, at differential-checkable scale), so
   the incremental path is gated on the graph families the scaling
   curves are measured on, not just on small random nets.  The star
   case puts dozens of sessions on each saturated trunk, the
   high-fan-in shape the other families never reach; parked-star is
   the flow simulator's slot pool, most slots parked at a negligible
   rho and a trace that only toggles slots between parked and
   unbounded, so the parked slots stay out of every component.
   headroom is the churn bench's network, where small components are
   the rule: the random nets mostly fall back to full solves, so this
   case fails if more than half of its epochs take the full-solve
   path, keeping the 1e-9 gate on restricted solves.  Each topology
   case prints its per-event replay's epoch count, full solves and
   epochs that took more than one restricted solve (boundary
   expansion); only the full-solve count is gated.

     churn_differential.exe [--events N] [--seeds S1,S2,...]
                            [--batch-sizes B1,B2,...] [--domains D1,D2,...]
                            [--topologies T1,T2,...]

   Exits non-zero on the first divergence. *)

module Network = Mmfair_core.Network
module Allocation = Mmfair_core.Allocation
module Allocator = Mmfair_core.Allocator
module Solver_error = Mmfair_core.Solver_error
module Batch = Mmfair_dynamic.Batch
module Event = Mmfair_dynamic.Event
module Random_nets = Mmfair_workload.Random_nets
module Standard_nets = Mmfair_workload.Standard_nets
module Churn_gen = Mmfair_workload.Churn_gen
module Churn_parser = Mmfair_workload.Churn_parser
module Net_parser = Mmfair_workload.Net_parser
module Xoshiro = Mmfair_prng.Xoshiro
module Builders = Mmfair_topology.Builders

let failures = ref 0
let events_checked = ref 0
let batches_checked = ref 0
let full_solves = ref 0
let multi_solves = ref 0
let reuse_sum = ref 0.0

let fail_case ~case fmt =
  Printf.ksprintf
    (fun msg ->
      incr failures;
      Printf.eprintf "CHURN FAILURE [%s]: %s\n%!" case msg)
    fmt

(* The gate's tolerance: relative 1e-9, the same scaling as the
   solvers' internal tol_for. *)
let agree a b = Float.abs (a -. b) <= 1e-9 *. Stdlib.max 1.0 (Stdlib.max (Float.abs a) (Float.abs b))

(* Pool size for the from-scratch reference solves (the harness's
   cost center): the largest count given to --domains. *)
let scratch_domains = ref 1

(* The network oracle: rebuild the engine's final network from scratch
   and require a structurally equal incidence. *)
let check_network ~case net =
  let specs = Array.init (Network.session_count net) (Network.session_spec net) in
  match Network.make (Network.graph net) specs with
  | exception Invalid_argument e -> fail_case ~case "final network does not rebuild: %s" e
  | rebuilt ->
      if Network.incidence net <> Network.incidence rebuilt then
        fail_case ~case "final incidence differs from a Network.make rebuild"

(* One captured replay step awaiting its from-scratch check. *)
type snapshot = {
  s_case : string;
  s_label : string;
  s_net : Network.t;
  s_alloc : Allocation.t; (* the incremental engine's answer *)
}

(* Scratch-solve every snapshot on the pool — networks and allocations
   are immutable and each task writes only its own slot — then report
   in replay order from the submitting domain (counters and stderr
   are not touched by workers). *)
let check_snapshots ~counter snapshots =
  let snapshots = Array.of_list (List.rev snapshots) in
  let n = Array.length snapshots in
  let slots = Array.make n (Ok []) in
  let task k () =
    let s = snapshots.(k) in
    slots.(k) <-
      (match Allocator.max_min_result s.s_net with
      | Error e -> Error (Solver_error.to_string e)
      | Ok scratch ->
          let msgs = ref [] in
          Array.iter
            (fun r ->
              let x = Allocation.rate s.s_alloc r and y = Allocation.rate scratch r in
              if not (agree x y) then
                msgs :=
                  Printf.sprintf "receiver (%d,%d): incremental %.17g vs scratch %.17g"
                    r.Network.session r.Network.index x y
                  :: !msgs)
            (Network.all_receivers s.s_net);
          Ok (List.rev !msgs))
  in
  Mmfair_core.Domain_pool.run
    (Mmfair_core.Domain_pool.shared ~domains:!scratch_domains)
    (List.init n task);
  Array.iteri
    (fun k slot ->
      let s = snapshots.(k) in
      match slot with
      | Error msg -> fail_case ~case:s.s_case "%s: scratch solve errored: %s" s.s_label msg
      | Ok msgs ->
          incr counter;
          List.iter (fun m -> fail_case ~case:s.s_case "%s: %s" s.s_label m) msgs)
    slots

let chunks n l =
  let acc, cur, _ =
    List.fold_left
      (fun (acc, cur, k) x ->
        if k = n then (List.rev cur :: acc, [ x ], 1) else (acc, x :: cur, k + 1))
      ([], [], 0) l
  in
  List.rev (if cur = [] then acc else List.rev cur :: acc)

(* Replay [trace] coalesced into [size]-event batches on a fresh
   engine with a [domains]-sized pool; per-batch allocations in replay
   order, or [None] after any engine error. *)
let replay_batched ~case ~domains ~size net trace =
  match Batch.create_result ~domains net with
  | Error e ->
      fail_case ~case "initial solve errored: %s" (Solver_error.to_string e);
      None
  | Ok eng ->
      let allocs = ref [] in
      let ok = ref true in
      List.iteri
        (fun bidx batch ->
          if !ok then
            match Batch.apply_result eng batch with
            | Error e ->
                fail_case ~case "batch %d: engine errored: %s" bidx (Solver_error.to_string e);
                ok := false
            | Ok _stats -> allocs := (Batch.network eng, Batch.allocation eng) :: !allocs)
        (chunks size trace);
      if !ok then begin
        check_network ~case (Batch.network eng);
        Some (List.rev !allocs)
      end
      else None

(* Coalescing + multicore gates for one batch size: the first domain
   count is scratch-checked after every batch (1e-9) and its final
   rates compared against the per-event replay; every further count
   must reproduce each batch's allocation BITWISE. *)
let check_batched ~case ~domain_counts ~size net trace reference =
  let case0 = Printf.sprintf "%s batch=%d" case size in
  match domain_counts with
  | [] -> ()
  | d0 :: rest -> (
      let case = Printf.sprintf "%s domains=%d" case0 d0 in
      match replay_batched ~case ~domains:d0 ~size net trace with
      | None -> ()
      | Some ref_allocs ->
          check_snapshots ~counter:batches_checked
            (List.rev
               (List.mapi
                  (fun bidx (bnet, alloc) ->
                    {
                      s_case = case;
                      s_label = Printf.sprintf "batch %d" bidx;
                      s_net = bnet;
                      s_alloc = alloc;
                    })
                  ref_allocs));
          (match List.rev ref_allocs with
          | (fnet, final) :: _ ->
              Array.iter
                (fun r ->
                  let x = Allocation.rate final r and y = Allocation.rate reference r in
                  if not (agree x y) then
                    fail_case ~case
                      "final rates: receiver (%d,%d): batched %.17g vs per-event %.17g"
                      r.Network.session r.Network.index x y)
                (Network.all_receivers fnet)
          | [] -> ());
          List.iter
            (fun d ->
              let case = Printf.sprintf "%s domains=%d" case0 d in
              match replay_batched ~case ~domains:d ~size net trace with
              | None -> ()
              | Some allocs ->
                  List.iteri
                    (fun bidx ((bnet, a), (_, a0)) ->
                      Array.iter
                        (fun r ->
                          let x = Allocation.rate a r and y = Allocation.rate a0 r in
                          if x <> y then
                            fail_case ~case
                              "batch %d: receiver (%d,%d): %.17g not bitwise identical to \
                               domains=%d's %.17g"
                              bidx r.Network.session r.Network.index x d0 y)
                        (Network.all_receivers bnet))
                    (List.combine allocs ref_allocs))
            rest)

let net_config rng =
  let nodes = 10 + Xoshiro.below rng 8 in
  {
    Random_nets.nodes;
    extra_links = 3 + Xoshiro.below rng 5;
    sessions = 4 + Xoshiro.below rng 4;
    max_receivers = 4;
    single_rate_prob = 0.3;
    finite_rho_prob = 0.3;
    scaled_vfn_prob = 0.2;
    cap_lo = 1.0;
    cap_hi = 10.0;
  }

(* The same network with every link-rate function wrapped as Custom
   (same rates): the solves pick their engine from the input, and this
   one selects bisection. *)
let bisection_net net =
  Network.with_vfns net
    (Array.init (Network.session_count net) (fun i ->
         Mmfair_core.Redundancy_fn.as_custom (Network.vfn net i)))

(* Replay [trace] per-event on a fresh engine, scratch-checking every
   step at 1e-9, round-trip the trace through the renderer/parsers,
   then re-run the coalescing + multicore gates for each batch size.
   [bisection] replays on [bisection_net net]; the round trip renders
   [net] itself, since a Custom function has no .net syntax. *)
let replay_case ~case ~bisection ~batch_sizes ~domain_counts net trace =
  let solve_net = if bisection then bisection_net net else net in
  match Batch.create_result solve_net with
  | Error e -> fail_case ~case "initial solve errored: %s" (Solver_error.to_string e)
  | Ok eng ->
      let snaps = ref [] in
      List.iteri
        (fun idx event ->
          match Batch.apply_result eng [ event ] with
          | Error e ->
              fail_case ~case "event %d (%s): engine errored: %s" idx
                (Format.asprintf "%a" Event.pp event)
                (Solver_error.to_string e)
          | Ok stats ->
              if stats.Batch.full_solve then incr full_solves;
              if stats.Batch.solves > 1 then incr multi_solves;
              reuse_sum := !reuse_sum +. stats.Batch.reuse_fraction;
              (* Networks and allocations are immutable snapshots;
                 defer the expensive from-scratch checks to one pooled
                 pass after the replay. *)
              snaps :=
                {
                  s_case = case;
                  s_label = Printf.sprintf "event %d (%s)" idx (Format.asprintf "%a" Event.pp event);
                  s_net = Batch.network eng;
                  s_alloc = Batch.allocation eng;
                }
                :: !snaps)
        trace;
      check_snapshots ~counter:events_checked !snaps;
      check_network ~case (Batch.network eng);
      (* The trace must round-trip through the .churn renderer/parser:
         parse the rendered trace against the rendered net, then
         re-render with the parsed name tables — the text must come
         back identical (the parser renumbers nodes by first
         appearance, so index-level equality is not the invariant). *)
      (match Net_parser.parse_string (Net_parser.render net) with
      | exception e -> fail_case ~case "rendered net does not re-parse: %s" (Printexc.to_string e)
      | parsed -> (
          let text = Churn_parser.render trace in
          match Churn_parser.flatten (Churn_parser.parse_items parsed text) with
          | exception e -> fail_case ~case "rendered trace does not re-parse: %s" (Printexc.to_string e)
          | trace' ->
              if Churn_parser.render ~names:parsed trace' <> text then
                fail_case ~case "trace round-trip changed the events"));
      let reference = Batch.allocation eng in
      List.iter
        (fun size -> check_batched ~case ~domain_counts ~size solve_net trace reference)
        batch_sizes

let run_seed ~events ~batch_sizes ~domain_counts seed seed_idx =
  let bisection = seed_idx mod 2 = 1 in
  let case = Printf.sprintf "seed=%Ld engine=%s" seed (if bisection then "bisection" else "auto") in
  let rng = Xoshiro.create ~seed () in
  let net = Random_nets.generate ~rng (net_config rng) in
  let trace =
    Churn_gen.generate ~rng net { Churn_gen.default with Churn_gen.events; max_receivers = 5 }
  in
  replay_case ~case ~bisection ~batch_sizes ~domain_counts net trace

let park_rho = 1e-9
let parked_slots = 32
let max_live = 6

(* Generated-topology cases: the same differential replayed on the
   builder layer's families, with the bench's session placements at
   differential-sized scale (the scratch solve runs after every
   event).  The coalesced-surgery churn path must agree with
   from-scratch solves on fat-tree, power-law and star-of-stars
   graphs, not just on small random nets. *)
let topology_net name =
  match name with
  | "fat-tree" ->
      (* k=4: 16 hosts, 2 edge-confined sessions per host. *)
      let t, specs = Standard_nets.fat_tree ~k:4 ~per_host:2 in
      Network.make t.Builders.graph specs
  | "power-law" ->
      let g, specs = Standard_nets.power_law ~rng:(Xoshiro.create ~seed:7L ()) ~nodes:48 ~attach:2 in
      Network.make g specs
  | "star" ->
      (* Star of stars, 3 clusters of 3 leaves, 30 single-receiver
         sessions per trunk (every third capped at a small rho): one
         saturated trunk carries dozens of sessions, the high-fan-in
         shape of the flow simulator's slot pools, where every member
         of a closure reaches the same binding link. *)
      let t =
        Builders.star_of_stars ~leaves_per_cluster:3 ~clusters:3 ~trunk_capacity:4.0
          ~leaf_capacity:16.0 ()
      in
      let per_trunk = 30 in
      let specs =
        Array.init (3 * per_trunk) (fun s ->
            let rho = if s mod 3 = 0 then 0.02 else Float.infinity in
            Network.session ~rho ~sender:t.Builders.root
              ~receivers:[| t.Builders.leaves.(s / per_trunk).(s mod 3) |]
              ())
      in
      Network.make t.Builders.graph specs
  | "parked-star" ->
      (* The flow simulator's slot pools: 3 clusters of one leaf, 32
         single-receiver slots per trunk, all parked at a negligible
         rho.  Its trace (below) only toggles slots between parked and
         unbounded, so each trunk carries a few live flows and dozens
         of parked slots that stay out of the component. *)
      let t =
        Builders.star_of_stars ~leaves_per_cluster:1 ~clusters:3 ~trunk_capacity:4.0
          ~leaf_capacity:16.0 ()
      in
      Network.make t.Builders.graph
        (Array.init (3 * parked_slots) (fun s ->
             Network.session ~rho:park_rho ~sender:t.Builders.root
               ~receivers:[| t.Builders.leaves.(s / parked_slots).(0) |]
               ()))
  | "headroom" ->
      (* The churn bench's network: shared links far above their load,
         saturation on access links private to one session, so most
         epochs take the restricted-solve path (run_topology bounds the
         full solves). *)
      Standard_nets.churn_bench ()
  | other ->
      raise
        (Arg.Bad
           (Printf.sprintf "unknown topology %S (fat-tree, power-law, star, parked-star, headroom)"
              other))

(* Arrivals and departures as the flow simulator makes them: a random
   slot toggles between parked and unbounded, except that a cluster
   with [max_live] flows live parks one of them instead. *)
let parked_star_trace rng net ~events =
  let m = Network.session_count net in
  let live = Array.make m false in
  let live_in c =
    List.filter (fun s -> live.(s)) (List.init parked_slots (fun k -> (c * parked_slots) + k))
  in
  List.init events (fun _ ->
      let s = Xoshiro.below rng m in
      let s =
        match live_in (s / parked_slots) with
        | flows when (not live.(s)) && List.length flows >= max_live ->
            List.nth flows (Xoshiro.below rng (List.length flows))
        | _ -> s
      in
      live.(s) <- not live.(s);
      Event.Rho_change { session = s; rho = (if live.(s) then Float.infinity else park_rho) })

(* Topologies alternate between the engines by position, except
   parked-star, which always runs under [auto]: bisection wraps every
   link-rate function as [Custom], which no summary pins at ρ, so no
   parked slot would ever stay out of a component. *)
let run_topology ~events ~batch_sizes ~domain_counts name idx =
  let bisection = idx mod 2 = 1 && name <> "parked-star" in
  let case = Printf.sprintf "topology=%s engine=%s" name (if bisection then "bisection" else "auto") in
  let net = topology_net name in
  let rng = Xoshiro.create ~seed:(Int64.of_int (97 + idx)) () in
  let trace =
    if name = "parked-star" then parked_star_trace rng net ~events
    else Churn_gen.generate ~rng net { Churn_gen.default with Churn_gen.events; max_receivers = 5 }
  in
  let full_before = !full_solves and multi_before = !multi_solves in
  replay_case ~case ~bisection ~batch_sizes ~domain_counts net trace;
  (* On headroom the gate must compare restricted solves against full
     ones, not two full solves. *)
  let full = !full_solves - full_before and epochs = List.length trace in
  Printf.printf "%s: %d epochs, %d full solves, %d with more than one solve\n%!" case epochs full
    (!multi_solves - multi_before);
  if name = "headroom" && 2 * full > epochs then
    fail_case ~case "%d of %d epochs took the full-solve path (at most half may)" full epochs

let () =
  let events = ref 500 and seeds = ref [ 41L; 42L; 43L ] in
  let batch_sizes = ref [] and domain_counts = ref [ 1 ] in
  let topologies = ref [] in
  let positive_ints ~what s =
    String.split_on_char ',' s |> List.filter (( <> ) "")
    |> List.map (fun b ->
           let b = int_of_string b in
           if b < 1 then raise (Arg.Bad (what ^ " must be positive"));
           b)
  in
  let spec =
    [
      ("--events", Arg.Set_int events, "N  events per seed (default 500)");
      ( "--seeds",
        Arg.String
          (fun s ->
            seeds := String.split_on_char ',' s |> List.filter (( <> ) "") |> List.map Int64.of_string),
        "S1,S2,...  seeds (default 41,42,43)" );
      ( "--batch-sizes",
        Arg.String (fun s -> batch_sizes := positive_ints ~what:"batch sizes" s),
        "B1,B2,...  also replay each trace coalesced into B-event batches (default: off)" );
      ( "--domains",
        Arg.String (fun s -> domain_counts := positive_ints ~what:"domain counts" s),
        "D1,D2,...  replay each coalesced trace at every pool size, require bitwise-identical \
         allocations, and pool the scratch solves over the largest (default: 1)" );
      ( "--topologies",
        Arg.String
          (fun s -> topologies := String.split_on_char ',' s |> List.filter (( <> ) "")),
        "T1,T2,...  also replay generated-topology cases (fat-tree, power-law, star, \
         parked-star, headroom) with the same gates (default: off)" );
    ]
  in
  Arg.parse spec (fun a -> raise (Arg.Bad ("unexpected argument " ^ a))) "churn_differential [options]";
  if !domain_counts = [] then domain_counts := [ 1 ];
  scratch_domains := List.fold_left Stdlib.max 1 !domain_counts;
  List.iteri
    (fun i seed ->
      run_seed ~events:!events ~batch_sizes:!batch_sizes ~domain_counts:!domain_counts seed i)
    !seeds;
  List.iteri
    (fun i name ->
      run_topology ~events:!events ~batch_sizes:!batch_sizes ~domain_counts:!domain_counts name i)
    !topologies;
  let n = Stdlib.max 1 !events_checked in
  Printf.printf
    "churn: %d events checked over %d seeds (%d full solves, %d with more than one solve, mean \
     reuse %.2f), %d batches, %d failures\n%!"
    !events_checked (List.length !seeds) !full_solves !multi_solves
    (!reuse_sum /. float_of_int n)
    !batches_checked !failures;
  if !failures > 0 then exit 1
