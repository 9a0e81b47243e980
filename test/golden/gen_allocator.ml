(* Allocator golden: [Allocator.max_min]'s rates, bit for bit (printed
   with %h), on seeded networks.  The committed
   test/golden/allocator_rates.expected is diffed against this output
   on every `dune runtest`; a change to the water-filling code must
   leave every bit of it alone.

   - mixed-linear: Efficient, Scaled and Additive sessions, finite ρ
     and single-rate cascades, on the linear engine;
   - mixed-bisection: the same sessions plus a [Custom] session and
     non-unit weights, which select the bisection engine and reach the
     [Custom] cells;
   - power-law-128: the benchmark's tiny solve input, one unicast
     session per node of a 128-node Barabási–Albert graph (seed 1);
   - tie-heavy: a balanced tree with one capacity on every link and
     symmetric multi-hop multicast sessions, so that several links
     saturate in one round and several ρ-heap keys tie;
   - full-heap: a tree where every link carries a receiver and every
     receiver has a finite ρ, so both heaps fill to their full size;
   - power-law-2048: the benchmark's full solve input, as one digest
     of its %h lines (2,048 rows are too many to commit);
   - power-law-8192: the same graph family at 8,192 nodes, also as a
     digest, where the link heap is 13 levels deep. *)

module Graph = Mmfair_topology.Graph
module Builders = Mmfair_topology.Builders
module Network = Mmfair_core.Network
module Allocation = Mmfair_core.Allocation
module Allocator = Mmfair_core.Allocator
module Redundancy_fn = Mmfair_core.Redundancy_fn
module Xoshiro = Mmfair_prng.Xoshiro

(* √n·max: monotone and above the max, but not linear. *)
let sqrt_max =
  Redundancy_fn.Custom
    ( "sqrt-max",
      fun rs -> Float.sqrt (float_of_int (List.length rs)) *. List.fold_left Float.max 0.0 rs )

(* Twelve sessions cycling through every session shape the solver
   tells apart; [custom] adds the bisection-only shapes. *)
let mixed ~custom =
  let rng = Xoshiro.create ~seed:24L () in
  let nodes = 20 in
  let g = Builders.random_connected ~rng ~nodes ~extra_links:14 ~cap_lo:1.0 ~cap_hi:10.0 in
  let specs =
    Array.init 12 (fun s ->
        let k = 1 + Xoshiro.below rng 4 in
        let members = Array.init nodes Fun.id in
        Xoshiro.shuffle rng members;
        let sender = members.(0) and receivers = Array.sub members 1 k in
        let weights =
          if custom && (s mod 6 = 1 || s mod 6 >= 4) then Some (Array.init k (fun _ -> Xoshiro.uniform rng 0.5 2.0))
          else None
        in
        let session ?session_type ?rho ?vfn () =
          Network.session ?session_type ?rho ?vfn ?weights ~sender ~receivers ()
        in
        match s mod 6 with
        | 0 -> session ()
        | 1 -> session ~vfn:(Redundancy_fn.Scaled (Xoshiro.uniform rng 1.0 3.0)) ()
        | 2 -> session ~vfn:Redundancy_fn.Additive ()
        | 3 -> session ~session_type:Network.Single_rate ()
        | 4 -> session ~rho:(Xoshiro.uniform rng 0.2 1.5) ()
        | _ ->
            if custom then session ~vfn:sqrt_max ~rho:(Xoshiro.uniform rng 1.0 6.0) ()
            else session ~session_type:Network.Single_rate ~rho:(Xoshiro.uniform rng 0.2 1.5) ())
  in
  Network.make g specs

(* perfbench's solve-powerlaw input at its tiny size. *)
let power_law ~nodes =
  let g, specs = Mmfair_workload.Standard_nets.power_law ~rng:(Xoshiro.create ~seed:1L ()) ~nodes ~attach:2 in
  Network.make g specs

(* A depth-3, fanout-3 tree (27 leaves in nine groups of three) with
   capacity 1 on every link.  Each group is the receiver set of three
   sessions: one from the root (three hops), one from the group's
   level-1 node (two hops, single-rate for every third group) and one
   from the group's level-2 node at ρ 0.1.  The groups are alike, so
   the 27 ρ receivers share one key and freeze in one round, the three
   root links saturate together, and then the 27 leaf links do.  Two
   cross-tree sessions from a leaf to leaves of two other subtrees
   break the symmetry on their own paths. *)
let tie_heavy () =
  let tree = Builders.balanced_tree ~depth:3 ~fanout:3 ~capacity_at:(fun _ -> 1.0) in
  let level = tree.Builders.level_nodes in
  let leaves = level.(3) in
  let group j = Array.sub leaves (3 * j) 3 in
  let per_group =
    List.concat_map
      (fun j ->
        let session_type = if j mod 3 = 2 then Network.Single_rate else Network.Multi_rate in
        [
          Network.session ~sender:tree.Builders.root ~receivers:(group j) ();
          Network.session ~session_type ~sender:level.(1).(j / 3) ~receivers:(group j) ();
          Network.session ~rho:0.1 ~sender:level.(2).(j) ~receivers:(group j) ();
        ])
      (List.init 9 Fun.id)
  in
  let cross =
    List.init 2 (fun k ->
        Network.session ~sender:leaves.(k) ~receivers:[| leaves.(9 + k); leaves.(18 + k) |] ())
  in
  Network.make tree.Builders.graph (Array.of_list (per_group @ cross))

let row_lines net =
  let a = Allocator.max_min net in
  List.init (Network.session_count net) (fun i ->
      let rates = Array.to_list (Allocation.rates_of_session a i) in
      String.concat " " (Printf.sprintf "S%d" i :: List.map (Printf.sprintf "%h") rates))

let print name net =
  Printf.printf "# %s\n" name;
  List.iter print_endline (row_lines net)

let print_digest name net =
  Printf.printf "# %s\n" name;
  print_endline (Digest.to_hex (Digest.string (String.concat "\n" (row_lines net))))

let () =
  print "mixed-linear" (mixed ~custom:false);
  print "mixed-bisection" (mixed ~custom:true);
  print "power-law-128" (power_law ~nodes:128);
  print "tie-heavy" (tie_heavy ());
  print "full-heap" (Mmfair_workload.Standard_nets.full_heap ());
  print_digest "power-law-2048" (power_law ~nodes:2048);
  print_digest "power-law-8192" (power_law ~nodes:8192)
