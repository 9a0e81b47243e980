(* Allocator golden: [Allocator.max_min]'s rates, bit for bit (printed
   with %h), on three seeded networks.  The committed
   test/golden/allocator_rates.expected is diffed against this output
   on every `dune runtest`; a change to the water-filling code must
   leave every bit of it alone.

   - mixed-linear: Efficient, Scaled and Additive sessions, finite ρ
     and single-rate cascades, on the linear engine;
   - mixed-bisection: the same sessions plus a [Custom] session and
     non-unit weights, which select the bisection engine and reach the
     [Custom] cells;
   - power-law-128: the benchmark's tiny solve input, one unicast
     session per node of a 128-node Barabási–Albert graph (seed 1). *)

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
let power_law () =
  let g, specs =
    Mmfair_workload.Standard_nets.power_law ~rng:(Xoshiro.create ~seed:1L ()) ~nodes:128 ~attach:2
  in
  Network.make g specs

let print name net =
  let a = Allocator.max_min net in
  Printf.printf "# %s\n" name;
  for i = 0 to Network.session_count net - 1 do
    Printf.printf "S%d" i;
    Array.iter (Printf.printf " %h") (Allocation.rates_of_session a i);
    print_newline ()
  done

let () =
  print "mixed-linear" (mixed ~custom:false);
  print "mixed-bisection" (mixed ~custom:true);
  print "power-law-128" (power_law ())
