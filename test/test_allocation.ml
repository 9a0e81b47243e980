(* Allocation and redundancy-function tests: link usage semantics,
   feasibility, Definition 3 redundancy. *)

module Graph = Mmfair_topology.Graph
module Network = Mmfair_core.Network
module Allocation = Mmfair_core.Allocation
module Redundancy_fn = Mmfair_core.Redundancy_fn

let feq ?(eps = 1e-9) what a b =
  Alcotest.(check bool) (Printf.sprintf "%s: %g vs %g" what a b) true (Float.abs (a -. b) <= eps)

(* --- Redundancy_fn --- *)

let test_vfn_efficient () =
  feq "max" 3.0 (Redundancy_fn.apply Redundancy_fn.Efficient [ 1.0; 3.0; 2.0 ]);
  feq "empty" 0.0 (Redundancy_fn.apply Redundancy_fn.Efficient [])

let test_vfn_scaled () =
  feq "scaled" 6.0 (Redundancy_fn.apply (Redundancy_fn.Scaled 2.0) [ 1.0; 3.0 ]);
  Alcotest.check_raises "scale below 1"
    (Invalid_argument "Redundancy_fn.apply: Scaled factor must be >= 1") (fun () ->
      ignore (Redundancy_fn.apply (Redundancy_fn.Scaled 0.5) [ 1.0 ]))

let test_vfn_additive () = feq "sum" 6.0 (Redundancy_fn.apply Redundancy_fn.Additive [ 1.0; 3.0; 2.0 ])

let test_vfn_custom_clamped () =
  (* Custom functions below max are clamped up to max. *)
  let bad = Redundancy_fn.Custom ("undershoot", fun _ -> 0.0) in
  feq "clamped to max" 3.0 (Redundancy_fn.apply bad [ 1.0; 3.0 ])

let test_vfn_dominates () =
  Alcotest.(check bool) "scaled dominates efficient" true
    (Redundancy_fn.dominates (Redundancy_fn.Scaled 2.0) Redundancy_fn.Efficient [ 1.0; 2.0 ]);
  Alcotest.(check bool) "efficient does not dominate scaled" false
    (Redundancy_fn.dominates Redundancy_fn.Efficient (Redundancy_fn.Scaled 2.0) [ 1.0; 2.0 ])

let test_vfn_is_linear () =
  Alcotest.(check bool) "efficient linear" true (Redundancy_fn.is_linear Redundancy_fn.Efficient);
  Alcotest.(check bool) "custom not" false
    (Redundancy_fn.is_linear (Redundancy_fn.Custom ("x", fun _ -> 1.0)))

let qcheck_vfn_as_custom =
  (* Wrapping a linear shape as Custom keeps every rate bit for bit
     (the Custom clamp at the max is a no-op on max, k·max with k >= 1
     and sum) but hides the shape from the linear engine. *)
  QCheck.Test.make ~name:"as_custom keeps apply, drops is_linear" ~count:300
    QCheck.(triple (int_range 0 2) (float_range 1.0 4.0) (small_list (float_range 0.0 100.0)))
    (fun (shape, k, rates) ->
      let v =
        match shape with
        | 0 -> Redundancy_fn.Efficient
        | 1 -> Redundancy_fn.Scaled k
        | _ -> Redundancy_fn.Additive
      in
      let c = Redundancy_fn.as_custom v in
      let n = List.length rates in
      let get = List.nth rates in
      Redundancy_fn.apply c rates = Redundancy_fn.apply v rates
      && Redundancy_fn.apply_fold c ~n ~get = Redundancy_fn.apply_fold v ~n ~get
      && Redundancy_fn.name c = Redundancy_fn.name v
      && Redundancy_fn.is_linear v
      && not (Redundancy_fn.is_linear c))

(* --- Allocation --- *)

(* 0 -l0(6)- 1; receivers r0,0@2 via l1, r0,1@3 via l2; S1 unicast @2. *)
let diamond ?(vfn = Redundancy_fn.Efficient) ?(s0_type = Network.Multi_rate) () =
  let g = Graph.create ~nodes:4 in
  let _l0 = Graph.add_link g 0 1 6.0 in
  let _l1 = Graph.add_link g 1 2 5.0 in
  let _l2 = Graph.add_link g 1 3 5.0 in
  let s0 = Network.session ~session_type:s0_type ~vfn ~sender:0 ~receivers:[| 2; 3 |] () in
  let s1 = Network.session ~sender:0 ~receivers:[| 2 |] () in
  Network.make g [| s0; s1 |]

let test_session_link_rate_max () =
  let net = diamond () in
  let alloc = Allocation.make net [| [| 2.0; 3.0 |]; [| 1.0 |] |] in
  feq "u_{0,l0} = max" 3.0 (Allocation.session_link_rate alloc ~session:0 ~link:0);
  feq "u_{0,l1}" 2.0 (Allocation.session_link_rate alloc ~session:0 ~link:1);
  feq "u_{1,l0}" 1.0 (Allocation.session_link_rate alloc ~session:1 ~link:0);
  feq "u_{1,l2} = 0 (not on path)" 0.0 (Allocation.session_link_rate alloc ~session:1 ~link:2);
  feq "u_l0 = sum of sessions" 4.0 (Allocation.link_rate alloc 0)

let test_session_link_rate_additive () =
  let net = diamond ~vfn:Redundancy_fn.Additive () in
  let alloc = Allocation.make net [| [| 2.0; 3.0 |]; [| 1.0 |] |] in
  feq "additive on shared" 5.0 (Allocation.session_link_rate alloc ~session:0 ~link:0)

let test_link_redundancy () =
  let net = diamond ~vfn:(Redundancy_fn.Scaled 1.5) () in
  let alloc = Allocation.make net [| [| 2.0; 3.0 |]; [| 1.0 |] |] in
  (match Allocation.link_redundancy alloc ~session:0 ~link:0 with
  | Some r -> feq "redundancy = 1.5" 1.5 r
  | None -> Alcotest.fail "expected redundancy");
  Alcotest.(check bool) "no receivers -> None" true
    (Allocation.link_redundancy alloc ~session:1 ~link:2 = None)

let test_feasibility_ok () =
  let net = diamond () in
  Alcotest.(check bool) "feasible" true
    (Allocation.is_feasible (Allocation.make net [| [| 2.0; 3.0 |]; [| 1.0 |] |]))

let test_feasibility_overload () =
  let net = diamond () in
  let alloc = Allocation.make net [| [| 5.0; 3.0 |]; [| 4.0 |] |] in
  (* l0: max(5,3) + 4 = 9 > 6 *)
  let violations = Allocation.feasibility_violations alloc in
  Alcotest.(check bool) "overutilized l0" true
    (List.exists (function Allocation.Link_overutilized 0 -> true | _ -> false) violations)

let test_feasibility_rho () =
  let g = Graph.create ~nodes:2 in
  ignore (Graph.add_link g 0 1 10.0);
  let net = Network.make g [| Network.session ~rho:2.0 ~sender:0 ~receivers:[| 1 |] () |] in
  let alloc = Allocation.make net [| [| 3.0 |] |] in
  let violations = Allocation.feasibility_violations alloc in
  Alcotest.(check bool) "rho exceeded" true
    (List.exists (function Allocation.Rate_above_rho _ -> true | _ -> false) violations)

let test_feasibility_single_rate () =
  let net = diamond ~s0_type:Network.Single_rate () in
  let alloc = Allocation.make net [| [| 2.0; 3.0 |]; [| 1.0 |] |] in
  let violations = Allocation.feasibility_violations alloc in
  Alcotest.(check bool) "unequal single-rate" true
    (List.exists (function Allocation.Single_rate_mismatch 0 -> true | _ -> false) violations)

let test_make_shape_mismatch () =
  let net = diamond () in
  Alcotest.check_raises "wrong receiver count"
    (Invalid_argument "Allocation.make: receiver count mismatch in session 0") (fun () ->
      ignore (Allocation.make net [| [| 1.0 |]; [| 1.0 |] |]))

let test_make_negative_rate () =
  let net = diamond () in
  Alcotest.check_raises "negative rate" (Invalid_argument "Allocation.make: bad rate in session 0")
    (fun () -> ignore (Allocation.make net [| [| -1.0; 0.0 |]; [| 0.0 |] |]))

(* The solver's constructor checks each row as [make] does, with its
   messages, and keeps the very rows it is handed. *)
let test_of_fresh_rows_rejects () =
  let net = diamond () in
  let of_rows rows = ignore (Allocation.of_fresh_rows net (Array.get rows)) in
  Alcotest.check_raises "NaN rate" (Invalid_argument "Allocation.make: bad rate in session 1")
    (fun () -> of_rows [| [| 1.0; 2.0 |]; [| Float.nan |] |]);
  Alcotest.check_raises "negative rate" (Invalid_argument "Allocation.make: bad rate in session 0")
    (fun () -> of_rows [| [| 1.0; -0.5 |]; [| 1.0 |] |]);
  Alcotest.check_raises "row length"
    (Invalid_argument "Allocation.make: receiver count mismatch in session 1") (fun () ->
      of_rows [| [| 1.0; 2.0 |]; [| 1.0; 1.0 |] |])

let test_of_fresh_rows_adopts () =
  let net = diamond () in
  let rows = [| [| 2.0; 3.0 |]; [| 1.0 |] |] in
  let adopted = Allocation.of_fresh_rows net (Array.get rows) in
  let copied = Allocation.make net rows in
  Array.iteri
    (fun i row ->
      Alcotest.(check bool) "of_fresh_rows adopts" true
        (Allocation.unsafe_rates_of_session adopted i == row);
      Alcotest.(check bool) "make copies" false (Allocation.unsafe_rates_of_session copied i == row))
    rows

let test_ordered_vector () =
  let net = diamond () in
  let alloc = Allocation.make net [| [| 3.0; 1.0 |]; [| 2.0 |] |] in
  Alcotest.(check (array (float 0.0))) "sorted" [| 1.0; 2.0; 3.0 |] (Allocation.ordered_vector alloc)

let test_zero_feasible () =
  let net = diamond () in
  Alcotest.(check bool) "zero always feasible" true (Allocation.is_feasible (Allocation.zero net));
  feq "zero throughput" 0.0 (Allocation.total_throughput (Allocation.zero net))

let test_fully_utilized () =
  let net = diamond () in
  let alloc = Allocation.make net [| [| 2.0; 3.0 |]; [| 3.0 |] |] in
  (* l0: max(2,3) + 3 = 6 = capacity; l2 carries only r0,1 at 3 < 5 *)
  Alcotest.(check bool) "l0 full" true (Allocation.fully_utilized alloc 0);
  Alcotest.(check bool) "l2 not full" false (Allocation.fully_utilized alloc 2)

let suite =
  [
    Alcotest.test_case "vfn efficient" `Quick test_vfn_efficient;
    Alcotest.test_case "vfn scaled" `Quick test_vfn_scaled;
    Alcotest.test_case "vfn additive" `Quick test_vfn_additive;
    Alcotest.test_case "vfn custom clamped" `Quick test_vfn_custom_clamped;
    Alcotest.test_case "vfn dominates" `Quick test_vfn_dominates;
    Alcotest.test_case "vfn is_linear" `Quick test_vfn_is_linear;
    QCheck_alcotest.to_alcotest qcheck_vfn_as_custom;
    Alcotest.test_case "session link rate (max)" `Quick test_session_link_rate_max;
    Alcotest.test_case "session link rate (additive)" `Quick test_session_link_rate_additive;
    Alcotest.test_case "link redundancy" `Quick test_link_redundancy;
    Alcotest.test_case "feasibility ok" `Quick test_feasibility_ok;
    Alcotest.test_case "feasibility overload" `Quick test_feasibility_overload;
    Alcotest.test_case "feasibility rho" `Quick test_feasibility_rho;
    Alcotest.test_case "feasibility single-rate" `Quick test_feasibility_single_rate;
    Alcotest.test_case "make shape mismatch" `Quick test_make_shape_mismatch;
    Alcotest.test_case "make negative rate" `Quick test_make_negative_rate;
    Alcotest.test_case "of_fresh_rows rejects bad rows" `Quick test_of_fresh_rows_rejects;
    Alcotest.test_case "of_fresh_rows adopts its rows" `Quick test_of_fresh_rows_adopts;
    Alcotest.test_case "ordered vector" `Quick test_ordered_vector;
    Alcotest.test_case "zero allocation" `Quick test_zero_feasible;
    Alcotest.test_case "fully utilized" `Quick test_fully_utilized;
  ]
