(* Certification tests: the bottleneck characterization accepts
   exactly the allocator's output on multi-rate efficient networks and
   rejects perturbations. *)

module Network = Mmfair_core.Network
module Allocator = Mmfair_core.Allocator
module Allocation = Mmfair_core.Allocation
module Certify = Mmfair_core.Certify
module Random_nets = Mmfair_workload.Random_nets

let multi_rate_net seed =
  let rng = Mmfair_prng.Xoshiro.create ~seed:(Int64.of_int seed) () in
  Random_nets.generate ~rng { Random_nets.default with Random_nets.single_rate_prob = 0.0 }

let test_certifies_figure2_multi () =
  let { Mmfair_workload.Paper_nets.net; _ } =
    Mmfair_workload.Paper_nets.figure2 ~session1_type:Network.Multi_rate ()
  in
  match Certify.check (Allocator.max_min net) with
  | Certify.Certified witnesses ->
      Alcotest.(check int) "a witness per receiver" 4 (List.length witnesses);
      (* r1,2's bottleneck is l2 (graph id 1) *)
      let w = List.assoc { Network.session = 0; index = 1 } witnesses in
      Alcotest.(check bool) "r1,2's witness is l2" true (w = Certify.Bottleneck 1)
  | _ -> Alcotest.fail "expected certification"

let test_rho_witness () =
  let g = Mmfair_topology.Graph.create ~nodes:2 in
  ignore (Mmfair_topology.Graph.add_link g 0 1 10.0);
  let net = Network.make g [| Network.session ~rho:2.0 ~sender:0 ~receivers:[| 1 |] () |] in
  match Certify.check (Allocator.max_min net) with
  | Certify.Certified [ (_, Certify.At_rho) ] -> ()
  | _ -> Alcotest.fail "expected an At_rho witness"

let test_rejects_underallocation () =
  let { Mmfair_workload.Paper_nets.net; _ } =
    Mmfair_workload.Paper_nets.figure2 ~session1_type:Network.Multi_rate ()
  in
  (* feasible but wasteful: everybody at 1 *)
  let alloc = Allocation.make net [| [| 1.0; 1.0; 1.0 |]; [| 1.0 |] |] in
  (match Certify.check alloc with
  | Certify.Uncertified missing -> Alcotest.(check int) "all four unjustified" 4 (List.length missing)
  | _ -> Alcotest.fail "expected Uncertified");
  Alcotest.(check bool) "not max-min" false (Certify.is_max_min alloc)

let test_rejects_infeasible () =
  let { Mmfair_workload.Paper_nets.net; _ } =
    Mmfair_workload.Paper_nets.figure2 ~session1_type:Network.Multi_rate ()
  in
  let alloc = Allocation.make net [| [| 9.0; 9.0; 9.0 |]; [| 9.0 |] |] in
  match Certify.check alloc with
  | Certify.Infeasible violations -> Alcotest.(check bool) "violations listed" true (violations <> [])
  | _ -> Alcotest.fail "expected Infeasible"

let test_rejects_single_rate_networks () =
  let { Mmfair_workload.Paper_nets.net; _ } = Mmfair_workload.Paper_nets.figure2 () in
  Alcotest.check_raises "single-rate unsupported"
    (Invalid_argument "Certify: all sessions must be multi-rate") (fun () ->
      ignore (Certify.check (Allocator.max_min net)))

let test_rejects_weighted_networks () =
  (* Weights 1 and 2 on one capacity-3 link: the weighted max-min fair
     (1, 2) is not max-min fair on raw rates, so the raw-rate witness
     does not apply and Certify must refuse rather than answer. *)
  let g = Mmfair_topology.Graph.create ~nodes:2 in
  ignore (Mmfair_topology.Graph.add_link g 0 1 3.0);
  let s w = Network.session ~weights:[| w |] ~sender:0 ~receivers:[| 1 |] () in
  let net = Network.make g [| s 1.0; s 2.0 |] in
  let alloc = Allocator.max_min net in
  Alcotest.(check bool) "weighted max-min fair" true (Mmfair_core.Weighted.holds_all ~eps:1e-6 alloc);
  Alcotest.check_raises "weighted unsupported" (Invalid_argument "Certify: weights must be 1")
    (fun () -> ignore (Certify.check alloc))

let qcheck_certifies_allocator_output =
  QCheck.Test.make ~name:"the allocator's output is always certified" ~count:150
    QCheck.(int_range 0 100_000)
    (fun seed ->
      let net = multi_rate_net seed in
      Certify.is_max_min ~eps:1e-6 (Allocator.max_min net))

let qcheck_rejects_scaled_down =
  QCheck.Test.make ~name:"scaling the MMF allocation down loses the certificate" ~count:100
    QCheck.(int_range 0 100_000)
    (fun seed ->
      let net = multi_rate_net seed in
      let mmf = Allocator.max_min net in
      let scaled =
        Allocation.make net
          (Array.init (Network.session_count net) (fun i ->
               Array.map (fun a -> a /. 2.0) (Allocation.rates_of_session mmf i)))
      in
      (* halving every rate keeps feasibility but kills every
         bottleneck, unless all rates were zero or rho-pinned *)
      let any_positive_unpinned =
        Array.exists
          (fun (r : Network.receiver_id) ->
            let rho = Network.rho net r.Network.session in
            Allocation.rate mmf r > 1e-6
            && not (Float.is_finite rho && Allocation.rate scaled r >= rho -. 1e-9))
          (Network.all_receivers net)
      in
      (not any_positive_unpinned) || not (Certify.is_max_min ~eps:1e-6 scaled))

let suite =
  [
    Alcotest.test_case "certifies figure 2 (multi-rate)" `Quick test_certifies_figure2_multi;
    Alcotest.test_case "rho witness" `Quick test_rho_witness;
    Alcotest.test_case "rejects under-allocation" `Quick test_rejects_underallocation;
    Alcotest.test_case "rejects infeasible" `Quick test_rejects_infeasible;
    Alcotest.test_case "rejects single-rate networks" `Quick test_rejects_single_rate_networks;
    QCheck_alcotest.to_alcotest qcheck_certifies_allocator_output;
    QCheck_alcotest.to_alcotest qcheck_rejects_scaled_down;
    Alcotest.test_case "rejects weighted networks" `Quick test_rejects_weighted_networks;
  ]
