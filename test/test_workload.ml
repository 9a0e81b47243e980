(* Workload tests: paper network reconstructions and the network
   description parser. *)

module Network = Mmfair_core.Network
module Allocation = Mmfair_core.Allocation
module Graph = Mmfair_topology.Graph
module Paper_nets = Mmfair_workload.Paper_nets
module Net_parser = Mmfair_workload.Net_parser
module Random_nets = Mmfair_workload.Random_nets

let test_figure1_structure () =
  let { Paper_nets.net; link_names } = Paper_nets.figure1 () in
  Alcotest.(check int) "3 sessions" 3 (Network.session_count net);
  Alcotest.(check int) "5 receivers" 5 (Network.receiver_count net);
  Alcotest.(check int) "4 links" 4 (Graph.link_count (Network.graph net));
  Alcotest.(check int) "4 names" 4 (Array.length link_names)

let test_figure1_link_rates () =
  (* The figure labels: l1 (0:0:2), l2 (1:2:0), l3 (0:2:2), l4 (1:1:1). *)
  let { Paper_nets.net; _ } = Paper_nets.figure1 () in
  let alloc = Mmfair_core.Allocator.max_min net in
  let u i j = Allocation.session_link_rate alloc ~session:i ~link:j in
  let check_link j expected =
    List.iteri
      (fun i e -> Alcotest.(check (float 1e-9)) (Printf.sprintf "u_%d,%d" (i + 1) (j + 1)) e (u i j))
      expected
  in
  check_link 0 [ 0.0; 0.0; 2.0 ];
  check_link 1 [ 1.0; 2.0; 0.0 ];
  check_link 2 [ 0.0; 2.0; 2.0 ];
  check_link 3 [ 1.0; 1.0; 1.0 ];
  (* l3, l4 fully utilized; l1, l2 not *)
  Alcotest.(check bool) "l3 full" true (Allocation.fully_utilized alloc 2);
  Alcotest.(check bool) "l4 full" true (Allocation.fully_utilized alloc 3);
  Alcotest.(check bool) "l1 not full" false (Allocation.fully_utilized alloc 0);
  Alcotest.(check bool) "l2 not full" false (Allocation.fully_utilized alloc 1)

let test_figure2_same_paths () =
  (* r1,1 and r2,1 must have identical data-paths (the figure's
     same-path pair). *)
  let { Paper_nets.net; _ } = Paper_nets.figure2 () in
  let p1 = Network.data_path net { Network.session = 0; index = 0 } in
  let p2 = Network.data_path net { Network.session = 1; index = 0 } in
  Alcotest.(check (list int)) "same path sets" (List.sort_uniq compare p1) (List.sort_uniq compare p2)

let test_figure4_redundancy_two_on_shared () =
  let { Paper_nets.net; _ } = Paper_nets.figure4 () in
  let alloc = Mmfair_core.Allocator.max_min net in
  (* shared link l4 has graph id 3 *)
  (match Allocation.link_redundancy alloc ~session:0 ~link:3 with
  | Some r -> Alcotest.(check (float 1e-9)) "redundancy 2 on l4" 2.0 r
  | None -> Alcotest.fail "expected redundancy");
  (* single-receiver links stay efficient *)
  match Allocation.link_redundancy alloc ~session:0 ~link:1 with
  | Some r -> Alcotest.(check (float 1e-9)) "redundancy 1 on l2" 1.0 r
  | None -> Alcotest.fail "expected redundancy"

let test_parser_example () =
  let parsed = Net_parser.parse_string Net_parser.example in
  let net = parsed.Net_parser.net in
  Alcotest.(check int) "2 sessions" 2 (Network.session_count net);
  Alcotest.(check int) "4 links" 4 (Graph.link_count (Network.graph net));
  Alcotest.(check (array string)) "link names" [| "l4"; "l1"; "l2"; "l3" |] parsed.Net_parser.link_names;
  (* the example is figure 2: allocation must match the golden rates *)
  let alloc = Mmfair_core.Allocator.max_min net in
  Alcotest.(check (float 1e-9)) "s1 rate" 2.0 (Allocation.rate alloc { Network.session = 0; index = 0 });
  Alcotest.(check (float 1e-9)) "s2 rate" 3.0 (Allocation.rate alloc { Network.session = 1; index = 0 })

let test_parser_session_attrs () =
  let doc =
    "link l a b 10\nsession s multi rho=2.5 v=1.5 sender=a receivers=b\n"
  in
  let parsed = Net_parser.parse_string doc in
  let net = parsed.Net_parser.net in
  Alcotest.(check (float 0.0)) "rho parsed" 2.5 (Network.rho net 0);
  Alcotest.(check string) "vfn parsed" "scaled(1.5)" (Mmfair_core.Redundancy_fn.name (Network.vfn net 0))

let test_parser_comments_and_blanks () =
  let doc = "# comment\n\nlink l a b 1 # trailing\n\nsession s single sender=a receivers=b\n" in
  let parsed = Net_parser.parse_string doc in
  Alcotest.(check int) "parsed through comments" 1 (Network.session_count parsed.Net_parser.net)

let test_parser_errors () =
  let check_parse_error what doc expected_line =
    match Net_parser.parse_string doc with
    | exception Net_parser.Parse_error (line, _) ->
        Alcotest.(check int) (what ^ " line") expected_line line
    | _ -> Alcotest.fail (what ^ ": expected Parse_error")
  in
  check_parse_error "unknown directive" "frobnicate x\n" 1;
  check_parse_error "bad capacity" "link l a b nope\n" 1;
  check_parse_error "bad session type" "link l a b 1\nsession s dual sender=a receivers=b\n" 2;
  check_parse_error "missing sender" "link l a b 1\nsession s single receivers=b\n" 2;
  (* unknown-node diagnostics now carry the session's own line *)
  check_parse_error "unknown node" "link l a b 1\nsession s single sender=zz receivers=b\n" 2;
  check_parse_error "no links" "session s single sender=a receivers=b\n" 0;
  (* degraded-input hardening: non-finite / non-positive capacities and
     rho are parse errors at the offending line *)
  check_parse_error "zero capacity" "link l a b 0\nsession s single sender=a receivers=b\n" 1;
  check_parse_error "negative capacity" "link l a b -3\nsession s single sender=a receivers=b\n" 1;
  check_parse_error "nan capacity" "link l a b nan\nsession s single sender=a receivers=b\n" 1;
  check_parse_error "inf capacity" "link l a b inf\nsession s single sender=a receivers=b\n" 1;
  check_parse_error "self-loop link" "link l a a 1\nsession s single sender=a receivers=b\n" 1;
  check_parse_error "rho zero" "link l a b 1\nsession s single rho=0 sender=a receivers=b\n" 2;
  check_parse_error "rho nan" "link l a b 1\nsession s single rho=nan sender=a receivers=b\n" 2;
  check_parse_error "v below one" "link l a b 1\nsession s multi v=0.5 sender=a receivers=b\n" 2;
  check_parse_error "colocated receiver" "link l a b 1\nsession s single sender=a receivers=a\n" 2

let test_parser_result () =
  (match Net_parser.parse_string "link l a b nan\nsession s single sender=a receivers=b\n" with
  | _ -> Alcotest.fail "expected Parse_error for NaN capacity"
  | exception Net_parser.Parse_error (line, _) -> Alcotest.(check int) "error on line 1" 1 line);
  let parsed = Net_parser.parse_string Net_parser.example in
  Alcotest.(check int) "example parses" 2 (Network.session_count parsed.Net_parser.net)

let test_random_feasible_allocation () =
  let rng = Mmfair_prng.Xoshiro.create ~seed:55L () in
  for _ = 1 to 50 do
    let net = Random_nets.generate ~rng Random_nets.default in
    let alloc = Random_nets.random_feasible_allocation ~rng net in
    Alcotest.(check bool) "feasible" true (Allocation.is_feasible alloc)
  done

let test_random_nets_config_validation () =
  let rng = Mmfair_prng.Xoshiro.create ~seed:56L () in
  Alcotest.check_raises "max_receivers >= nodes"
    (Invalid_argument "Random_nets: max_receivers must be below nodes") (fun () ->
      ignore
        (Random_nets.generate ~rng { Random_nets.default with Random_nets.nodes = 3; max_receivers = 3 }))

let test_random_nets_respect_probs () =
  (* single_rate_prob = 1 gives all single-rate sessions. *)
  let rng = Mmfair_prng.Xoshiro.create ~seed:57L () in
  let config = { Random_nets.default with Random_nets.single_rate_prob = 1.0; sessions = 5 } in
  let net = Random_nets.generate ~rng config in
  for i = 0 to Network.session_count net - 1 do
    Alcotest.(check bool) "single-rate" true (Network.session_type net i = Network.Single_rate)
  done

let suite =
  [
    Alcotest.test_case "figure 1 structure" `Quick test_figure1_structure;
    Alcotest.test_case "figure 1 session link rates" `Quick test_figure1_link_rates;
    Alcotest.test_case "figure 2 same-path pair" `Quick test_figure2_same_paths;
    Alcotest.test_case "figure 4 redundancy on shared link" `Quick test_figure4_redundancy_two_on_shared;
    Alcotest.test_case "parser example roundtrip" `Quick test_parser_example;
    Alcotest.test_case "parser session attributes" `Quick test_parser_session_attrs;
    Alcotest.test_case "parser comments and blanks" `Quick test_parser_comments_and_blanks;
    Alcotest.test_case "parser errors" `Quick test_parser_errors;
    Alcotest.test_case "parser result API" `Quick test_parser_result;
    Alcotest.test_case "random feasible allocation" `Quick test_random_feasible_allocation;
    Alcotest.test_case "random nets config validation" `Quick test_random_nets_config_validation;
    Alcotest.test_case "random nets respect probabilities" `Quick test_random_nets_respect_probs;
  ]
