(* mmfair: command-line driver for the SIGCOMM'99 multicast-layering
   fairness reproduction.  One subcommand per paper figure plus an
   `allocate` command for user-supplied networks. *)

open Cmdliner
module Network = Mmfair_core.Network
module Allocation = Mmfair_core.Allocation
module Allocator = Mmfair_core.Allocator
module Properties = Mmfair_core.Properties
module Solver_error = Mmfair_core.Solver_error
module Graph = Mmfair_topology.Graph
module E = Mmfair_experiments

(* Exit codes (documented in README "Errors & exit codes"): 0 success,
   2 malformed input (parse/validation), 3 solver failure; cmdliner
   keeps its own 124/125 for CLI usage errors. *)
let exit_invalid_input = 2
let exit_solver_error = 3

(* Diagnostics must reach the terminal even though [exit] is imminent:
   always flush stderr before exiting. *)
let die code fmt = Printf.ksprintf (fun s -> Printf.eprintf "%s\n%!" s; exit code) fmt

(* The agreement every incremental-vs-scratch check uses: 1e-9
   relative, absolute below magnitude 1. *)
let agree a b = Float.abs (a -. b) <= 1e-9 *. Stdlib.max 1.0 (Stdlib.max (Float.abs a) (Float.abs b))

(* The client side of churnd's socket, for `mmfair SUBCOMMAND`: retry
   while the daemon boots (no socket file yet, or not yet listening)
   until [connect_timeout] runs out, then ignore SIGPIPE so a dead
   daemon surfaces as EPIPE on our own write (and a clean diagnostic),
   not a fatal signal.  [f] gets the socket and a line reader on it;
   the socket closes when [f] returns. *)
let with_daemon ~subcommand ~connect_timeout path f =
  let deadline = Mmfair_obs.Clock.now_s () +. connect_timeout in
  let rec connect () =
    let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    match Unix.connect fd (Unix.ADDR_UNIX path) with
    | () -> fd
    | exception Unix.Unix_error ((Unix.ENOENT | Unix.ECONNREFUSED), _, _)
      when Mmfair_obs.Clock.now_s () < deadline ->
        (try Unix.close fd with Unix.Unix_error _ -> ());
        Unix.sleepf 0.05;
        connect ()
    | exception Unix.Unix_error (err, _, _) ->
        die exit_invalid_input "mmfair %s: connect %s: %s" subcommand path (Unix.error_message err)
  in
  let fd = connect () in
  (try ignore (Sys.signal Sys.sigpipe Sys.Signal_ignore) with Invalid_argument _ -> ());
  Fun.protect
    ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
    (fun () -> f fd (Mmfair_serve.Line_reader.of_fd fd))

let print_table ~csv table =
  if csv then print_string (E.Table.to_csv table) else E.Table.print table

let tele_term = Telemetry.term

let csv_flag =
  Arg.(value & flag & info [ "csv" ] ~doc:"Emit CSV instead of an ASCII table.")

let seed_arg =
  Arg.(value & opt int64 42L & info [ "seed" ] ~docv:"SEED" ~doc:"PRNG seed (experiments are deterministic per seed).")

let net_file_arg =
  Arg.(required & pos 0 (some file) None & info [] ~docv:"FILE" ~doc:"Network description file.")

let connect_timeout_arg =
  Arg.(value & opt float 5.0
       & info [ "connect-timeout" ] ~docv:"SECONDS" ~doc:"How long to retry connecting while the daemon boots.")

(* ------------------------------------------------------------------ *)

let allocate_cmd =
  let trace = Arg.(value & flag & info [ "trace" ] ~doc:"Narrate the water-filling rounds.") in
  let run tele file trace =
    Telemetry.wrap tele @@ fun () ->
    let parsed = Mmfair_workload.Net_parser.parse_file file in
    let net = parsed.Mmfair_workload.Net_parser.net in
    let result =
      match Allocator.max_min_trace_result net with
      | Ok result -> result
      | Error e -> die exit_solver_error "mmfair allocate: %s" (Solver_error.to_string e)
    in
    if trace then Allocator.pp_trace Format.std_formatter result;
    let alloc = result.Allocator.allocation in
    let g = Network.graph net in
    let receiver_rows =
      Array.to_list
        (Array.map
           (fun (r : Network.receiver_id) ->
             let session = parsed.Mmfair_workload.Net_parser.session_names.(r.Network.session) in
             let bottlenecks =
               Allocator.bottleneck_links alloc r
               |> List.map (fun l -> parsed.Mmfair_workload.Net_parser.link_names.(l))
               |> String.concat ","
             in
             let unbottlenecked =
               let rho = Network.rho net r.Network.session in
               if Float.is_finite rho && Allocation.rate alloc r >= rho -. 1e-9 then "(rho)"
               else "(single-rate coupling)"
             in
             [
               Printf.sprintf "%s[%d]" session (r.Network.index + 1);
               E.Table.cell_f (Allocation.rate alloc r);
               (if bottlenecks = "" then unbottlenecked else bottlenecks);
             ])
           (Network.all_receivers net))
    in
    print_table ~csv:false
      (E.Table.make ~title:"Max-min fair receiver rates" ~columns:[ "receiver"; "rate"; "bottlenecks" ]
         receiver_rows);
    let link_rows =
      List.map
        (fun l ->
          [
            parsed.Mmfair_workload.Net_parser.link_names.(l);
            E.Table.cell_f (Allocation.link_rate alloc l);
            E.Table.cell_f (Graph.capacity g l);
            (if Allocation.fully_utilized alloc l then "full" else "");
          ])
        (Graph.links g)
    in
    print_table ~csv:false
      (E.Table.make ~title:"Link utilization" ~columns:[ "link"; "rate"; "capacity"; "" ] link_rows);
    Properties.pp_report Format.std_formatter (Properties.check_all alloc)
  in
  let doc = "compute the max-min fair allocation of a network description file" in
  let man =
    [
      `S Manpage.s_description;
      `P "The file format (# comments allowed):";
      `Pre Mmfair_workload.Net_parser.example;
    ]
  in
  Cmd.v (Cmd.info "allocate" ~doc ~man) Term.(const run $ tele_term $ net_file_arg $ trace)

let dot_cmd =
  let run tele file =
    Telemetry.wrap tele @@ fun () ->
    let parsed = Mmfair_workload.Net_parser.parse_file file in
    print_string (Graph.to_dot (Network.graph parsed.Mmfair_workload.Net_parser.net))
  in
  Cmd.v
    (Cmd.info "dot" ~doc:"export a network description file as Graphviz DOT")
    Term.(const run $ tele_term $ net_file_arg)

let example_net_cmd =
  let run tele = Telemetry.wrap tele @@ fun () -> print_string Mmfair_workload.Net_parser.example in
  Cmd.v
    (Cmd.info "example-net" ~doc:"print an example network description (the paper's Figure 2)")
    Term.(const run $ tele_term)

(* Generated topologies with placed sessions, emitted in the network
   description format so the output pipes straight into `mmfair
   allocate` / `mmfair dot` / churn traces.  Placements mirror the
   scaling bench's: fat-tree sessions stay inside their edge switch's
   host group, power-law sessions run node -> first neighbor, and
   star-of-stars carries one multicast session from the root to every
   leaf (the paper's shared-trunk shape). *)
let topo_cmd =
  let module Builders = Mmfair_topology.Builders in
  let kind_conv =
    Arg.enum
      [ ("fat-tree", `Fat_tree); ("power-law", `Power_law); ("star-of-stars", `Star_of_stars) ]
  in
  let kind =
    Arg.(required & pos 0 (some kind_conv) None
         & info [] ~docv:"KIND"
             ~doc:"Topology family: $(b,fat-tree), $(b,power-law) or $(b,star-of-stars).")
  in
  let k =
    Arg.(value & opt int 8 & info [ "k" ] ~docv:"K" ~doc:"Fat tree: pod arity (even, at least 4).")
  in
  let per_host =
    Arg.(value & opt int 1
         & info [ "per-host" ] ~docv:"N" ~doc:"Fat tree: single-receiver sessions per host.")
  in
  let nodes =
    Arg.(value & opt int 1024 & info [ "nodes" ] ~docv:"N" ~doc:"Power law: node count.")
  in
  let attach =
    Arg.(value & opt int 2
         & info [ "attach" ] ~docv:"M" ~doc:"Power law: links each newcomer attaches with.")
  in
  let clusters =
    Arg.(value & opt int 8 & info [ "clusters" ] ~docv:"C" ~doc:"Star of stars: cluster count.")
  in
  let leaves =
    Arg.(value & opt int 1
         & info [ "leaves" ] ~docv:"L" ~doc:"Star of stars: leaves per cluster.")
  in
  let out =
    Arg.(value & opt (some string) None
         & info [ "o"; "out" ] ~docv:"FILE" ~doc:"Write the description to $(docv) instead of stdout.")
  in
  let run tele kind k per_host nodes attach clusters leaves seed out =
    Telemetry.wrap tele @@ fun () ->
    let graph, specs =
      match kind with
      | `Fat_tree ->
          if k < 4 || k mod 2 <> 0 then
            die exit_invalid_input "mmfair topo: fat-tree needs an even -k >= 4 (got %d)" k;
          if per_host < 0 then
            die exit_invalid_input "mmfair topo: --per-host must be >= 0 (got %d)" per_host;
          let t = Builders.fat_tree ~k () in
          let half = k / 2 in
          let hosts = t.Builders.hosts in
          (* Sibling under the same edge switch, rotating through the
             host group so repeated sessions from one host spread out. *)
          let peer h j =
            let base = h / half * half in
            base + ((h - base + 1 + (j mod (half - 1))) mod half)
          in
          let specs =
            Array.init
              (Array.length hosts * per_host)
              (fun s ->
                let h = s / per_host and j = s mod per_host in
                Network.session ~sender:hosts.(h) ~receivers:[| hosts.(peer h j) |] ())
          in
          (t.Builders.graph, specs)
      | `Power_law ->
          let rng = Mmfair_prng.Xoshiro.create ~seed () in
          let t =
            try Builders.power_law ~rng ~nodes ~attach ~cap_lo:1.0 ~cap_hi:4.0
            with Invalid_argument msg -> die exit_invalid_input "mmfair topo: %s" msg
          in
          let g = t.Builders.graph in
          let specs =
            Array.init nodes (fun v ->
                match Graph.neighbors g v with
                | (u, _) :: _ -> Network.session ~sender:v ~receivers:[| u |] ()
                | [] -> die exit_invalid_input "mmfair topo: isolated node %d" v)
          in
          (g, specs)
      | `Star_of_stars ->
          let t =
            try
              Builders.star_of_stars ~clusters ~leaves_per_cluster:leaves ~trunk_capacity:4.0
                ~leaf_capacity:1.0 ()
            with Invalid_argument msg -> die exit_invalid_input "mmfair topo: %s" msg
          in
          let receivers = Array.concat (Array.to_list t.Builders.leaves) in
          (t.Builders.graph, [| Network.session ~sender:t.Builders.root ~receivers () |])
    in
    let net = Network.make graph specs in
    let doc = Mmfair_workload.Net_parser.render net in
    (match out with
    | None -> print_string doc
    | Some file ->
        let oc = open_out file in
        output_string oc doc;
        close_out oc);
    Printf.eprintf "mmfair topo: %d nodes, %d links, %d sessions, %d receivers\n%!"
      (Graph.node_count graph) (Graph.link_count graph) (Network.session_count net)
      (Network.receiver_count net)
  in
  let doc = "generate a fat-tree, power-law or star-of-stars network description" in
  let man =
    [
      `S Manpage.s_description;
      `P "Emits a network description (the `mmfair allocate` input format) for one of the \
          generated topology families, with sessions already placed: fat-tree confines each \
          session to its edge switch's host group, power-law sends each node to its first \
          neighbor, star-of-stars multicasts from the root to every leaf.";
    ]
  in
  Cmd.v (Cmd.info "topo" ~doc ~man)
    Term.(const run $ tele_term $ kind $ k $ per_host $ nodes $ attach $ clusters $ leaves
          $ seed_arg $ out)

(* ------------------------------------------------------------------ *)

let fig1_cmd =
  let run tele =
    Telemetry.wrap tele @@ fun () ->
    let o = E.Fig_examples.run_figure1 () in
    E.Table.print o.E.Fig_examples.table
  in
  Cmd.v (Cmd.info "fig1" ~doc:"reproduce Figure 1 (multi-rate max-min fair example)")
    Term.(const run $ tele_term)

let fig2_cmd =
  let multi = Arg.(value & flag & info [ "multi" ] ~doc:"Make S1 multi-rate instead of single-rate.") in
  let run tele multi =
    Telemetry.wrap tele @@ fun () ->
    let session1_type = if multi then Network.Multi_rate else Network.Single_rate in
    let o = E.Fig_examples.run_figure2 ~session1_type () in
    E.Table.print o.E.Fig_examples.table;
    Properties.pp_report Format.std_formatter o.E.Fig_examples.properties
  in
  Cmd.v (Cmd.info "fig2" ~doc:"reproduce Figure 2 (single-rate sessions break fairness properties)")
    Term.(const run $ tele_term $ multi)

let fig3_cmd =
  let run tele =
    Telemetry.wrap tele @@ fun () ->
    let a = E.Fig_examples.run_figure3a () in
    E.Table.print a.E.Fig_examples.table;
    let b = E.Fig_examples.run_figure3b () in
    E.Table.print b.E.Fig_examples.table
  in
  Cmd.v (Cmd.info "fig3" ~doc:"reproduce Figure 3 (receiver removal moves fair rates both ways)")
    Term.(const run $ tele_term)

let fig4_cmd =
  let run tele =
    Telemetry.wrap tele @@ fun () ->
    let o = E.Fig_examples.run_figure4 () in
    E.Table.print o.E.Fig_examples.table;
    Properties.pp_report Format.std_formatter o.E.Fig_examples.properties
  in
  Cmd.v (Cmd.info "fig4" ~doc:"reproduce Figure 4 (redundancy breaks session-perspective fairness)")
    Term.(const run $ tele_term)

let fig5_cmd =
  let simulate =
    Arg.(value & flag & info [ "simulate" ] ~doc:"Add Monte-Carlo cross-checks next to the closed form.")
  in
  let run tele simulate csv seed =
    Telemetry.wrap tele @@ fun () ->
    print_table ~csv (E.Fig5_random_joins.to_table (E.Fig5_random_joins.run ~simulate ~seed ()))
  in
  Cmd.v (Cmd.info "fig5" ~doc:"reproduce Figure 5 (single-layer redundancy under random joins)")
    Term.(const run $ tele_term $ simulate $ csv_flag $ seed_arg)

let fig6_cmd =
  let sessions =
    Arg.(value & opt int 100 & info [ "sessions" ] ~docv:"N" ~doc:"Sessions sharing the bottleneck.")
  in
  let run tele sessions csv =
    Telemetry.wrap tele @@ fun () ->
    print_table ~csv (E.Fig6_fair_rate.to_table (E.Fig6_fair_rate.run ~sessions ()))
  in
  Cmd.v (Cmd.info "fig6" ~doc:"reproduce Figure 6 (fair rate vs redundancy)")
    Term.(const run $ tele_term $ sessions $ csv_flag)

let scale_conv =
  Arg.enum [ ("quick", E.Fig8_protocols.quick_scale); ("paper", E.Fig8_protocols.paper_scale) ]

let fig8_cmd =
  let shared =
    Arg.(value & opt float 0.0001 & info [ "shared" ] ~docv:"P" ~doc:"Shared-link loss rate (paper: 0.0001 and 0.05).")
  in
  let scale =
    Arg.(value & opt scale_conv E.Fig8_protocols.quick_scale
         & info [ "scale" ] ~docv:"SCALE" ~doc:"quick (seconds) or paper (the full 100x100k x30 sweep).")
  in
  let domains =
    Arg.(value & opt int 1 & info [ "domains" ] ~docv:"N" ~doc:"Parallel domains for the replicate runs.")
  in
  let run tele shared scale domains csv seed =
    Telemetry.wrap tele @@ fun () ->
    let curves = E.Fig8_protocols.run ~scale ~domains ~shared_loss:shared ~seed () in
    print_table ~csv (E.Fig8_protocols.to_table ~shared_loss:shared curves)
  in
  Cmd.v (Cmd.info "fig8" ~doc:"reproduce Figure 8 (protocol redundancy vs independent loss)")
    Term.(const run $ tele_term $ shared $ scale $ domains $ csv_flag $ seed_arg)

let markov_cmd =
  let shared =
    Arg.(value & opt float 0.0001 & info [ "shared" ] ~docv:"P" ~doc:"Shared-link loss rate.")
  in
  let layers = Arg.(value & opt int 4 & info [ "layers" ] ~docv:"M" ~doc:"Layers (exact chains; keep small).") in
  let run tele shared layers =
    Telemetry.wrap tele @@ fun () ->
    List.iter
      (fun grid ->
        E.Table.print (E.Markov_redundancy.to_table grid);
        Printf.printf "equal-loss maximizes redundancy: %b\n\n"
          (E.Markov_redundancy.equal_loss_dominates grid))
      (E.Markov_redundancy.run ~layers ~shared_loss:shared ())
  in
  Cmd.v (Cmd.info "markov" ~doc:"exact 2-receiver Markov analysis of the three protocols (Figure 7a)")
    Term.(const run $ tele_term $ shared $ layers)

let nonexist_cmd =
  let capacity = Arg.(value & opt float 6.0 & info [ "capacity" ] ~docv:"C" ~doc:"Link capacity.") in
  let run tele capacity =
    Telemetry.wrap tele @@ fun () ->
    let o = E.Nonexistence.run ~capacity () in
    E.Table.print o.E.Nonexistence.table;
    Printf.printf "feasible allocations: %d; max-min fair allocation exists: %b\n"
      o.E.Nonexistence.feasible_count o.E.Nonexistence.max_min_exists
  in
  Cmd.v (Cmd.info "nonexist" ~doc:"Section-3 example: fixed layers admit no max-min fair allocation")
    Term.(const run $ tele_term $ capacity)

let replace_cmd =
  let random = Arg.(value & flag & info [ "random" ] ~doc:"Use a random network instead of Figure 2.") in
  let run tele random seed =
    Telemetry.wrap tele @@ fun () ->
    let o = if random then E.Replacement.run_random ~seed () else E.Replacement.run_figure2 () in
    E.Table.print o.E.Replacement.table
  in
  Cmd.v (Cmd.info "replace" ~doc:"Lemma 3 replacement study: single-rate -> multi-rate, step by step")
    Term.(const run $ tele_term $ random $ seed_arg)

let latency_cmd =
  let loss = Arg.(value & opt float 0.03 & info [ "loss" ] ~docv:"P" ~doc:"Fanout-link loss rate.") in
  let run tele loss seed csv =
    Telemetry.wrap tele @@ fun () ->
    let curves = E.Extensions.leave_latency ~seed ~independent_loss:loss () in
    print_table ~csv (E.Extensions.latency_table curves)
  in
  Cmd.v
    (Cmd.info "latency" ~doc:"extension: redundancy vs leave latency (Section-5 prediction)")
    Term.(const run $ tele_term $ loss $ seed_arg $ csv_flag)

let priority_cmd =
  let loss = Arg.(value & opt float 0.03 & info [ "loss" ] ~docv:"P" ~doc:"Fanout-link loss rate.") in
  let run tele loss seed csv =
    Telemetry.wrap tele @@ fun () ->
    let rows = E.Extensions.priority_dropping ~seed ~independent_loss:loss () in
    print_table ~csv (E.Extensions.priority_table rows)
  in
  Cmd.v
    (Cmd.info "priority" ~doc:"extension: uniform vs priority (layer-biased) dropping")
    Term.(const run $ tele_term $ loss $ seed_arg $ csv_flag)

let layers_cmd =
  let receivers =
    Arg.(value & opt int 50 & info [ "receivers" ] ~docv:"N" ~doc:"Receivers sharing the link.")
  in
  let rate = Arg.(value & opt float 0.35 & info [ "rate" ] ~docv:"A" ~doc:"Common receiver rate in (0,1].") in
  let run tele receivers rate csv =
    Telemetry.wrap tele @@ fun () ->
    let pts = E.Extensions.layers_vs_redundancy ~receivers ~rate () in
    print_table ~csv (E.Extensions.layers_table ~receivers ~rate pts)
  in
  Cmd.v
    (Cmd.info "layers" ~doc:"extension (TR App. E): redundancy vs number of layers")
    Term.(const run $ tele_term $ receivers $ rate $ csv_flag)

let tcpfair_cmd =
  let rtts =
    Arg.(value & opt (list float) [ 0.01; 0.02; 0.05; 0.1 ]
         & info [ "rtts" ] ~docv:"R1,R2,..." ~doc:"Round-trip times of the competing flows.")
  in
  let run tele rtts csv =
    Telemetry.wrap tele @@ fun () ->
    let o = E.Extensions.tcp_fairness ~rtts:(Array.of_list rtts) () in
    print_table ~csv o.E.Extensions.table;
    if not csv then
      Printf.printf "weighted fairness properties hold: %b\n" o.E.Extensions.weighted_fair
  in
  Cmd.v
    (Cmd.info "tcpfair" ~doc:"extension: weighted (1/RTT) max-min fairness on a bottleneck")
    Term.(const run $ tele_term $ rtts $ csv_flag)

let session_churn_cmd =
  let sessions = Arg.(value & opt int 4 & info [ "sessions" ] ~docv:"N" ~doc:"Arriving/departing sessions.") in
  let run tele sessions seed csv =
    Telemetry.wrap tele @@ fun () ->
    let o = E.Extensions.churn ~seed ~sessions () in
    print_table ~csv o.E.Extensions.table;
    if not csv then
      Printf.printf "observer rate increases: %d, decreases: %d\n" o.E.Extensions.observer_increases
        o.E.Extensions.observer_decreases
  in
  Cmd.v
    (Cmd.info "session-churn" ~doc:"extension: fair rates under session arrivals and departures")
    Term.(const run $ tele_term $ sessions $ seed_arg $ csv_flag)

(* `mmfair churn`: replay a .churn trace (or a seeded random one)
   through the incremental engine of lib/dynamic.  Both trace sources
   feed one shared driver that applies replay *steps* — lone events or
   coalesced batches (file `batch ... end` blocks, or --coalesce
   re-chunking). *)
let churn_cmd =
  let module Batch = Mmfair_dynamic.Batch in
  let module Churn_parser = Mmfair_workload.Churn_parser in
  let module Churn_gen = Mmfair_workload.Churn_gen in
  let module Net_parser = Mmfair_workload.Net_parser in
  let trace_file =
    Arg.(value & opt (some file) None
         & info [ "replay" ] ~docv:"TRACE" ~doc:"Churn trace file (.churn) to replay.")
  in
  let random_events =
    Arg.(value & opt (some int) None
         & info [ "random" ] ~docv:"N" ~doc:"Generate N random events instead of replaying a file (see --seed).")
  in
  let verify =
    Arg.(value & flag
         & info [ "verify" ] ~doc:"After every step, cross-check the incremental allocation \
                                   against a from-scratch solve (relative 1e-9).")
  in
  let rates = Arg.(value & flag & info [ "rates" ] ~doc:"Also print the final receiver rates.") in
  let domains =
    Arg.(value & opt int 1
         & info [ "domains" ] ~docv:"N"
             ~doc:"Solve each epoch's disjoint fairness components on a pool of N OCaml domains \
                   (default 1 = sequential).  Allocations are identical at every N.")
  in
  let coalesce =
    Arg.(value & opt ~vopt:(Some 16) (some int) None
         & info [ "coalesce" ] ~docv:"N"
             ~doc:"Re-chunk the whole trace into batches of N events (16 when given bare), each \
                   applied as one coalesced epoch (Mmfair_dynamic.Batch).  Overrides any batch \
                   blocks in the file; without this flag, file batch blocks are honored as \
                   written.")
  in
  let run tele net_file trace_file random_events verify rates domains coalesce seed csv =
    Telemetry.wrap tele @@ fun () ->
    if domains < 1 then die exit_invalid_input "mmfair churn: --domains wants a positive count";
    let parsed = Net_parser.parse_file net_file in
    let net = parsed.Net_parser.net in
    let items =
      match (trace_file, random_events) with
      | Some _, Some _ -> die exit_invalid_input "mmfair churn: --replay and --random are exclusive"
      | Some f, None -> Churn_parser.parse_items_file parsed f
      | None, Some n ->
          if n < 0 then die exit_invalid_input "mmfair churn: --random must be non-negative";
          let rng = Mmfair_prng.Xoshiro.create ~seed () in
          List.map
            (fun ev -> Churn_parser.Single ev)
            (Churn_gen.generate ~rng net { Churn_gen.default with Churn_gen.events = n })
      | None, None -> die exit_invalid_input "mmfair churn: give a trace with --replay FILE or --random N"
    in
    (* Replay steps: each inner list is applied as one epoch. *)
    let steps =
      match coalesce with
      | None ->
          List.map (function Churn_parser.Single ev -> [ ev ] | Churn_parser.Batch evs -> evs) items
      | Some n ->
          if n < 1 then die exit_invalid_input "mmfair churn: --coalesce wants a positive batch size";
          let rec chunk acc cur k = function
            | [] -> List.rev (if cur = [] then acc else List.rev cur :: acc)
            | ev :: rest ->
                if k + 1 = n then chunk (List.rev (ev :: cur) :: acc) [] 0 rest
                else chunk acc (ev :: cur) (k + 1) rest
          in
          chunk [] [] 0 (Churn_parser.flatten items)
    in
    let eng =
      match Batch.create_result ~domains net with
      | Ok eng -> eng
      | Error e -> die exit_solver_error "mmfair churn: initial solve: %s" (Solver_error.to_string e)
    in
    let full_solves = ref 0 and reuse_sum = ref 0.0 and divergences = ref 0 in
    let events_total = ref 0 and cancelled_total = ref 0 in
    let rows =
      List.mapi
        (fun idx step ->
          let label =
            match step with
            | [ ev ] -> String.trim (Churn_parser.render ~names:parsed [ ev ])
            | evs -> Printf.sprintf "batch of %d" (List.length evs)
          in
          let stats =
            match Batch.apply_result eng step with
            | Ok s -> s
            | Error e ->
                die exit_solver_error "mmfair churn: step %d (%s): %s" (idx + 1) label
                  (Solver_error.to_string e)
          in
          if stats.Batch.full_solve then incr full_solves;
          reuse_sum := !reuse_sum +. stats.Batch.reuse_fraction;
          events_total := !events_total + stats.Batch.events;
          cancelled_total := !cancelled_total + stats.Batch.cancelled;
          if verify then begin
            let incremental = Batch.allocation eng and now = Batch.network eng in
            match Allocator.max_min_result now with
            | Error e ->
                die exit_solver_error "mmfair churn: step %d (%s): scratch solve: %s" (idx + 1)
                  label (Solver_error.to_string e)
            | Ok scratch ->
                Array.iter
                  (fun r ->
                    if not (agree (Allocation.rate incremental r) (Allocation.rate scratch r)) then begin
                      incr divergences;
                      Printf.eprintf
                        "mmfair churn: step %d (%s): receiver (%d,%d): incremental %.17g vs scratch %.17g\n%!"
                        (idx + 1) label r.Network.session r.Network.index
                        (Allocation.rate incremental r) (Allocation.rate scratch r)
                    end)
                  (Network.all_receivers now)
          end;
          [
            string_of_int (idx + 1);
            label;
            string_of_int stats.Batch.events;
            string_of_int stats.Batch.components;
            string_of_int stats.Batch.component_sessions;
            string_of_int stats.Batch.component_receivers;
            Printf.sprintf "%.2f" stats.Batch.reuse_fraction;
            string_of_int stats.Batch.solves;
            (if stats.Batch.full_solve then "full" else "incremental");
          ])
        steps
    in
    print_table ~csv
      (E.Table.make ~title:"Churn replay (incremental re-solve per step)"
         ~columns:[ "#"; "step"; "events"; "comps"; "comp sess"; "comp recv"; "reuse"; "solves"; "mode" ]
         rows);
    if rates then begin
      let alloc = Batch.allocation eng and now = Batch.network eng in
      (* Post-churn sessions/links line up with the parsed names: churn
         events never add or remove sessions or links. *)
      let rate_rows =
        Array.to_list
          (Array.map
             (fun (r : Network.receiver_id) ->
               [
                 Printf.sprintf "%s[%d]" parsed.Net_parser.session_names.(r.Network.session)
                   (r.Network.index + 1);
                 E.Table.cell_f (Allocation.rate alloc r);
               ])
             (Network.all_receivers now))
      in
      print_table ~csv (E.Table.make ~title:"Final receiver rates" ~columns:[ "receiver"; "rate" ] rate_rows)
    end;
    if not csv then
      Printf.printf
        "steps: %d, events: %d, coalesced away: %d, full solves: %d, mean reuse: %.2f, final epoch: %d\n"
        (List.length steps) !events_total !cancelled_total !full_solves
        (!reuse_sum /. float_of_int (Stdlib.max 1 (List.length steps)))
        (Batch.epoch eng);
    if verify && !divergences > 0 then
      die exit_solver_error "mmfair churn: %d receiver rate(s) diverged from the from-scratch solve"
        !divergences
    else if verify && not csv then print_endline "verify: every step matched the from-scratch solve"
  in
  let doc = "replay a churn trace through the incremental re-solve engine" in
  let man =
    [
      `S Manpage.s_description;
      `P "Replays join/leave/rho/cap events against a network description, re-solving only the \
          affected fairness component after each step (lib/dynamic).  A step is one event, or a \
          $(b,batch ... end) block coalesced into a single union-component re-solve; \
          $(b,--coalesce) re-chunks the whole trace into fixed-size batches instead.  The trace \
          format ($(b,#) comments allowed):";
      `Pre "join SESSION NODE [w=FLOAT]\nleave SESSION NODE\nrho SESSION FLOAT|inf\ncap LINK FLOAT\n\
            batch\n  EVENT...\nend";
      `P "Example (against $(b,mmfair example-net)):";
      `Pre Mmfair_workload.Churn_parser.example;
    ]
  in
  Cmd.v (Cmd.info "churn" ~doc ~man)
    Term.(const run $ tele_term $ net_file_arg $ trace_file $ random_events $ verify $ rates
          $ domains $ coalesce $ seed_arg $ csv_flag)

(* `mmfair churnd`: the serving daemon.  Long-running: ingest .churn
   events from a pipe/FIFO/stdin or a Unix-domain socket, coalesce each
   wakeup's arrivals into one epoch, answer rate/epoch/metrics queries
   (lib/serve).  SIGINT/SIGTERM shut the loop down cleanly; the final
   metrics snapshot can be written to a file on the way out. *)
let churnd_cmd =
  let module Net_parser = Mmfair_workload.Net_parser in
  let module Daemon = Mmfair_serve.Daemon in
  let socket =
    Arg.(value & opt (some string) None
         & info [ "socket" ] ~docv:"PATH"
             ~doc:"Serve a Unix-domain socket at PATH (any number of concurrent clients; an \
                   existing file is replaced, the path is unlinked on shutdown).")
  in
  let input =
    Arg.(value & opt string "-"
         & info [ "input" ] ~docv:"FILE"
             ~doc:"Without --socket: the event stream to serve — a file or FIFO, or - for stdin \
                   (default).  Responses go to stdout.")
  in
  let domains =
    Arg.(value & opt int 1
         & info [ "domains" ] ~docv:"N" ~doc:"Parallel domains for each epoch's component solves.")
  in
  let max_batch =
    Arg.(value & opt int 256
         & info [ "max-batch" ] ~docv:"N" ~doc:"Most events one coalesced epoch may apply.")
  in
  let ack =
    Arg.(value & flag & info [ "ack" ] ~doc:"Answer 'ok epoch N' for every accepted ingestion line.")
  in
  let poll =
    Arg.(value & opt float 0.05
         & info [ "poll-interval" ] ~docv:"SECONDS" ~doc:"Idle wakeup period (stop-flag polling).")
  in
  let write_timeout =
    Arg.(value & opt float 5.0
         & info [ "write-timeout" ] ~docv:"SECONDS"
             ~doc:"Drop a socket client whose full send buffer stalls a response write this long.")
  in
  let snapshot_out =
    Arg.(value & opt (some string) None
         & info [ "snapshot-out" ] ~docv:"FILE"
             ~doc:"Write the final metrics registry snapshot (JSON) to FILE on shutdown.")
  in
  let sample_interval =
    Arg.(value & opt float 1.0
         & info [ "sample-interval" ] ~docv:"SECONDS"
             ~doc:"Time-series sampler cadence; 0 disables sampling (and the series query).")
  in
  let series_out =
    Arg.(value & opt (some string) None
         & info [ "series-out" ] ~docv:"FILE"
             ~doc:"Append every sampler tick to FILE as mmfair.series/v1 JSONL (one header line \
                   per daemon start, one line per tick, flushed per line).")
  in
  let series_capacity =
    Arg.(value & opt int 512
         & info [ "series-capacity" ] ~docv:"N"
             ~doc:"Windows retained per in-memory series before downsampling halves them.")
  in
  let run tele net_file socket input domains max_batch ack poll write_timeout
      snapshot_out sample_interval series_out series_capacity =
    Telemetry.wrap tele @@ fun () ->
    if domains < 1 then die exit_invalid_input "mmfair churnd: --domains wants a positive count";
    if max_batch < 1 then die exit_invalid_input "mmfair churnd: --max-batch wants a positive count";
    if poll <= 0.0 then die exit_invalid_input "mmfair churnd: --poll-interval wants a positive duration";
    if write_timeout <= 0.0 then
      die exit_invalid_input "mmfair churnd: --write-timeout wants a positive duration";
    if series_capacity < 2 then
      die exit_invalid_input "mmfair churnd: --series-capacity wants at least 2 windows";
    let parsed = Net_parser.parse_file net_file in
    let config =
      { Mmfair_serve.Daemon.domains; max_batch; ack; poll_interval = poll;
        write_timeout; sample_interval; series_capacity; series_out }
    in
    let daemon =
      match Daemon.create ~config parsed with
      | Ok d -> d
      | Error e -> die exit_solver_error "mmfair churnd: initial solve: %s" (Solver_error.to_string e)
    in
    let write_snapshot () =
      match snapshot_out with
      | None -> ()
      | Some path ->
          let oc = open_out path in
          Fun.protect
            ~finally:(fun () -> close_out_noerr oc)
            (fun () ->
              output_string oc (Mmfair_obs.Json.to_string (Daemon.snapshot daemon));
              output_char oc '\n')
    in
    (* The snapshot is the daemon's last word: written after the serve
       loop returns (EOF, quit, or SIGINT/SIGTERM via the stop flag) —
       and the engine's shared domain pool tears down later still, at
       its module-init at_exit hook. *)
    Fun.protect ~finally:write_snapshot @@ fun () ->
    match socket with
    | Some path -> Daemon.serve_socket daemon ~path
    | None ->
        let input_fd = if input = "-" then Unix.stdin else Unix.openfile input [ Unix.O_RDONLY ] 0 in
        Fun.protect
          ~finally:(fun () -> if input <> "-" then try Unix.close input_fd with Unix.Unix_error _ -> ())
          (fun () -> Daemon.serve_fd daemon ~input:input_fd ~output:Unix.stdout)
  in
  let doc = "serve churn events and rate queries from a pipe or Unix-domain socket" in
  let man =
    [
      `S Manpage.s_description;
      `P "A long-running loop around the incremental engine of $(b,mmfair churn): events arriving \
          between wakeups coalesce into one epoch (one union-component re-solve per burst), rate \
          and epoch queries flush first so answers are never stale, and malformed lines are \
          rejected with their line number without killing the loop.  The line protocol is the \
          .churn grammar plus queries:";
      `Pre "rate SESSION NODE\nrates\nepoch\nmetrics [json|prom]\nstats\nseries METRIC [WINDOW]\nquit";
      `P "SIGINT/SIGTERM finish the loop cleanly (flush, snapshot, restore signal dispositions); \
          SIGPIPE is ignored while serving.  A sampler walks the metrics registry every \
          $(b,--sample-interval) seconds into fixed-capacity in-memory time series (queryable \
          live via $(b,series), renderable via $(b,mmfair watch)) and, with $(b,--series-out), \
          appends each tick to a JSONL file for offline plotting.  Pair with \
          $(b,mmfair churnd-load) for soak testing.";
    ]
  in
  Cmd.v (Cmd.info "churnd" ~doc ~man)
    Term.(const run $ tele_term $ net_file_arg $ socket $ input $ domains $ max_batch
          $ ack $ poll $ write_timeout $ snapshot_out $ sample_interval $ series_out
          $ series_capacity)

(* `mmfair churnd-load`: load generator and soak harness for churnd.
   Generates a seeded Churn_gen trace; either prints it (pipe mode) or
   drives a live daemon over its socket, optionally verifying the
   daemon's final rates against an offline replay of the same trace. *)
let churnd_load_cmd =
  let module Net_parser = Mmfair_workload.Net_parser in
  let module Churn_parser = Mmfair_workload.Churn_parser in
  let module Churn_gen = Mmfair_workload.Churn_gen in
  let module Batch = Mmfair_dynamic.Batch in
  let module Line_reader = Mmfair_serve.Line_reader in
  let socket =
    Arg.(value & opt (some string) None
         & info [ "socket" ] ~docv:"PATH"
             ~doc:"Connect to a running churnd at PATH and stream the trace; without this, print \
                   the trace to stdout (pipe it to churnd --input -).")
  in
  let events =
    Arg.(value & opt int 200 & info [ "events" ] ~docv:"N" ~doc:"Trace length to generate.")
  in
  let verify =
    Arg.(value & flag
         & info [ "verify" ]
             ~doc:"After streaming, query the daemon's final rates and cross-check them against \
                   an offline replay of the same trace (relative 1e-9).  Needs --socket.")
  in
  let report =
    Arg.(value & flag
         & info [ "report" ]
             ~doc:"Stream line by line, time each ingestion's ack round-trip, and print \
                   client-side end-to-end latency quantiles (p50/p90/p99/max) at the end.  \
                   Needs --socket and a daemon running with --ack.")
  in
  let poisson =
    Arg.(value & opt (some float) None
         & info [ "poisson" ] ~docv:"RATE"
             ~doc:"Open-loop mode: stamp the trace with seeded Poisson arrival instants at RATE \
                   events per second and pace the stream in real time accordingly, instead of \
                   pushing as fast as the socket accepts.  Needs --socket.")
  in
  let run tele net_file socket events verify connect_timeout report poisson seed =
    Telemetry.wrap tele @@ fun () ->
    if events < 0 then die exit_invalid_input "mmfair churnd-load: --events must be non-negative";
    if verify && socket = None then
      die exit_invalid_input "mmfair churnd-load: --verify needs --socket (a live daemon to ask)";
    if report && socket = None then
      die exit_invalid_input "mmfair churnd-load: --report needs --socket (acks to time)";
    if poisson <> None && socket = None then
      die exit_invalid_input "mmfair churnd-load: --poisson needs --socket (a stream to pace)";
    (match poisson with
    | Some r when not (Float.is_finite r && r > 0.0) ->
        die exit_invalid_input "mmfair churnd-load: --poisson rate must be finite and positive"
    | _ -> ());
    let parsed = Net_parser.parse_file net_file in
    let net = parsed.Net_parser.net in
    let rng = Mmfair_prng.Xoshiro.create ~seed () in
    let cfg = { Churn_gen.default with Churn_gen.events } in
    let times, trace =
      match poisson with
      | None -> ([||], Churn_gen.generate ~rng net cfg)
      | Some rate ->
          let timed = Churn_gen.generate_timed ~rng net cfg ~rate in
          (Array.of_list (List.map fst timed), List.map snd timed)
    in
    let rendered = Churn_parser.render ~names:parsed trace in
    match socket with
    | None -> print_string rendered
    | Some path ->
        with_daemon ~subcommand:"churnd-load" ~connect_timeout path @@ fun fd reader ->
        (* --report bookkeeping: each completed ingestion item (a lone
           event line, or a whole batch block at its [end]) pushes its
           send instant; each ack/err response pops one.  The daemon
           answers items in submission order, so FIFO matching gives
           honest per-item round-trips — including the coalescing
           delay, which IS part of end-to-end latency. *)
        let pending_sends : int64 Queue.t = Queue.create () in
        let latencies = ref [] in
        let note_response l =
          if
            report
            && (String.starts_with ~prefix:"ok " l || String.starts_with ~prefix:"err " l)
          then
            match Queue.take_opt pending_sends with
            | Some t0 -> latencies := Mmfair_obs.Clock.since_s t0 :: !latencies
            | None -> ()
        in
        (* Consume whatever response lines the daemon has already sent
           (--ack oks, rejection errs) without blocking.  Interleaved
           with the send below: against an --ack daemon, per-event
           replies would otherwise fill both socket buffers and
           deadlock the pair once the trace outgrows them. *)
        let drain_ready () =
          let rec go () =
            match Unix.select [ fd ] [] [] 0.0 with
            | [], _, _ -> ()
            | _ :: _, _, _ -> (
                match Line_reader.refill reader with
                | `Eof -> ()
                | `Data ->
                    let rec eat () =
                      match Line_reader.pending_line reader with
                      | None -> ()
                      | Some l ->
                          note_response l;
                          if String.starts_with ~prefix:"err " l then
                            Printf.eprintf "mmfair churnd-load: daemon: %s\n%!" l;
                          eat ()
                    in
                    eat ();
                    go ())
            | exception Unix.Unix_error (Unix.EINTR, _, _) -> go ()
          in
          go ()
        in
        let send s =
          let b = Bytes.of_string s in
          let n = Bytes.length b in
          let rec go pos =
            if pos < n then begin
              drain_ready ();
              match Unix.write fd b pos (Stdlib.min 4096 (n - pos)) with
              | written -> go (pos + written)
              | exception Unix.Unix_error (Unix.EINTR, _, _) -> go pos
              | exception Unix.Unix_error ((Unix.EPIPE | Unix.ECONNRESET), _, _) ->
                  die exit_invalid_input
                    "mmfair churnd-load: connection to %s closed while streaming" path
            end
          in
          go 0
        in
        if not report && poisson = None then send rendered
        else begin
          (* Line-at-a-time so each item's send instant is sharp.  A
             batch block is one ingestion item: its clock starts at the
             [end] line that completes it. *)
          let in_batch = ref false in
          let next_time = ref 0 in
          let t0 = Mmfair_obs.Clock.now_s () in
          (* Open-loop pacing: hold each event line back until its
             Poisson instant, draining daemon responses while waiting
             so neither socket buffer can fill up and deadlock us. *)
          let rec pace until =
            let now = Mmfair_obs.Clock.now_s () in
            if now < until then begin
              drain_ready ();
              Unix.sleepf (Float.min 0.05 (until -. now));
              pace until
            end
          in
          List.iter
            (fun line ->
              let body =
                match String.index_opt line '#' with
                | Some i -> String.sub line 0 i
                | None -> line
              in
              let kind =
                match String.trim body with
                | "" -> `Blank
                | "batch" -> `Batch
                | "end" -> `End
                | _ -> `Event
              in
              (if kind = `Event && poisson <> None && !next_time < Array.length times then begin
                 pace (t0 +. times.(!next_time));
                 incr next_time
               end);
              send (line ^ "\n");
              if report then
                match kind with
                | `Blank -> ()
                | `Batch -> in_batch := true
                | `End ->
                    in_batch := false;
                    Queue.add (Mmfair_obs.Clock.now_ns ()) pending_sends
                | `Event ->
                    if not !in_batch then Queue.add (Mmfair_obs.Clock.now_ns ()) pending_sends)
            (match String.split_on_char '\n' rendered with
            | lines -> (
                (* render ends with a newline: drop the empty tail. *)
                match List.rev lines with "" :: rest -> List.rev rest | _ -> lines))
        end;
        let read_line what =
          match Line_reader.next_line reader with
          | Some l -> l
          | None -> die exit_invalid_input "mmfair churnd-load: connection closed waiting for %s" what
        in
        (* Per-ingestion responses (--ack oks, errs) ride ahead of a
           query's answer on the same stream; skip past them. *)
        let rec read_answer what =
          let l = read_line what in
          if String.starts_with ~prefix:"ok " l then begin
            note_response l;
            read_answer what
          end
          else if String.starts_with ~prefix:"err " l then begin
            note_response l;
            Printf.eprintf "mmfair churnd-load: daemon: %s\n%!" l;
            read_answer what
          end
          else l
        in
        let mismatches = ref 0 in
        if verify then begin
          send "rates\n";
          let header = read_answer "rates header" in
          let k, daemon_epoch =
            match String.split_on_char ' ' header with
            | [ "rates"; k; "epoch"; e ] -> (int_of_string k, int_of_string e)
            | _ -> die exit_invalid_input "mmfair churnd-load: unexpected rates header %S" header
          in
          let daemon_rates = Hashtbl.create k in
          for _ = 1 to k do
            match String.split_on_char ' ' (read_line "a rates row") with
            | [ s; n; r ] -> Hashtbl.replace daemon_rates (s, n) (float_of_string r)
            | row -> die exit_invalid_input "mmfair churnd-load: unexpected rates row %S" (String.concat " " row)
          done;
          (* Offline replay of the identical trace: the daemon's epoch
             chunking is arbitrary, but max-min fairness depends only
             on the final network, so rates must agree within 1e-9. *)
          let offline =
            match Batch.create_result net with
            | Ok eng -> eng
            | Error e -> die exit_solver_error "mmfair churnd-load: offline replay: %s" (Solver_error.to_string e)
          in
          List.iter
            (fun ev ->
              match Batch.apply_result offline [ ev ] with
              | Ok _ -> ()
              | Error e -> die exit_solver_error "mmfair churnd-load: offline replay: %s" (Solver_error.to_string e))
            trace;
          let now = Batch.network offline and alloc = Batch.allocation offline in
          let offline_receivers = Network.all_receivers now in
          if Array.length offline_receivers <> k then begin
            incr mismatches;
            Printf.eprintf "mmfair churnd-load: daemon served %d receivers, offline replay has %d\n%!"
              k (Array.length offline_receivers)
          end;
          Array.iter
            (fun (r : Network.receiver_id) ->
              let spec = Network.session_spec now r.Network.session in
              let key =
                ( parsed.Net_parser.session_names.(r.Network.session),
                  parsed.Net_parser.node_names.(spec.Network.receivers.(r.Network.index)) )
              in
              let expected = Allocation.rate alloc r in
              match Hashtbl.find_opt daemon_rates key with
              | Some got when agree got expected -> ()
              | Some got ->
                  incr mismatches;
                  Printf.eprintf "mmfair churnd-load: %s %s: daemon %.17g vs offline %.17g\n%!"
                    (fst key) (snd key) got expected
              | None ->
                  incr mismatches;
                  Printf.eprintf "mmfair churnd-load: daemon reported no rate for %s %s\n%!"
                    (fst key) (snd key))
            offline_receivers;
          Printf.printf "verify: %d receiver rates checked against offline replay (epoch %d)\n"
            (Array.length offline_receivers) daemon_epoch
        end;
        send "quit\n";
        (* Drain until the daemon says bye, so the socket closes after
           every response (acks included) has been delivered. *)
        let rec drain () =
          match Line_reader.next_line reader with
          | Some "bye" | None -> ()
          | Some l ->
              note_response l;
              drain ()
        in
        drain ();
        Printf.printf "sent %d events to %s\n" (List.length trace) path;
        if report then begin
          match List.sort compare !latencies with
          | [] ->
              Printf.eprintf
                "mmfair churnd-load: --report saw no acks — is the daemon running with --ack?\n%!"
          | sorted ->
              let arr = Array.of_list sorted in
              let n = Array.length arr in
              (* Exact nearest-rank quantiles: every round-trip was kept. *)
              let q p =
                arr.(Stdlib.min (n - 1)
                       (Stdlib.max 0 (int_of_float (ceil (p *. float_of_int n)) - 1)))
              in
              Printf.printf
                "report: acks=%d rtt-ms p50=%.3f p90=%.3f p99=%.3f max=%.3f\n" n
                (1e3 *. q 0.50) (1e3 *. q 0.90) (1e3 *. q 0.99) (1e3 *. arr.(n - 1))
        end;
        if !mismatches > 0 then
          die exit_solver_error "mmfair churnd-load: %d receiver rate(s) diverged from the offline replay"
            !mismatches
  in
  let doc = "generate churn load for a running churnd (soak harness)" in
  let man =
    [
      `S Manpage.s_description;
      `P "Generates a seeded random churn trace (the same generator as $(b,mmfair churn --random)) \
          and either prints it for piping, or streams it into a live $(b,mmfair churnd) socket.  \
          With $(b,--verify), the daemon's final rates are fetched over the same connection and \
          cross-checked against an offline replay of the identical trace — the daemon's coalescing \
          must not change where the allocation lands (max-min fairness depends only on the final \
          network).  With $(b,--report) (against a daemon running with $(b,--ack)), every \
          ingestion's ack round-trip is timed and client-side end-to-end latency quantiles are \
          printed — so a soak reports both sides of the socket.  With $(b,--poisson RATE), the \
          stream is paced open-loop: each event is held back until its seeded Poisson arrival \
          instant (RATE events per second) instead of being pushed as fast as the socket \
          accepts — the arrival process is the same one the flow-level stability harness \
          ($(b,mmfair stability)) draws from.";
    ]
  in
  Cmd.v (Cmd.info "churnd-load" ~doc ~man)
    Term.(const run $ tele_term $ net_file_arg $ socket $ events $ verify $ connect_timeout_arg $ report
          $ poisson $ seed_arg)

(* `mmfair watch`: live terminal dashboard over a running churnd.
   Polls the daemon's socket with the `stats` verb and renders a
   refreshing summary — rates are computed client-side from successive
   snapshots (the daemon timestamps each with its monotonic clock). *)
let watch_cmd =
  let module Line_reader = Mmfair_serve.Line_reader in
  let module Json = Mmfair_obs.Json in
  let socket =
    Arg.(required & opt (some string) None
         & info [ "socket" ] ~docv:"PATH" ~doc:"The running churnd's Unix-domain socket.")
  in
  let interval =
    Arg.(value & opt float 1.0 & info [ "interval" ] ~docv:"SECONDS" ~doc:"Refresh period.")
  in
  let count =
    Arg.(value & opt (some int) None
         & info [ "count" ] ~docv:"N"
             ~doc:"Render N frames then exit (default: until interrupted or the daemon goes away).")
  in
  let once =
    Arg.(value & flag
         & info [ "once" ] ~doc:"Print one snapshot without clearing the screen (implies --count 1).")
  in
  let run tele socket interval count once connect_timeout =
    Telemetry.wrap tele @@ fun () ->
    if interval <= 0.0 then die exit_invalid_input "mmfair watch: --interval wants a positive duration";
    let frames = if once then Some 1 else count in
    (match frames with
    | Some n when n < 1 -> die exit_invalid_input "mmfair watch: --count wants a positive count"
    | _ -> ());
    with_daemon ~subcommand:"watch" ~connect_timeout socket @@ fun fd reader ->
    let send s =
      match Unix.write_substring fd s 0 (String.length s) with
      | _ -> ()
      | exception Unix.Unix_error ((Unix.EPIPE | Unix.ECONNRESET), _, _) ->
          die exit_invalid_input "mmfair watch: daemon at %s went away" socket
    in
    (* A field the daemon leaves out or nulls renders as n/a. *)
    let num j path = try Json.num_or_null path j with Json.Bad _ -> None in
    let fmt_ms = function None -> "    n/a" | Some s -> Printf.sprintf "%7.3f" (1e3 *. s) in
    let fmt_rate = function None -> "     n/a" | Some r -> Printf.sprintf "%8.1f" r in
    let prev = ref None in
    let render stats =
      let b = Buffer.create 1024 in
      let line fmt = Printf.ksprintf (fun s -> Buffer.add_string b (s ^ "\n")) fmt in
      let t = num stats [ "t" ] in
      let rate key =
        match (!prev, t) with
        | Some (pt, pstats), Some now when now > pt -> (
            match (num stats [ key ], num pstats [ key ]) with
            | Some v, Some pv -> Some ((v -. pv) /. (now -. pt))
            | _ -> None)
        | _ -> None
      in
      let i path = match num stats path with Some v -> Printf.sprintf "%.0f" v | None -> "n/a" in
      let ms path = fmt_ms (num stats path) in
      line "mmfair watch — %s" socket;
      line "  epoch %s   epochs/s %s   ingest/s %s" (i [ "epoch" ]) (fmt_rate (rate "epochs"))
        (fmt_rate (rate "ingested"));
      line "  totals: ingested %s  rejected %s  epochs %s  queries %s  connections %s"
        (i [ "ingested" ]) (i [ "rejected" ]) (i [ "epochs" ]) (i [ "queries" ]) (i [ "connections" ]);
      line "  solve ms:     p50 %s  p90 %s  p99 %s  max %s" (ms [ "solve"; "p50" ])
        (ms [ "solve"; "p90" ]) (ms [ "solve"; "p99" ]) (ms [ "solve"; "max" ]);
      line "  staleness ms: p50 %s  p90 %s  p99 %s  hwm %s" (ms [ "staleness"; "p50" ])
        (ms [ "staleness"; "p90" ]) (ms [ "staleness"; "p99" ]) (ms [ "staleness_max" ]);
      let jain = match num stats [ "jain" ] with Some v -> Printf.sprintf "%.4f" v | None -> "n/a" in
      let util =
        match num stats [ "pool_utilization" ] with
        | Some v -> Printf.sprintf "%.0f%%" (100.0 *. v)
        | None -> "n/a"
      in
      line "  fairness jain %s   pool utilization %s" jain util;
      line "  gc: minor %s  major %s  heap %s words" (i [ "gc"; "minor" ]) (i [ "gc"; "major" ])
        (i [ "gc"; "heap_words" ]);
      (match t with Some now -> prev := Some (now, stats) | None -> ());
      Buffer.contents b
    in
    let frame k =
      send "stats\n";
      let rec answer () =
        match Line_reader.next_line reader with
        | None -> die exit_invalid_input "mmfair watch: daemon at %s closed the connection" socket
        | Some l when String.starts_with ~prefix:"stats " l ->
            String.sub l 6 (String.length l - 6)
        | Some _ -> answer () (* unrelated chatter (acks to others never reach us; be safe) *)
      in
      let payload = answer () in
      let stats =
        match Json.parse payload with
        | j -> j
        | exception Json.Bad msg ->
            die exit_invalid_input "mmfair watch: malformed stats payload (%s)" msg
      in
      let text = render stats in
      if once then print_string text
      else begin
        (* Clear + home, then the frame: a cheap full-redraw dashboard. *)
        print_string "\027[2J\027[H";
        print_string text;
        Printf.printf "  [frame %d, every %gs — Ctrl-C to stop]\n" k interval
      end;
      Stdlib.flush Stdlib.stdout
    in
    let rec loop k =
      frame k;
      let continue_ = match frames with Some n -> k < n | None -> true in
      if continue_ then begin
        Unix.sleepf interval;
        loop (k + 1)
      end
    in
    loop 1
  in
  let doc = "live terminal dashboard over a running churnd (polls the stats verb)" in
  let man =
    [
      `S Manpage.s_description;
      `P "Connects to a $(b,mmfair churnd --socket) daemon, polls its $(b,stats) protocol verb \
          every $(b,--interval) seconds, and renders a refreshing dashboard: epochs/s and \
          ingest/s (computed from successive snapshots), solve and staleness latency quantiles \
          (from the daemon's log-bucketed histograms), the Jain fairness index of the current \
          allocation, domain-pool utilization, and GC counters.  Use $(b,--once) in scripts to \
          print a single parseable snapshot.";
    ]
  in
  Cmd.v (Cmd.info "watch" ~doc ~man)
    Term.(const run $ tele_term $ socket $ interval $ count $ once $ connect_timeout_arg)

let single_rate_cmd =
  let grid = Arg.(value & opt int 12 & info [ "grid" ] ~docv:"N" ~doc:"Candidate rates to sweep.") in
  let run tele grid csv =
    Telemetry.wrap tele @@ fun () ->
    let o = E.Single_rate_study.run_figure2 ~grid () in
    print_table ~csv o.E.Single_rate_study.table
  in
  Cmd.v
    (Cmd.info "single-rate" ~doc:"related-work [6]: pick a constrained session's single rate by inter-receiver fairness")
    Term.(const run $ tele_term $ grid $ csv_flag)

let convergence_cmd =
  let loss = Arg.(value & opt float 0.02 & info [ "loss" ] ~docv:"P" ~doc:"Fanout-link loss rate.") in
  let run tele loss seed csv =
    Telemetry.wrap tele @@ fun () ->
    print_table ~csv (E.Convergence.to_table (E.Convergence.run ~loss ~seed ()))
  in
  Cmd.v
    (Cmd.info "convergence" ~doc:"extension: protocol climb time, exact transient vs simulation")
    Term.(const run $ tele_term $ loss $ seed_arg $ csv_flag)

let closedloop_cmd =
  let run tele =
    Telemetry.wrap tele @@ fun () ->
    List.iter (fun o -> E.Table.print o.E.Closed_loop.table) (E.Closed_loop.run ())
  in
  Cmd.v
    (Cmd.info "closed-loop" ~doc:"validation: protocols vs the allocator's fair rates on real queues")
    Term.(const run $ tele_term)

let ecn_cmd =
  let run tele seed csv =
    Telemetry.wrap tele @@ fun () ->
    print_table ~csv (E.Ecn_study.to_table (E.Ecn_study.run ~seed ()))
  in
  Cmd.v (Cmd.info "ecn" ~doc:"extension: ECN marking vs drop-tail congestion signalling")
    Term.(const run $ tele_term $ seed_arg $ csv_flag)

let compete_cmd =
  let run tele seed csv =
    Telemetry.wrap tele @@ fun () ->
    print_table ~csv (E.Competition.to_table (E.Competition.run ~seed ()))
  in
  Cmd.v
    (Cmd.info "compete" ~doc:"extension: two sessions on one bottleneck (Section-3 nonexistence, live)")
    Term.(const run $ tele_term $ seed_arg $ csv_flag)

let tcpfriendly_cmd =
  let run tele seed csv =
    Telemetry.wrap tele @@ fun () ->
    print_table ~csv (E.Tcp_friendly.to_table (E.Tcp_friendly.run ~seed ()))
  in
  Cmd.v
    (Cmd.info "tcpfriendly" ~doc:"extension: layered multicast vs an AIMD (TCP-like) flow")
    Term.(const run $ tele_term $ seed_arg $ csv_flag)

let claims_cmd =
  let loss = Arg.(value & opt float 0.03 & info [ "loss" ] ~docv:"P" ~doc:"Mean fanout loss rate.") in
  let run tele loss seed csv =
    Telemetry.wrap tele @@ fun () ->
    print_table ~csv
      (E.Scaling_claims.scaling_table (E.Scaling_claims.receiver_scaling ~seed ~independent_loss:loss ()));
    print_table ~csv
      (E.Scaling_claims.hetero_table (E.Scaling_claims.heterogeneous_loss ~seed ~mean_loss:loss ()))
  in
  Cmd.v
    (Cmd.info "claims" ~doc:"verify Section 4's side claims: receiver-count saturation; equal loss is worst")
    Term.(const run $ tele_term $ loss $ seed_arg $ csv_flag)

let list_cmd =
  let run tele csv = Telemetry.wrap tele @@ fun () -> print_table ~csv (E.Index.to_table ()) in
  Cmd.v (Cmd.info "list" ~doc:"list every reproduced experiment and the command that regenerates it")
    Term.(const run $ tele_term $ csv_flag)

let membership_cmd =
  let run tele seed csv =
    Telemetry.wrap tele @@ fun () ->
    print_table ~csv (E.Membership_study.to_table (E.Membership_study.run ~seed ()))
  in
  Cmd.v
    (Cmd.info "membership" ~doc:"extension: IGMP leave timeouts vs redundancy, closed loop")
    Term.(const run $ tele_term $ seed_arg $ csv_flag)

let all_cmd =
  let run tele seed =
    Telemetry.wrap tele @@ fun () ->
    let o = E.Fig_examples.run_figure1 () in
    E.Table.print o.E.Fig_examples.table;
    let o = E.Fig_examples.run_figure2 ~session1_type:Network.Single_rate () in
    E.Table.print o.E.Fig_examples.table;
    let o = E.Fig_examples.run_figure2 ~session1_type:Network.Multi_rate () in
    E.Table.print o.E.Fig_examples.table;
    let a = E.Fig_examples.run_figure3a () in
    E.Table.print a.E.Fig_examples.table;
    let b = E.Fig_examples.run_figure3b () in
    E.Table.print b.E.Fig_examples.table;
    let o = E.Fig_examples.run_figure4 () in
    E.Table.print o.E.Fig_examples.table;
    let n = E.Nonexistence.run () in
    E.Table.print n.E.Nonexistence.table;
    E.Table.print (E.Fig5_random_joins.to_table (E.Fig5_random_joins.run ~seed ()));
    E.Table.print (E.Fig6_fair_rate.to_table (E.Fig6_fair_rate.run ()));
    E.Table.print (E.Replacement.run_figure2 ()).E.Replacement.table;
    List.iter
      (fun grid -> E.Table.print (E.Markov_redundancy.to_table grid))
      (E.Markov_redundancy.run ~shared_loss:0.0001 ());
    List.iter
      (fun shared ->
        let curves = E.Fig8_protocols.run ~shared_loss:shared ~seed () in
        E.Table.print (E.Fig8_protocols.to_table ~shared_loss:shared curves))
      [ 0.0001; 0.05 ];
    E.Table.print (E.Extensions.latency_table (E.Extensions.leave_latency ~seed ~independent_loss:0.03 ()));
    E.Table.print (E.Extensions.priority_table (E.Extensions.priority_dropping ~seed ~independent_loss:0.03 ()));
    E.Table.print
      (E.Extensions.layers_table ~receivers:50 ~rate:0.35
         (E.Extensions.layers_vs_redundancy ~receivers:50 ~rate:0.35 ()));
    E.Table.print (E.Extensions.tcp_fairness ~rtts:[| 0.01; 0.02; 0.05; 0.1 |] ()).E.Extensions.table;
    E.Table.print (E.Extensions.churn ~seed ~sessions:4 ()).E.Extensions.table;
    E.Table.print (E.Convergence.to_table (E.Convergence.run ~seed ()));
    E.Table.print (E.Single_rate_study.run_figure2 ()).E.Single_rate_study.table;
    List.iter (fun o -> E.Table.print o.E.Closed_loop.table) (E.Closed_loop.run ());
    E.Table.print (E.Ecn_study.to_table (E.Ecn_study.run ~seed ()));
    E.Table.print (E.Competition.to_table (E.Competition.run ~seed ()));
    E.Table.print (E.Tcp_friendly.to_table (E.Tcp_friendly.run ~seed ()));
    E.Table.print
      (E.Scaling_claims.scaling_table
         (E.Scaling_claims.receiver_scaling ~seed ~packets:20_000 ~independent_loss:0.03 ()));
    E.Table.print
      (E.Scaling_claims.hetero_table
         (E.Scaling_claims.heterogeneous_loss ~seed ~receivers:60 ~packets:20_000 ~mean_loss:0.03 ()));
    E.Table.print (E.Membership_study.to_table (E.Membership_study.run ~seed ~duration:90.0 ()))
  in
  Cmd.v (Cmd.info "all" ~doc:"run every experiment at quick scale (the EXPERIMENTS.md sweep)")
    Term.(const run $ tele_term $ seed_arg)

(* `mmfair stability`: flow-level stochastic workload runs probing the
   Bramson stability boundary — sessions arrive by a Poisson process,
   are served at their max-min rates, and depart when their sampled
   workload drains.  Single run or a rho sweep; table/CSV/JSON out. *)
let stability_cmd =
  let module Size = Mmfair_flow.Size in
  let module Scenario = Mmfair_flow.Scenario in
  let module Sim = Mmfair_flow.Sim in
  let module Stability = Mmfair_flow.Stability in
  let module LH = Mmfair_stats.Log_histogram in
  let scenario_conv = Arg.enum [ ("star", `Star); ("single", `Single) ] in
  let scenario =
    Arg.(value & opt scenario_conv `Star
         & info [ "scenario" ] ~docv:"KIND"
             ~doc:"Topology: $(b,star) (star-of-stars, one flow class per cluster trunk) or \
                   $(b,single) (one class on one link — M/M/1-PS with exponential workloads).")
  in
  let clusters =
    Arg.(value & opt int 8 & info [ "clusters" ] ~docv:"N" ~doc:"Clusters (classes) of the star scenario.")
  in
  let slots =
    Arg.(value & opt int 64
         & info [ "slots" ] ~docv:"N"
             ~doc:"Concurrent-flow capacity per class; arrivals beyond it count as blocked.")
  in
  let trunk_cap =
    Arg.(value & opt float 4.0 & info [ "trunk-cap" ] ~docv:"C" ~doc:"Per-cluster trunk capacity (star).")
  in
  let capacity =
    Arg.(value & opt float 1.0 & info [ "capacity" ] ~docv:"C" ~doc:"Link capacity (single).")
  in
  let workload =
    Arg.(value & opt string "exp:1"
         & info [ "workload" ] ~docv:"SPEC"
             ~doc:"Workload-size distribution: $(b,det:SIZE), $(b,exp:MEAN) or \
                   $(b,pareto:ALPHA,LO,HI).")
  in
  let load =
    Arg.(value & opt float 0.8
         & info [ "load" ] ~docv:"RHO"
             ~doc:"Target nominal load (max over links); arrival rates are scaled to hit it.")
  in
  let sweep =
    Arg.(value & opt (some string) None
         & info [ "sweep" ] ~docv:"R1,R2,.."
             ~doc:"Run once per comma-separated load instead of --load.")
  in
  let horizon =
    Arg.(value & opt float 100.0 & info [ "horizon" ] ~docv:"T" ~doc:"Virtual-time length of each run.")
  in
  let domains =
    Arg.(value & opt int 1
         & info [ "domains" ] ~docv:"N"
             ~doc:"Domain-pool size for each epoch's component solves (allocations are identical \
                   at every value).")
  in
  let pulses =
    Arg.(value & opt_all string []
         & info [ "pulse" ] ~docv:"T:N"
             ~doc:"Flash crowd: inject N simultaneous arrivals at virtual time T (repeatable).")
  in
  let json_out =
    Arg.(value & opt (some string) None
         & info [ "json" ] ~docv:"FILE" ~doc:"Write the runs as JSON (schema mmfair.stability/v1).")
  in
  let series_out =
    Arg.(value & opt (some string) None
         & info [ "series-out" ] ~docv:"FILE"
             ~doc:"Write the last run's population time series as JSONL (schema mmfair.series/v1).")
  in
  let expect_conv =
    Arg.enum [ ("stable", Stability.Stable); ("divergent", Stability.Divergent) ]
  in
  let expect =
    Arg.(value & opt (some expect_conv) None
         & info [ "expect" ] ~docv:"VERDICT"
             ~doc:"Exit non-zero unless every run's verdict matches (CI smoke mode).")
  in
  let run tele scenario clusters slots trunk_cap capacity workload load sweep horizon domains pulses
      json_out series_out expect csv seed =
    Telemetry.wrap tele @@ fun () ->
    let size = Size.of_string workload in
    let pulses =
      List.map
        (fun s ->
          match String.index_opt s ':' with
          | Some i -> (
              let t = String.sub s 0 i and n = String.sub s (i + 1) (String.length s - i - 1) in
              match (float_of_string_opt t, int_of_string_opt n) with
              | Some t, Some n -> (t, n)
              | _ -> die exit_invalid_input "mmfair stability: malformed --pulse %S (want T:N)" s)
          | None -> die exit_invalid_input "mmfair stability: malformed --pulse %S (want T:N)" s)
        pulses
    in
    let loads =
      match sweep with
      | None -> [ load ]
      | Some s ->
          List.map
            (fun l ->
              match float_of_string_opt (String.trim l) with
              | Some f -> f
              | None -> die exit_invalid_input "mmfair stability: malformed --sweep entry %S" l)
            (String.split_on_char ',' s)
    in
    let build target =
      let base =
        match scenario with
        | `Star ->
            Scenario.star_of_stars ~clusters ~trunk_capacity:trunk_cap ~slots ~size ~rate:1.0 ()
        | `Single -> Scenario.single_link ~capacity ~slots ~size ~rate:1.0 ()
      in
      Scenario.scale_to_load base ~load:target
    in
    let config = { Sim.default with Sim.horizon; seed; domains; pulses } in
    let runs =
      List.map
        (fun target ->
          let r = Sim.run ~config (build target) in
          (target, r, Stability.assess r))
        loads
    in
    let rows =
      List.map
        (fun (target, r, (rep : Stability.report)) ->
          [
            E.Table.cell_f target;
            Stability.verdict_to_string rep.Stability.verdict;
            string_of_int r.Sim.arrivals;
            string_of_int r.Sim.departures;
            string_of_int r.Sim.blocked;
            string_of_int r.Sim.max_population;
            E.Table.cell_f r.Sim.time_avg_population;
            E.Table.cell_f rep.Stability.drift_per_time;
            E.Table.cell_f (LH.quantile r.Sim.sojourn 0.5);
            E.Table.cell_f (LH.quantile r.Sim.sojourn 0.99);
            E.Table.cell_f (LH.quantile r.Sim.flow_rate 0.5);
            string_of_int r.Sim.epochs;
          ])
        runs
    in
    print_table ~csv
      (E.Table.make ~title:"Flow-level stability (Poisson arrivals, max-min service)"
         ~columns:
           [ "load"; "verdict"; "arrivals"; "departures"; "blocked"; "max_pop"; "mean_pop";
             "drift/t"; "sojourn_p50"; "sojourn_p99"; "rate_p50"; "epochs" ]
         ~notes:
           [ "Stability theory: stable iff every link's nominal load < 1 (max-min service)." ]
         rows);
    (match json_out with
    | None -> ()
    | Some path ->
        let module Json = Mmfair_obs.Json in
        let int n = Json.Num (float_of_int n) in
        let hist h =
          (* Quantiles and mean degrade to null while empty (JSON has
             no NaN), matching the metrics-registry convention. *)
          let n = LH.count h in
          let stat f = if n = 0 then Json.Null else Json.Num (f h) in
          Json.Obj
            [ ("count", int n); ("mean", stat (fun h -> LH.sum h /. float_of_int n));
              ("p50", stat (fun h -> LH.quantile h 0.5)); ("p90", stat (fun h -> LH.quantile h 0.9));
              ("p99", stat (fun h -> LH.quantile h 0.99)); ("max", stat LH.max_value) ]
        in
        let run (target, (r : Sim.result), (rep : Stability.report)) =
          Json.Obj
            [ ("load", Json.Num target);
              ("verdict", Json.Str (Stability.verdict_to_string rep.Stability.verdict));
              ("arrivals", int r.Sim.arrivals); ("departures", int r.Sim.departures);
              ("blocked", int r.Sim.blocked); ("pulse_arrivals", int r.Sim.pulse_arrivals);
              ("epochs", int r.Sim.epochs); ("applied_events", int r.Sim.applied_events);
              ("final_population", int r.Sim.final_population);
              ("max_population", int r.Sim.max_population);
              ("time_avg_population", Json.Num r.Sim.time_avg_population);
              ("first_half_mean", Json.Num r.Sim.first_half_mean);
              ("second_half_mean", Json.Num r.Sim.second_half_mean);
              ("drift_per_time", Json.Num rep.Stability.drift_per_time);
              ("regenerations", int r.Sim.regenerations); ("sojourn", hist r.Sim.sojourn);
              ("flow_rate", hist r.Sim.flow_rate) ]
        in
        let doc =
          Json.Obj
            [ ("schema", Json.Str Stability.schema_id);
              ("scenario", Json.Str (match scenario with `Star -> "star" | `Single -> "single"));
              ("clusters", int (match scenario with `Star -> clusters | `Single -> 1));
              ("slots", int slots); ("workload", Json.Str (Size.to_string size));
              ("horizon", Json.Num horizon); ("seed", Json.Num (Int64.to_float seed));
              ("domains", int domains); ("runs", Json.List (List.map run runs)) ]
        in
        Out_channel.with_open_bin path (fun oc ->
            output_string oc (Json.to_string doc);
            output_char oc '\n'));
    (match series_out with
    | None -> ()
    | Some path -> (
        match List.rev runs with
        | [] -> ()
        | (_, r, _) :: _ ->
            let oc = open_out path in
            output_string oc (Mmfair_obs.Timeseries.to_jsonl r.Sim.series);
            close_out oc));
    match expect with
    | None -> ()
    | Some want ->
        List.iter
          (fun (target, _, (rep : Stability.report)) ->
            if rep.Stability.verdict <> want then
              die 1 "mmfair stability: load %g: expected %s, observed %s (m1=%.3f m2=%.3f)" target
                (Stability.verdict_to_string want)
                (Stability.verdict_to_string rep.Stability.verdict)
                rep.Stability.first_half_mean rep.Stability.second_half_mean)
          runs
  in
  let doc = "flow-level stochastic stability runs (Poisson arrivals, departure on completion)" in
  let man =
    [
      `S Manpage.s_description;
      `P "Simulates flow-level session churn in virtual time: multicast sessions arrive by a \
          Poisson process, carry a sampled workload size, are served at their current max-min \
          fair rates through the incremental engine, and depart when their residual workload \
          drains.  Stability theory for bandwidth-sharing networks predicts the system is stable \
          exactly when every link's nominal load is below 1; this command probes that boundary \
          empirically, classifying each run as stable or divergent from the drift of the \
          time-averaged population.";
      `P "Examples:";
      `Pre "  mmfair stability --load 0.8 --horizon 200\n\
           \  mmfair stability --sweep 0.6,0.9,1.1 --workload pareto:1.5,0.1,100 --csv\n\
           \  mmfair stability --scenario single --load 1.3 --expect divergent";
    ]
  in
  Cmd.v (Cmd.info "stability" ~doc ~man)
    Term.(const run $ tele_term $ scenario $ clusters $ slots $ trunk_cap $ capacity $ workload
          $ load $ sweep $ horizon $ domains $ pulses $ json_out $ series_out $ expect
          $ csv_flag $ seed_arg)

let main_cmd =
  let doc = "reproduction of 'The Impact of Multicast Layering on Network Fairness' (SIGCOMM 1999)" in
  Cmd.group (Cmd.info "mmfair" ~version:"1.0.0" ~doc)
    [
      allocate_cmd; dot_cmd; example_net_cmd; topo_cmd; fig1_cmd; fig2_cmd; fig3_cmd; fig4_cmd; fig5_cmd; fig6_cmd;
      fig8_cmd; markov_cmd; nonexist_cmd; replace_cmd; latency_cmd; priority_cmd; layers_cmd;
      tcpfair_cmd; churn_cmd; churnd_cmd; churnd_load_cmd; watch_cmd; stability_cmd; session_churn_cmd; convergence_cmd; single_rate_cmd; closedloop_cmd; ecn_cmd;
      compete_cmd; tcpfriendly_cmd; claims_cmd; membership_cmd; list_cmd; all_cmd;
    ]

(* Malformed inputs and solver stalls must exit with a short diagnostic
   on stderr, not a raw backtrace (cmdliner's default catch prints the
   exception and exits 125). *)
let () =
  let code =
    try Cmd.eval ~catch:false main_cmd with
    | Solver_error.Error e ->
        Printf.eprintf "mmfair: solver error: %s\n%!" (Solver_error.to_string e);
        exit_solver_error
    | Mmfair_workload.Net_parser.Parse_error (line, msg) ->
        Printf.eprintf "mmfair: parse error (line %d): %s\n%!" line msg;
        exit_invalid_input
    | Mmfair_workload.Churn_parser.Parse_error (line, msg) ->
        Printf.eprintf "mmfair: churn parse error (line %d): %s\n%!" line msg;
        exit_invalid_input
    | Invalid_argument msg | Failure msg ->
        Printf.eprintf "mmfair: invalid input: %s\n%!" msg;
        exit_invalid_input
    | Sys_error msg ->
        Printf.eprintf "mmfair: %s\n%!" msg;
        exit_invalid_input
  in
  exit code
