(* lib/serve: line assembly across read boundaries, the churnd
   protocol, and the daemon loop itself — malformed-line recovery over
   a pipe, coalescing, failure isolation, and a socket-driven
   end-to-end soak whose final rates must match an offline replay of
   the identical trace within 1e-9. *)

module Network = Mmfair_core.Network
module Allocation = Mmfair_core.Allocation
module Solver_error = Mmfair_core.Solver_error
module Batch = Mmfair_dynamic.Batch
module Event = Mmfair_dynamic.Event
module Net_parser = Mmfair_workload.Net_parser
module Churn_parser = Mmfair_workload.Churn_parser
module Churn_gen = Mmfair_workload.Churn_gen
module Line_reader = Mmfair_serve.Line_reader
module Protocol = Mmfair_serve.Protocol
module Daemon = Mmfair_serve.Daemon
module Registry = Mmfair_obs.Registry

let figure2 () = Net_parser.parse_string Net_parser.example

let index_of what names name =
  let rec go i =
    if i >= Array.length names then Alcotest.failf "no %s named %s in fixture" what name
    else if names.(i) = name then i
    else go (i + 1)
  in
  go 0

let node_id (p : Net_parser.t) name = index_of "node" p.Net_parser.node_names name
let link_id (p : Net_parser.t) name = index_of "link" p.Net_parser.link_names name

(* --- Line_reader ---------------------------------------------------- *)

(* A reader over a fixed chunking of a document: each refill delivers
   the next pre-cut chunk, however the cut falls across lines. *)
let reader_of_chunks chunks =
  let remaining = ref chunks in
  Line_reader.create (fun buf pos len ->
      match !remaining with
      | [] -> 0
      | chunk :: rest ->
          assert (String.length chunk <= len);
          Bytes.blit_string chunk 0 buf pos (String.length chunk);
          remaining := rest;
          String.length chunk)

let drain reader =
  let rec go acc = match Line_reader.next_line reader with None -> List.rev acc | Some l -> go (l :: acc) in
  go []

let chunk_every n s =
  let rec go pos acc =
    if pos >= String.length s then List.rev acc
    else
      let len = min n (String.length s - pos) in
      go (pos + len) (String.sub s pos len :: acc)
  in
  go 0 []

let test_line_reader_boundaries () =
  let doc = "join s1 leaf2\nleave s2 leaf3\n\nrho s1 2.5\ncap l1 4\n" in
  let want = [ "join s1 leaf2"; "leave s2 leaf3"; ""; "rho s1 2.5"; "cap l1 4" ] in
  (* The assembled lines must not depend on where read() boundaries
     fall: byte-at-a-time, tiny chunks, one big slurp, and a pathological
     split in the middle of every token. *)
  List.iter
    (fun n ->
      Alcotest.(check (list string))
        (Printf.sprintf "chunk size %d" n)
        want
        (drain (reader_of_chunks (chunk_every n doc))))
    [ 1; 2; 3; 5; 7; 4096 ];
  Alcotest.(check (list string))
    "hand-picked splits mid-token" want
    (drain (reader_of_chunks [ "jo"; "in s1 le"; "af2\nleave s2"; " leaf3\n\nrho s1 2."; "5\ncap l1 4\n" ]))

let test_line_reader_crlf_and_partial () =
  (* CRLF terminators are stripped; a terminator-less trailing line is
     surfaced exactly once, after EOF. *)
  Alcotest.(check (list string))
    "CRLF stripped"
    [ "join s1 leaf2"; "rho s1 2.5" ]
    (drain (reader_of_chunks [ "join s1 leaf2\r\nrho"; " s1 2.5\r\n" ]));
  Alcotest.(check (list string))
    "trailing partial surfaced once"
    [ "join s1 leaf2"; "rho s1 2.5" ]
    (drain (reader_of_chunks [ "join s1 leaf2\nrho s1 2.5" ]));
  let reader = reader_of_chunks [ "no newline at all" ] in
  Alcotest.(check (option string)) "partial-only stream" (Some "no newline at all")
    (Line_reader.next_line reader);
  Alcotest.(check (option string)) "then exhausted" None (Line_reader.next_line reader);
  Alcotest.(check bool) "at_eof after drain" true (Line_reader.at_eof reader)

let test_line_reader_refill_discipline () =
  (* pending_line never reads; one refill absorbs exactly one chunk. *)
  let reader = reader_of_chunks [ "a\nb"; "\n" ] in
  Alcotest.(check (option string)) "nothing before any refill" None (Line_reader.pending_line reader);
  Alcotest.(check bool) "first refill has data" true (Line_reader.refill reader = `Data);
  Alcotest.(check (option string)) "first line complete" (Some "a") (Line_reader.pending_line reader);
  Alcotest.(check (option string)) "second still partial" None (Line_reader.pending_line reader);
  Alcotest.(check bool) "second refill has data" true (Line_reader.refill reader = `Data);
  Alcotest.(check (option string)) "second line complete" (Some "b") (Line_reader.pending_line reader);
  Alcotest.(check bool) "third refill is EOF" true (Line_reader.refill reader = `Eof)

(* --- Protocol ------------------------------------------------------- *)

let test_protocol_parse () =
  let p = figure2 () in
  let parse raw = Protocol.parse p ~lineno:7 raw in
  (match parse "rate s1 leaf2" with
  | Protocol.Query (Protocol.Rate { session = "s1"; node = "leaf2" }) -> ()
  | _ -> Alcotest.fail "rate query");
  (match parse "rates" with Protocol.Query Protocol.Rates -> () | _ -> Alcotest.fail "rates query");
  (match parse "epoch  # with a comment" with
  | Protocol.Query Protocol.Epoch -> ()
  | _ -> Alcotest.fail "epoch query");
  (match parse "metrics" with
  | Protocol.Query (Protocol.Metrics `Json) -> ()
  | _ -> Alcotest.fail "metrics default json");
  (match parse "metrics prom" with
  | Protocol.Query (Protocol.Metrics `Prometheus) -> ()
  | _ -> Alcotest.fail "metrics prom");
  (match parse "quit" with Protocol.Quit -> () | _ -> Alcotest.fail "quit");
  (match parse "   # only a comment" with
  | Protocol.Churn Churn_parser.Blank -> ()
  | _ -> Alcotest.fail "comment is blank");
  (match parse "join s2 leaf3" with
  | Protocol.Churn (Churn_parser.Event (Event.Join { session = 1; _ })) -> ()
  | _ -> Alcotest.fail "churn fallthrough");
  (match parse "batch" with
  | Protocol.Churn Churn_parser.Batch_open -> ()
  | _ -> Alcotest.fail "batch open");
  Alcotest.check_raises "malformed query carries the line number"
    (Churn_parser.Parse_error (7, "rate wants: rate SESSION NODE")) (fun () ->
      ignore (parse "rate s1"));
  Alcotest.check_raises "unknown directive falls through to churn diagnostics"
    (Churn_parser.Parse_error (7, "unknown directive \"frobnicate\" (want join|leave|rho|cap|batch|end)"))
    (fun () -> ignore (parse "frobnicate s1"))

let test_streaming_matches_offline_parser () =
  (* parse_line + step_line folded over the example trace must
     reconstruct exactly what the whole-document parser sees — the
     daemon and `mmfair churn` agree byte-for-byte on the grammar. *)
  let p = figure2 () in
  let offline = Churn_parser.parse_items p Churn_parser.example in
  let streamed =
    let items = ref [] and state = ref None in
    List.iteri
      (fun idx raw ->
        let lineno = idx + 1 in
        let st, item = Churn_parser.step_line !state ~lineno (Churn_parser.parse_line p ~lineno raw) in
        state := st;
        match item with Some it -> items := it :: !items | None -> ())
      (String.split_on_char '\n' Churn_parser.example);
    Churn_parser.close_batch !state;
    List.rev !items
  in
  Alcotest.(check int) "same item count" (List.length offline) (List.length streamed);
  Alcotest.(check bool) "same items" true (offline = streamed)

(* --- Daemon over a pipe --------------------------------------------- *)

let write_all fd s =
  let b = Bytes.of_string s in
  let rec go pos =
    if pos < Bytes.length b then
      match Unix.write fd b pos (Bytes.length b - pos) with
      | n -> go (pos + n)
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> go pos
  in
  go 0

let read_all fd =
  let buf = Buffer.create 1024 and chunk = Bytes.create 4096 in
  let rec go () =
    match Unix.read fd chunk 0 4096 with
    | 0 -> Buffer.contents buf
    | n ->
        Buffer.add_subbytes buf chunk 0 n;
        go ()
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> go ()
  in
  go ()

let make_daemon ?(config = Daemon.default_config) () =
  let parsed = figure2 () in
  match Daemon.create ~config parsed with
  | Ok d -> (parsed, d)
  | Error e -> Alcotest.fail ("daemon create: " ^ Solver_error.to_string e)

(* Feed [input] through serve_fd over real pipes and return the
   response lines.  Input must fit the kernel pipe buffer — tests keep
   well under it. *)
let serve_string daemon input =
  let in_r, in_w = Unix.pipe () and out_r, out_w = Unix.pipe () in
  write_all in_w input;
  Unix.close in_w;
  Daemon.serve_fd daemon ~input:in_r ~output:out_w;
  Unix.close in_r;
  Unix.close out_w;
  let responses = read_all out_r in
  Unix.close out_r;
  String.split_on_char '\n' responses |> List.filter (fun l -> l <> "")

let test_daemon_malformed_recovery () =
  let _, daemon = make_daemon () in
  let input =
    String.concat "\n"
      [
        "join s2 leaf3";            (* 1: fine *)
        "jion s2 leaf2";            (* 2: typo — rejected, loop lives *)
        "rho s1 nonsense";          (* 3: bad literal *)
        "rate s3 leaf2";            (* 4: unknown session in a query *)
        "leave s1 no_such_node";    (* 5: unknown node *)
        "join s2 leaf2 w=0.5";      (* 6: fine *)
        "epoch";                    (* 7: the survivors landed *)
        "";
      ]
  in
  let responses = serve_string daemon input in
  let errs = List.filter (fun l -> String.length l >= 3 && String.sub l 0 3 = "err") responses in
  Alcotest.(check int) "four rejected lines" 4 (List.length errs);
  List.iteri
    (fun i want_line ->
      let prefix = Printf.sprintf "err line %d:" want_line in
      let got = List.nth errs i in
      if not (String.length got >= String.length prefix && String.sub got 0 (String.length prefix) = prefix)
      then Alcotest.failf "diagnostic %d: want prefix %S, got %S" i prefix got)
    [ 2; 3; 4; 5 ];
  (* Both joins applied despite the noise in between: s2 grows from
     its single seeded receiver to three. *)
  let net = Batch.network (Daemon.engine daemon) in
  let spec = Network.session_spec net 1 in
  Alcotest.(check int) "both joins landed" 3 (Array.length spec.Network.receivers);
  let reg = Daemon.registry daemon in
  Alcotest.(check int) "rejected counter" 4
    (Registry.counter_value (Registry.counter reg "serve.events.rejected.total"));
  Alcotest.(check int) "ingested counter" 2
    (Registry.counter_value (Registry.counter reg "serve.events.ingested.total"))

let test_daemon_coalesces_one_wakeup () =
  (* All input arrives before the daemon's first wakeup, so the whole
     burst must coalesce into ONE epoch (the queue drains into a single
     Batch.apply), acked with the same epoch number. *)
  let _, daemon = make_daemon ~config:{ Daemon.default_config with Daemon.ack = true } () in
  let responses =
    serve_string daemon "join s2 leaf3\njoin s2 leaf2 w=0.5\nrho s1 2.5\ncap l1 4\n"
  in
  Alcotest.(check (list string))
    "one coalesced epoch acked per line"
    [ "ok epoch 1"; "ok epoch 1"; "ok epoch 1"; "ok epoch 1" ]
    responses;
  Alcotest.(check int) "engine sits at epoch 1" 1 (Batch.epoch (Daemon.engine daemon))

let test_daemon_batch_block_and_failure_isolation () =
  let parsed, daemon = make_daemon ~config:{ Daemon.default_config with Daemon.ack = true } () in
  let input =
    String.concat "\n"
      [
        "batch";
        "  join s2 leaf3";
        "  cap l1 4";
        "end";
        "leave s1 leaf3";  (* 5: fine on its own *)
        "leave s1 leaf3";  (* 6: receiver already gone — the engine
                              rejects it at apply time, not parse time *)
        "join s1 leaf3";   (* 7: fine — failure isolation keeps it *)
        "epoch";
        "";
      ]
  in
  let responses = serve_string daemon input in
  (* The double-leave fails only itself: the coalesced flush retries
     item by item, so the block, the first leave and the re-join all
     land (1 epoch for the pre-query flush would coalesce them, but the
     fallback applies them as separate epochs). *)
  let errs = List.filter (fun l -> String.length l >= 3 && String.sub l 0 3 = "err") responses in
  Alcotest.(check int) "exactly one apply-time rejection" 1 (List.length errs);
  (match errs with
  | [ err ] ->
      if not (String.length err > 10 && String.sub err 0 10 = "err line 6") then
        Alcotest.failf "apply failure blamed on its line: %s" err
  | _ -> assert false);
  let net = Batch.network (Daemon.engine daemon) in
  let spec1 = Network.session_spec net 0 and spec2 = Network.session_spec net 1 in
  Alcotest.(check int) "s1 leaf3 left then re-joined" 3 (Array.length spec1.Network.receivers);
  Alcotest.(check int) "batch join landed" 2 (Array.length spec2.Network.receivers);
  let g = Network.graph net in
  Alcotest.(check (float 0.0)) "batch cap landed" 4.0
    (Mmfair_topology.Graph.capacity g (link_id parsed "l1"))

let test_daemon_unclosed_batch () =
  let _, daemon = make_daemon () in
  let responses = serve_string daemon "batch\n  join s2 leaf3\n" in
  Alcotest.(check (list string))
    "unclosed block reported at its opening line, nothing applied"
    [ "err line 1: batch never closed (missing end)" ]
    responses;
  Alcotest.(check int) "no epoch advanced" 0 (Batch.epoch (Daemon.engine daemon))

let test_daemon_quit_discards_buffered () =
  (* Commands buffered behind a quit in the same chunk are dead input:
     nothing may be answered after bye. *)
  let _, daemon = make_daemon () in
  let responses = serve_string daemon "epoch\nquit\nrates\nmetrics\n" in
  Alcotest.(check (list string)) "bye is the last word" [ "epoch 0"; "bye" ] responses

let test_daemon_queries () =
  let parsed, daemon = make_daemon () in
  let responses =
    serve_string daemon "leave s1 leaf2\nrate s2 shared_leaf\nrates\nmetrics json\nquit\n"
  in
  match responses with
  | [ rate; header; row1; row2; row3; metrics; bye ] ->
      (* Offline truth for the same single event. *)
      let offline =
        match Batch.create_result parsed.Net_parser.net with
        | Ok e -> e
        | Error err -> Alcotest.fail (Solver_error.to_string err)
      in
      ignore
        (Batch.apply offline [ Event.Leave { session = 0; node = node_id parsed "leaf2" } ]);
      (* s2 keeps its lone receiver at index 0. *)
      let expected =
        Allocation.rate (Batch.allocation offline) { Network.session = 1; Network.index = 0 }
      in
      Alcotest.(check string) "rate answer matches offline"
        (Printf.sprintf "rate %.17g" expected) rate;
      (match String.split_on_char ' ' header with
      | [ "rates"; "3"; "epoch"; "1" ] -> ()
      | _ -> Alcotest.failf "unexpected rates header %S" header);
      List.iter
        (fun row ->
          match String.split_on_char ' ' row with
          | [ _; _; r ] -> ignore (float_of_string r)
          | _ -> Alcotest.failf "malformed rates row %S" row)
        [ row1; row2; row3 ];
      Alcotest.(check bool) "metrics answer is one-line JSON" true
        (String.length metrics > 8 && String.sub metrics 0 8 = "metrics ");
      (match Mmfair_obs.Json.parse (String.sub metrics 8 (String.length metrics - 8)) with
      | _ -> ()
      | exception Mmfair_obs.Json.Bad m -> Alcotest.fail ("metrics not JSON: " ^ m));
      Alcotest.(check string) "session ends with bye" "bye" bye
  | _ -> Alcotest.failf "unexpected responses: %s" (String.concat " | " responses)

(* --- Socket end-to-end ---------------------------------------------- *)

let test_socket_e2e_matches_offline_replay () =
  let parsed, daemon =
    make_daemon ~config:{ Daemon.default_config with Daemon.max_batch = 16; poll_interval = 0.005 } ()
  in
  let path =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "mmfair-test-%d.sock" (Unix.getpid ()))
  in
  let server = Domain.spawn (fun () -> Daemon.serve_socket daemon ~path) in
  Fun.protect
    ~finally:(fun () ->
      Daemon.stop daemon;
      Domain.join server;
      (try Unix.unlink path with Unix.Unix_error _ -> ()))
    (fun () ->
      (* A generated trace with evolving membership, streamed over the
         socket like a real client would. *)
      let net = parsed.Net_parser.net in
      let rng = Mmfair_prng.Xoshiro.create ~seed:99L () in
      let trace = Churn_gen.generate ~rng net { Churn_gen.default with Churn_gen.events = 120 } in
      let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
      let rec connect tries =
        match Unix.connect fd (Unix.ADDR_UNIX path) with
        | () -> ()
        | exception Unix.Unix_error ((Unix.ENOENT | Unix.ECONNREFUSED), _, _) when tries > 0 ->
            Unix.sleepf 0.02;
            connect (tries - 1)
      in
      connect 250;
      Fun.protect ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
      @@ fun () ->
      write_all fd (Churn_parser.render ~names:parsed trace);
      write_all fd "rates\n";
      let reader = Line_reader.of_fd fd in
      let line what =
        match Line_reader.next_line reader with
        | Some l -> l
        | None -> Alcotest.failf "connection closed waiting for %s" what
      in
      let k =
        match String.split_on_char ' ' (line "rates header") with
        | [ "rates"; k; "epoch"; _ ] -> int_of_string k
        | _ -> Alcotest.fail "bad rates header"
      in
      let daemon_rates = Hashtbl.create k in
      for _ = 1 to k do
        match String.split_on_char ' ' (line "a rates row") with
        | [ s; n; r ] -> Hashtbl.replace daemon_rates (s, n) (float_of_string r)
        | _ -> Alcotest.fail "bad rates row"
      done;
      write_all fd "quit\n";
      Alcotest.(check string) "bye" "bye" (line "bye");
      (* Offline replay of the identical trace, per event — the
         daemon's arbitrary coalescing must land on the same rates. *)
      let offline =
        match Batch.create_result net with
        | Ok e -> e
        | Error err -> Alcotest.fail (Solver_error.to_string err)
      in
      List.iter (fun ev -> ignore (Batch.apply offline [ ev ])) trace;
      let now = Batch.network offline and alloc = Batch.allocation offline in
      let receivers = Network.all_receivers now in
      Alcotest.(check int) "daemon served every receiver" (Array.length receivers) k;
      Array.iter
        (fun (r : Network.receiver_id) ->
          let spec = Network.session_spec now r.Network.session in
          let key =
            ( parsed.Net_parser.session_names.(r.Network.session),
              parsed.Net_parser.node_names.(spec.Network.receivers.(r.Network.index)) )
          in
          let expected = Allocation.rate alloc r in
          match Hashtbl.find_opt daemon_rates key with
          | None -> Alcotest.failf "daemon has no rate for %s %s" (fst key) (snd key)
          | Some got ->
              let tol = 1e-9 *. Float.max 1.0 (Float.max (Float.abs got) (Float.abs expected)) in
              if Float.abs (got -. expected) > tol then
                Alcotest.failf "%s %s: daemon %.17g vs offline %.17g" (fst key) (snd key) got
                  expected)
        receivers)

let test_socket_slow_client_dropped () =
  (* A client that stops reading fills the daemon's send buffer; the
     response write must time out and drop that client alone — the
     daemon and later connections live on (the write path used to leak
     EAGAIN and tear the whole serve loop down). *)
  let _, daemon =
    make_daemon
      ~config:
        { Daemon.default_config with Daemon.poll_interval = 0.005; write_timeout = 0.2 }
      ()
  in
  let path =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "mmfair-slow-%d.sock" (Unix.getpid ()))
  in
  (* Writes to a dropped connection must surface as EPIPE, not SIGPIPE. *)
  let prev_pipe = Sys.signal Sys.sigpipe Sys.Signal_ignore in
  let server = Domain.spawn (fun () -> Daemon.serve_socket daemon ~path) in
  Fun.protect
    ~finally:(fun () ->
      Daemon.stop daemon;
      Domain.join server;
      Sys.set_signal Sys.sigpipe prev_pipe;
      (try Unix.unlink path with Unix.Unix_error _ -> ()))
    (fun () ->
      let connect () =
        let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
        let rec go tries =
          match Unix.connect fd (Unix.ADDR_UNIX path) with
          | () -> fd
          | exception Unix.Unix_error ((Unix.ENOENT | Unix.ECONNREFUSED), _, _) when tries > 0
            ->
              Unix.sleepf 0.02;
              go (tries - 1)
        in
        go 250
      in
      (* The slow client: a flood of queries whose answers vastly
         outgrow the socket buffers, and not one read. *)
      let slow = connect () in
      Fun.protect ~finally:(fun () -> try Unix.close slow with Unix.Unix_error _ -> ())
      @@ fun () ->
      let queries = String.concat "" (List.init 20_000 (fun _ -> "rates\n")) in
      write_all slow queries;
      (* Once dropped, our next write fails; give the daemon ample time
         to hit its 0.2s write timeout. *)
      let deadline = Unix.gettimeofday () +. 20.0 in
      let rec await_drop () =
        match write_all slow "epoch\n" with
        | () ->
            if Unix.gettimeofday () > deadline then
              Alcotest.fail "slow client was never dropped";
            Unix.sleepf 0.05;
            await_drop ()
        | exception Unix.Unix_error ((Unix.EPIPE | Unix.ECONNRESET), _, _) -> ()
      in
      await_drop ();
      (* The daemon survived: a fresh client still gets answers. *)
      let live = connect () in
      Fun.protect ~finally:(fun () -> try Unix.close live with Unix.Unix_error _ -> ())
      @@ fun () ->
      write_all live "epoch\nquit\n";
      let reader = Line_reader.of_fd live in
      let line what =
        match Line_reader.next_line reader with
        | Some l -> l
        | None -> Alcotest.failf "connection closed waiting for %s" what
      in
      Alcotest.(check string) "fresh client answered" "epoch 0" (line "epoch answer");
      Alcotest.(check string) "fresh client bids bye" "bye" (line "bye"))

let starts_with ~prefix s =
  String.length s >= String.length prefix && String.sub s 0 (String.length prefix) = prefix

let test_daemon_stats_verb () =
  let module Json = Mmfair_obs.Json in
  let _, daemon = make_daemon () in
  let responses = serve_string daemon "join s2 leaf3\nstats\nquit\n" in
  match responses with
  | [ stats; "bye" ] ->
      if not (starts_with ~prefix:"stats {" stats) then
        Alcotest.failf "stats answer shape: %s" stats;
      let doc = Json.parse (String.sub stats 6 (String.length stats - 6)) in
      let num k =
        match Json.member k doc with
        | Some (Json.Num v) -> v
        | _ -> Alcotest.failf "stats missing numeric %S" k
      in
      Alcotest.(check (float 0.0)) "one event ingested" 1.0 (num "ingested");
      Alcotest.(check bool) "epoch advanced by the pre-stats flush" true (num "epoch" >= 1.0);
      Alcotest.(check bool) "monotonic timestamp" true (num "t" > 0.0);
      let quantile_obj k =
        match Json.member k doc with
        | Some (Json.Obj _ as o) -> o
        | _ -> Alcotest.failf "stats missing %S object" k
      in
      List.iter
        (fun section ->
          let o = quantile_obj section in
          List.iter
            (fun f ->
              match Json.member f o with
              | Some (Json.Num _) -> ()
              | _ -> Alcotest.failf "stats %s missing numeric %S" section f)
            [ "count"; "p50"; "p90"; "p99"; "max"; "overflow"; "underflow" ])
        [ "solve"; "staleness" ];
      (match Json.member "gc" doc with
      | Some (Json.Obj _) -> ()
      | _ -> Alcotest.fail "stats missing gc object");
      (* One solve happened, so its quantiles are real numbers. *)
      let solve = quantile_obj "solve" in
      (match Json.member "count" solve with
      | Some (Json.Num c) -> Alcotest.(check bool) "solve count >= 1" true (c >= 1.0)
      | _ -> assert false)
  | r -> Alcotest.failf "expected stats + bye, got %d lines" (List.length r)

let test_daemon_series_verb () =
  let _, daemon = make_daemon () in
  (* Sampling is off by default cadence here; drive the sampler by
     hand so the window count is exact. *)
  Daemon.sample daemon;
  Daemon.sample daemon;
  Daemon.sample daemon;
  let responses =
    serve_string daemon
      "series serve.epochs.total\nseries serve.epochs.total 2\nseries no.such.metric\nquit\n"
  in
  (match responses with
  | header3 :: rest ->
      Alcotest.(check string) "three windows" "series serve.epochs.total 3" header3;
      (match rest with
      | r1 :: r2 :: r3 :: header2 :: w1 :: w2 :: unknown :: [ "bye" ] ->
          List.iter
            (fun row ->
              match String.split_on_char ' ' row with
              | [ t; count; mn; mx; mean; last ] ->
                  ignore (float_of_string t);
                  Alcotest.(check int) "fresh window count" 1 (int_of_string count);
                  List.iter (fun v -> ignore (float_of_string v)) [ mn; mx; mean; last ]
              | _ -> Alcotest.failf "bad series row %S" row)
            [ r1; r2; r3; w1; w2 ];
          Alcotest.(check string) "window arg keeps the newest" "series serve.epochs.total 2"
            header2;
          Alcotest.(check string) "unknown metric answers zero windows" "series no.such.metric 0"
            unknown
      | _ -> Alcotest.failf "unexpected series reply shape (%d lines)" (List.length rest))
  | [] -> Alcotest.fail "no response");
  (* Printed rows carry %.9g timestamps, which can collide for
     back-to-back samples on a long-uptime host; require only
     non-decreasing there and check strictness on the full-precision
     in-memory points. *)
  let ts =
    List.filteri (fun i _ -> i >= 1 && i <= 3) responses
    |> List.map (fun row -> float_of_string (List.hd (String.split_on_char ' ' row)))
  in
  (match ts with
  | [ a; b; c ] -> Alcotest.(check bool) "printed timestamps non-decreasing" true (a <= b && b <= c)
  | _ -> assert false);
  let module Timeseries = Mmfair_obs.Timeseries in
  let pts = Timeseries.points (Daemon.series daemon) "serve.epochs.total" in
  let rec strictly_monotone = function
    | (a : Timeseries.point) :: (b :: _ as rest) ->
        a.Timeseries.p_t < b.Timeseries.p_t && strictly_monotone rest
    | _ -> true
  in
  Alcotest.(check bool) "in-memory timestamps strictly monotone" true (strictly_monotone pts)

let test_daemon_log_histogram_migration () =
  let module Json = Mmfair_obs.Json in
  let _, daemon = make_daemon () in
  let responses = serve_string daemon "join s2 leaf3\nmetrics json\nquit\n" in
  match responses with
  | [ metrics; "bye" ] ->
      let doc = Json.parse (String.sub metrics 8 (String.length metrics - 8)) in
      let lhs =
        match Json.member "log_histograms" doc with
        | Some o -> o
        | None -> Alcotest.fail "metrics snapshot missing log_histograms"
      in
      List.iter
        (fun name ->
          match Json.member name lhs with
          | Some h ->
              List.iter
                (fun f ->
                  match Json.member f h with
                  | Some (Json.Num _) -> ()
                  | _ -> Alcotest.failf "%s missing numeric %S" name f)
                [ "lo"; "hi"; "bins"; "count"; "underflow"; "overflow" ]
          | None -> Alcotest.failf "log_histograms missing %S" name)
        [ "serve.solve.seconds"; "serve.staleness.seconds" ];
      (* The old linear-histogram names must not linger. *)
      (match Json.member "histograms" doc with
      | Some hists ->
          if Json.member "serve.solve.seconds" hists <> None then
            Alcotest.fail "serve.solve.seconds still registered as a linear histogram"
      | None -> ())
  | r -> Alcotest.failf "expected metrics + bye, got %d lines" (List.length r)

let suite =
  [
    Alcotest.test_case "line reader: arbitrary read boundaries" `Quick test_line_reader_boundaries;
    Alcotest.test_case "line reader: CRLF and trailing partial" `Quick test_line_reader_crlf_and_partial;
    Alcotest.test_case "line reader: refill discipline" `Quick test_line_reader_refill_discipline;
    Alcotest.test_case "protocol: queries and churn fallthrough" `Quick test_protocol_parse;
    Alcotest.test_case "streaming parser agrees with offline parser" `Quick
      test_streaming_matches_offline_parser;
    Alcotest.test_case "daemon: malformed lines don't kill the loop" `Quick
      test_daemon_malformed_recovery;
    Alcotest.test_case "daemon: one wakeup coalesces to one epoch" `Quick
      test_daemon_coalesces_one_wakeup;
    Alcotest.test_case "daemon: batch blocks and failure isolation" `Quick
      test_daemon_batch_block_and_failure_isolation;
    Alcotest.test_case "daemon: unclosed batch reported at opening line" `Quick
      test_daemon_unclosed_batch;
    Alcotest.test_case "daemon: quit discards buffered commands" `Quick
      test_daemon_quit_discards_buffered;
    Alcotest.test_case "daemon: rate/rates/metrics answers" `Quick test_daemon_queries;
    Alcotest.test_case "socket e2e matches offline replay at 1e-9" `Quick
      test_socket_e2e_matches_offline_replay;
    Alcotest.test_case "socket: slow client dropped, daemon survives" `Quick
      test_socket_slow_client_dropped;
    Alcotest.test_case "daemon: stats verb answers one JSON line" `Quick test_daemon_stats_verb;
    Alcotest.test_case "daemon: series verb with windows and unknowns" `Quick
      test_daemon_series_verb;
    Alcotest.test_case "daemon: serve timings live in log histograms" `Quick
      test_daemon_log_histogram_migration;
  ]
