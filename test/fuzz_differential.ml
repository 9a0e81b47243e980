(* Differential fuzz harness for the allocator stack.

   Generates seeded adversarial random networks and cross-checks the
   optimized allocator against the frozen reference oracle (and, where
   their contracts apply, Certify, Tzeng_siu and Unicast).  The
   invariant under test is the typed-error contract: for every input —
   valid, degenerate or hostile — each [_result] entry point returns
   [Ok] or a typed [Error _]; any escaping exception is a bug.  On
   valid inputs the two engines must agree within a relative 1e-6.

   Also replays the committed regression corpus (shrunk crash cases)
   through the parser and both engines.

     fuzz_differential.exe [--cases N] [--seed S] [--corpus DIR]

   Exits non-zero on the first violated invariant. *)

module Graph = Mmfair_topology.Graph
module Network = Mmfair_core.Network
module Allocation = Mmfair_core.Allocation
module Allocator = Mmfair_core.Allocator
module Allocator_reference = Mmfair_core.Allocator_reference
module Tzeng_siu = Mmfair_core.Tzeng_siu
module Unicast = Mmfair_core.Unicast
module Certify = Mmfair_core.Certify
module Solver_error = Mmfair_core.Solver_error
module Redundancy_fn = Mmfair_core.Redundancy_fn
module Random_nets = Mmfair_workload.Random_nets
module Net_parser = Mmfair_workload.Net_parser
module Xoshiro = Mmfair_prng.Xoshiro
module Obs = Mmfair_obs

let failures = ref 0
let checked_valid = ref 0
let typed_errors = ref 0

let fail_case ~case fmt =
  Printf.ksprintf
    (fun msg ->
      incr failures;
      Printf.eprintf "FUZZ FAILURE [%s]: %s\n%!" case msg)
    fmt

(* Relative agreement: magnitudes range from 1e-6 to 1e9 across shape
   classes, so an absolute tolerance would be meaningless. *)
let agree a b = Float.abs (a -. b) <= 1e-6 *. Stdlib.max 1.0 (Stdlib.max (Float.abs a) (Float.abs b))

let rates_agree ~case ~what net a b =
  Array.iter
    (fun r ->
      let x = Allocation.rate a r and y = Allocation.rate b r in
      if not (agree x y) then
        fail_case ~case "%s disagree on receiver (%d,%d): %.17g vs %.17g" what r.Network.session
          r.Network.index x y)
    (Network.all_receivers net)

let all_sessions_satisfy net p =
  let ok = ref true in
  for i = 0 to Network.session_count net - 1 do
    if not (p i) then ok := false
  done;
  !ok

let is_efficient net i = Network.vfn net i = Redundancy_fn.Efficient

(* When a differential check fails, re-run the optimized engine under
   a collecting sink and dump its per-round probe stream so the
   divergence is diagnosable from the failure log alone.  Capped: a
   pathological case can run for thousands of rounds. *)
let dump_probe_stream ~case net =
  let rounds = ref [] in
  let sink = Obs.Sink.make ~on_round:(fun ev -> rounds := ev :: !rounds) () in
  (try Obs.Probe.with_sink sink (fun () -> ignore (Allocator.max_min_result net))
   with _ -> ());
  let evs = List.rev !rounds in
  let total = List.length evs in
  let cap = 40 in
  Printf.eprintf "  probe stream [%s]: %d optimized rounds%s\n%!" case total
    (if total > cap then Printf.sprintf " (showing first %d)" cap else "");
  List.iteri
    (fun i (ev : Obs.Events.round) ->
      if i < cap then
        Printf.eprintf
          "    round %d: level=%.17g increment=%.17g active=%d frozen=%d saturated=[%s]%s slack=%.3g\n%!"
          ev.Obs.Events.round ev.level ev.increment ev.active (List.length ev.frozen)
          (String.concat "," (List.map string_of_int ev.saturated_links))
          (match ev.bottleneck_link with None -> "" | Some l -> Printf.sprintf " bottleneck=%d" l)
          ev.residual_slack)
    evs

(* The core differential check: both engines return the same shape
   (Ok/Error), agree on Ok, and never let an exception escape. *)
let differential ~case net =
  let failures_before = !failures in
  let opt =
    try `R (Allocator.max_min_result net)
    with e -> `Exn (Printexc.to_string e)
  in
  let ref_ =
    try `R (Allocator_reference.max_min_result net)
    with e -> `Exn (Printexc.to_string e)
  in
  (match (opt, ref_) with
  | `Exn e, _ -> fail_case ~case "optimized engine raised: %s" e
  | _, `Exn e -> fail_case ~case "reference engine raised: %s" e
  | `R (Error e), `R (Error _) ->
      incr typed_errors;
      (* to_string must not itself blow up on any payload *)
      ignore (Solver_error.to_string e)
  | `R (Ok a), `R (Ok b) ->
      incr checked_valid;
      rates_agree ~case ~what:"optimized/reference" net a b;
      if not (Allocation.is_feasible a) then fail_case ~case "optimized allocation infeasible";
      (* independent oracles, where their contracts apply *)
      if
        all_sessions_satisfy net (fun i ->
            Network.session_type net i = Network.Multi_rate && is_efficient net i)
        && Network.all_weights_unit net
      then begin
        if not (Certify.is_max_min ~eps:1e-6 a) then fail_case ~case "Certify rejects the optimized allocation"
      end;
      if
        all_sessions_satisfy net (fun i ->
            Network.session_type net i = Network.Single_rate && is_efficient net i)
        && Network.all_weights_unit net
      then begin
        match Tzeng_siu.max_min_session_rates_result net with
        | Error e -> fail_case ~case "Tzeng_siu errored on a valid net: %s" (Solver_error.to_string e)
        | Ok rates -> rates_agree ~case ~what:"optimized/Tzeng_siu" net a (Tzeng_siu.to_allocation net rates)
      end;
      if
        all_sessions_satisfy net (fun i -> Network.is_unicast net i && is_efficient net i)
        && Network.all_weights_unit net
      then begin
        match Unicast.max_min_flow_rates_result net with
        | Error e -> fail_case ~case "Unicast errored on a valid net: %s" (Solver_error.to_string e)
        | Ok rates ->
            Array.iteri
              (fun i ri ->
                let x = Allocation.rate a { Network.session = i; index = 0 } in
                if not (agree x ri) then
                  fail_case ~case "optimized/Unicast disagree on session %d: %.17g vs %.17g" i x ri)
              rates
      end
  | `R (Ok _), `R (Error e) ->
      fail_case ~case "engines disagree on validity: optimized Ok, reference Error (%s)"
        (Solver_error.to_string e)
  | `R (Error e), `R (Ok _) ->
      fail_case ~case "engines disagree on validity: optimized Error (%s), reference Ok"
        (Solver_error.to_string e));
  if !failures > failures_before then dump_probe_stream ~case net

let random_config rng ~cap_lo ~cap_hi =
  let nodes = 3 + Xoshiro.below rng 8 in
  {
    Random_nets.nodes;
    extra_links = Xoshiro.below rng 5;
    sessions = 1 + Xoshiro.below rng 4;
    max_receivers = 1 + Xoshiro.below rng (Stdlib.min 3 (nodes - 1));
    single_rate_prob = Xoshiro.float rng;
    finite_rho_prob = Xoshiro.float rng;
    scaled_vfn_prob = Xoshiro.float rng *. 0.5;
    cap_lo;
    cap_hi;
  }

(* Hostile link-rate functions: monotone-but-nonlinear (the engines
   must still agree), non-monotone, and NaN-producing (a typed error
   is acceptable; an exception or a silent bogus Ok/Error split is
   not). *)
let adversarial_vfn rng =
  match Xoshiro.below rng 4 with
  | 0 ->
      let k = Xoshiro.uniform rng 1.0 2.5 in
      Redundancy_fn.Custom ("mono-scale", fun rates -> k *. List.fold_left Float.max 0.0 rates)
  | 1 ->
      Redundancy_fn.Custom
        ("mono-sqrt", fun rates ->
          let m = List.fold_left Float.max 0.0 rates in
          m +. sqrt m)
  | 2 ->
      let cliff = Xoshiro.uniform rng 0.5 5.0 in
      Redundancy_fn.Custom
        ("nan-cliff", fun rates ->
          let m = List.fold_left Float.max 0.0 rates in
          if m > cliff then Float.nan else m)
  | _ ->
      let peak = Xoshiro.uniform rng 0.5 5.0 in
      Redundancy_fn.Custom
        ("non-monotone", fun rates ->
          let m = List.fold_left Float.max 0.0 rates in
          if m > peak then Float.max 0.0 (2.0 *. peak -. m) else m)

let with_adversarial_vfns rng net =
  let m = Network.session_count net in
  let vfns =
    Array.init m (fun i ->
        if Xoshiro.bernoulli rng 0.6 then adversarial_vfn rng else Network.vfn net i)
  in
  Network.with_vfns net vfns

(* Degenerate constructions must all be rejected with
   [Invalid_argument] — anything else escaping is a crash. *)
let invalid_construction ~case rng =
  let g = Graph.create ~nodes:3 in
  ignore (Graph.add_link g 0 1 2.0);
  ignore (Graph.add_link g 1 2 2.0);
  let build =
    match Xoshiro.below rng 5 with
    | 0 -> fun () -> Network.make g [| Network.session ~rho:0.0 ~sender:0 ~receivers:[| 1 |] () |]
    | 1 -> fun () -> Network.make g [| Network.session ~sender:0 ~receivers:[||] () |]
    | 2 -> fun () -> Network.make g [| Network.session ~sender:0 ~receivers:[| 1; 0 |] () |]
    | 3 -> fun () -> Network.make g [| Network.session ~sender:0 ~receivers:[| 7 |] () |]
    | _ ->
        fun () ->
          Network.make g
            [| Network.session ~vfn:(Redundancy_fn.Scaled 0.25) ~sender:0 ~receivers:[| 1 |] () |]
  in
  match build () with
  | _ -> fail_case ~case "degenerate construction was accepted"
  | exception Invalid_argument _ -> incr typed_errors
  | exception e -> fail_case ~case "degenerate construction raised %s" (Printexc.to_string e)

let run_case ~base_seed i =
  let case = Printf.sprintf "seed=%Ld case=%d" base_seed i in
  let rng = Xoshiro.create ~seed:Int64.(add base_seed (mul (of_int (i + 1)) 0x9E3779B97F4A7C15L)) () in
  match Xoshiro.below rng 6 with
  | 0 | 1 ->
      (* plain valid nets, unit magnitudes *)
      differential ~case (Random_nets.generate ~rng (random_config rng ~cap_lo:1.0 ~cap_hi:10.0))
  | 2 ->
      (* extreme magnitudes, both tiny and huge *)
      let tiny = Xoshiro.bool rng in
      let cap_lo = if tiny then 1e-7 else 1e6 and cap_hi = if tiny then 1e-4 else 1e9 in
      differential ~case (Random_nets.generate ~rng (random_config rng ~cap_lo ~cap_hi))
  | 3 | 4 ->
      (* adversarial Custom link-rate functions *)
      let net = Random_nets.generate ~rng (random_config rng ~cap_lo:1.0 ~cap_hi:10.0) in
      differential ~case (with_adversarial_vfns rng net)
  | _ -> invalid_construction ~case rng

let replay_corpus dir =
  let entries = try Sys.readdir dir with Sys_error _ -> [||] in
  Array.sort compare entries;
  let n = ref 0 in
  Array.iter
    (fun name ->
      if Filename.check_suffix name ".net" then begin
        incr n;
        let case = "corpus/" ^ name in
        let text = In_channel.with_open_text (Filename.concat dir name) In_channel.input_all in
        match Net_parser.parse_string text with
        | exception (Net_parser.Parse_error _ | Invalid_argument _) -> incr typed_errors
        | exception e -> fail_case ~case "parser raised: %s" (Printexc.to_string e)
        | parsed -> differential ~case parsed.Net_parser.net
      end)
    entries;
  !n

let () =
  let cases = ref 500 and seed = ref 42L and corpus = ref "" in
  let spec =
    [
      ("--cases", Arg.Set_int cases, "N  number of random cases (default 500)");
      ("--seed", Arg.String (fun s -> seed := Int64.of_string s), "S  base seed (default 42)");
      ("--corpus", Arg.Set_string corpus, "DIR  replay committed .net regression files");
    ]
  in
  Arg.parse spec (fun a -> raise (Arg.Bad ("unexpected argument " ^ a))) "fuzz_differential [options]";
  for i = 0 to !cases - 1 do
    run_case ~base_seed:!seed i
  done;
  let corpus_n = if !corpus = "" then 0 else replay_corpus !corpus in
  Printf.printf "fuzz: %d cases (%d valid Ok, %d typed rejections), %d corpus files, %d failures\n%!"
    !cases !checked_valid !typed_errors corpus_n !failures;
  if !failures > 0 then exit 1
