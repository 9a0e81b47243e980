(* Validator for the telemetry artifacts the CLI emits: --trace-out's
   Chrome trace_event JSON, --metrics=FILE's registry snapshot and
   `mmfair stability --json`'s report.  The checks themselves are
   Mmfair_bench.Checks.{trace,metrics,stability}, the same module that
   holds the bench files' checkers (scaling.exe --validate, churn.exe
   --validate); this executable loads each file, runs its checker and,
   given both a trace and a metrics file, cross-checks that the trace's
   solver-round instants agree with the metrics' round counter.  CI's
   telemetry and stability smokes run it, and `dune runtest` runs the
   stability check on a fresh report.

   Run: dune exec bench/telemetry_check.exe -- --trace t.json --metrics m.json
        dune exec bench/telemetry_check.exe -- --stability s.json *)

module Checks = Mmfair_bench.Checks

let check f file = Checks.check_file ~failed:"telemetry_check" f file

let report file summary = Printf.printf "%s: %s\n%!" file summary

let () =
  let trace = ref None in
  let metrics = ref None in
  let stability = ref None in
  let args =
    [
      ("--trace", Arg.String (fun f -> trace := Some f), "FILE Chrome trace JSON to validate");
      ("--metrics", Arg.String (fun f -> metrics := Some f), "FILE metrics snapshot JSON to validate");
      ( "--stability",
        Arg.String (fun f -> stability := Some f),
        "FILE mmfair stability --json report to validate" );
    ]
  in
  Arg.parse (Arg.align args)
    (fun a -> raise (Arg.Bad (Printf.sprintf "unexpected argument %S" a)))
    "telemetry_check.exe: validate mmfair telemetry artifacts";
  if !trace = None && !metrics = None && !stability = None then begin
    prerr_endline "telemetry_check: nothing to do: pass --trace, --metrics, and/or --stability";
    exit 1
  end;
  Option.iter (fun f -> report f (check Checks.stability f)) !stability;
  let rounds checker file =
    let summary, rounds = check checker file in
    report file summary;
    rounds
  in
  let trace_rounds = Option.map (rounds Checks.trace) !trace in
  let metric_rounds = Option.map (rounds Checks.metrics) !metrics in
  match (trace_rounds, metric_rounds) with
  | Some t, Some m when t <> m ->
      Printf.eprintf "telemetry_check: trace has %d solver-round instants but metrics count %d rounds\n%!"
        t m;
      exit 1
  | Some _, Some _ -> Printf.printf "trace and metrics round counts agree\n%!"
  | _ -> ()
