module Churn_parser = Mmfair_workload.Churn_parser
module Net_parser = Mmfair_workload.Net_parser

type query =
  | Rate of { session : string; node : string }
  | Rates
  | Epoch
  | Metrics of [ `Json | `Prometheus ]
  | Stats
  | Series of { name : string; window : int option }

type command = Churn of Churn_parser.line | Query of query | Quit

let fail lineno msg = raise (Churn_parser.Parse_error (lineno, msg))

let parse p ~lineno raw =
  match Net_parser.tokens raw with
  | [] -> Churn Churn_parser.Blank
  | [ "rate"; session; node ] -> Query (Rate { session; node })
  | "rate" :: _ -> fail lineno "rate wants: rate SESSION NODE"
  | [ "rates" ] -> Query Rates
  | "rates" :: _ -> fail lineno "rates takes no arguments"
  | [ "epoch" ] -> Query Epoch
  | "epoch" :: _ -> fail lineno "epoch takes no arguments"
  | [ "metrics" ] | [ "metrics"; "json" ] -> Query (Metrics `Json)
  | [ "metrics"; "prom" ] | [ "metrics"; "prometheus" ] -> Query (Metrics `Prometheus)
  | "metrics" :: _ -> fail lineno "metrics wants: metrics [json|prom]"
  | [ "stats" ] -> Query Stats
  | "stats" :: _ -> fail lineno "stats takes no arguments"
  | [ "series"; name ] -> Query (Series { name; window = None })
  | [ "series"; name; window ] -> (
      match int_of_string_opt window with
      | Some w when w > 0 -> Query (Series { name; window = Some w })
      | _ -> fail lineno "series wants: series METRIC [WINDOW>0]")
  | "series" :: _ -> fail lineno "series wants: series METRIC [WINDOW]"
  | [ "quit" ] -> Quit
  | "quit" :: _ -> fail lineno "quit takes no arguments"
  | _ -> Churn (Churn_parser.parse_line p ~lineno raw)
