module Graph = Mmfair_topology.Graph
module Network = Mmfair_core.Network

type t =
  | Join of { session : int; node : Graph.node; weight : float option }
  | Leave of { session : int; node : Graph.node }
  | Rho_change of { session : int; rho : float }
  | Capacity_change of { link : Graph.link_id; cap : float }

let kind = function
  | Join _ -> "join"
  | Leave _ -> "leave"
  | Rho_change _ -> "rho"
  | Capacity_change _ -> "cap"

let pp fmt = function
  | Join { session; node; weight = None } -> Format.fprintf fmt "join S%d @%d" (session + 1) node
  | Join { session; node; weight = Some w } ->
      Format.fprintf fmt "join S%d @%d w=%g" (session + 1) node w
  | Leave { session; node } -> Format.fprintf fmt "leave S%d @%d" (session + 1) node
  | Rho_change { session; rho } -> Format.fprintf fmt "rho S%d %g" (session + 1) rho
  | Capacity_change { link; cap } -> Format.fprintf fmt "cap l%d %g" link cap

(* Validation runs against the surgery's accumulated state, so a leave
   sees the same batch's earlier joins.  The messages name
   [Batch.apply], the entry point that reports them. *)
let apply srg = function
  | Join { session; node; weight } -> Network.surgery_join ?weight srg ~session ~node
  | Leave { session; node } ->
      if session < 0 || session >= Network.surgery_session_count srg then
        invalid_arg (Printf.sprintf "Dynamic.Batch.apply: leave targets unknown session %d" session);
      let receivers = (Network.surgery_spec srg session).Network.receivers in
      let index =
        match Array.find_index (fun r -> r = node) receivers with
        | Some k -> k
        | None ->
            invalid_arg
              (Printf.sprintf "Dynamic.Batch.apply: session %d has no receiver on node %d" session node)
      in
      Network.surgery_leave srg { Network.session; index }
  | Rho_change { session; rho } -> Network.surgery_rho srg session rho
  | Capacity_change { link; cap } -> Network.surgery_capacity srg link cap
