type t =
  | Invalid_input of { solver : string; what : string }
  | No_progress of { solver : string; round : int; residual_slack : float }
  | Stuck_link of {
      solver : string;
      round : int;
      link : Mmfair_topology.Graph.link_id option;
      residual_slack : float;
    }
  | Non_monotone_vfn of { solver : string; session : int; round : int }
  | Scheduler_failure of { solver : string; task : int; what : string }

exception Error of t

let solver = function
  | Invalid_input { solver; _ }
  | No_progress { solver; _ }
  | Stuck_link { solver; _ }
  | Non_monotone_vfn { solver; _ }
  | Scheduler_failure { solver; _ } ->
      solver

let to_string = function
  | Invalid_input { solver; what } -> Printf.sprintf "%s: invalid input: %s" solver what
  | No_progress { solver; round; residual_slack } ->
      Printf.sprintf "%s: no progress after round %d (residual slack %g)" solver round
        residual_slack
  | Stuck_link { solver; round; link; residual_slack } ->
      let where =
        match link with
        | Some l -> Printf.sprintf "link l%d has non-finite usage" l
        | None -> "no candidate link"
      in
      Printf.sprintf
        "%s: stuck at round %d: %s (residual slack %g); a session link-rate function likely \
         returned NaN"
        solver round where residual_slack
  | Non_monotone_vfn { solver; session; round } ->
      Printf.sprintf
        "%s: stalled at round %d; session %d uses a custom link-rate function that appears \
         non-monotone"
        solver round session
  | Scheduler_failure { solver; task; what } ->
      Printf.sprintf "%s: scheduler failed solve task %d: %s" solver task what

let raise_error e = raise (Error e)

let of_exn ~solver = function
  | Error e -> Some e
  | Invalid_argument what | Failure what -> Some (Invalid_input { solver; what })
  | _ -> None

let protect ~solver f =
  match f () with
  | v -> Ok v
  | exception e -> ( match of_exn ~solver e with Some err -> Result.Error err | None -> raise e)

let stalled ~solver ~vfns ~round ~residual_slack =
  let non_monotone = ref (-1) in
  Array.iteri
    (fun i v -> if !non_monotone < 0 && not (Redundancy_fn.is_linear v) then non_monotone := i)
    vfns;
  if !non_monotone >= 0 then Non_monotone_vfn { solver; session = !non_monotone; round }
  else No_progress { solver; round; residual_slack }
