type fully_utilized_violation = { receiver : Network.receiver_id }
type same_path_violation = {
  first : Network.receiver_id;
  second : Network.receiver_id;
  first_rate : float;
  second_rate : float;
}
type per_receiver_link_violation = { receiver : Network.receiver_id }
type per_session_link_violation = { session : int }

type report = {
  fully_utilized_receiver : fully_utilized_violation list;
  same_path_receiver : same_path_violation list;
  per_receiver_link : per_receiver_link_violation list;
  per_session_link : per_session_link_violation list;
}

let fully_utilized_receiver_fair ?(eps = 1e-9) ?value alloc =
  let value = Option.value value ~default:(Allocation.rate alloc) in
  Network.all_receivers (Allocation.network alloc)
  |> Array.to_list
  |> List.filter_map (fun r ->
         match Certify.witness ~eps ~value alloc r with
         | None -> Some ({ receiver = r } : fully_utilized_violation)
         | Some _ -> None)

let same_path_receiver_fair ?(eps = 1e-9) ?value alloc =
  let value = Option.value value ~default:(Allocation.rate alloc) in
  let net = Allocation.network alloc in
  let receivers = Network.all_receivers net in
  let paths = Array.map (fun r -> List.sort_uniq compare (Network.data_path net r)) receivers in
  let violations = ref [] in
  let n = Array.length receivers in
  for x = 0 to n - 1 do
    for y = x + 1 to n - 1 do
      if paths.(x) = paths.(y) then begin
        let rx = receivers.(x) and ry = receivers.(y) in
        let ax = value rx and ay = value ry in
        let equal = Float.abs (ax -. ay) <= Certify.rate_tol eps (Stdlib.max ax ay) in
        (* The lower rate must be pinned at its own session's rho. *)
        let excused =
          (ax < ay && Certify.at_rho ~eps alloc rx) || (ay < ax && Certify.at_rho ~eps alloc ry)
        in
        if not (equal || excused) then
          violations :=
            { first = rx; second = ry; first_rate = ax; second_rate = ay } :: !violations
      end
    done
  done;
  List.rev !violations

let session_max_on_link ~eps alloc ~session ~link =
  let net = Allocation.network alloc in
  let u = Allocation.session_link_rate alloc ~session ~link in
  let m = Network.session_count net in
  let ok = ref true in
  for i' = 0 to m - 1 do
    if i' <> session then begin
      let u' = Allocation.session_link_rate alloc ~session:i' ~link in
      if u' > u +. Certify.rate_tol eps u then ok := false
    end
  done;
  !ok

let per_receiver_link_fair ?(eps = 1e-9) alloc =
  let net = Allocation.network alloc in
  let violations = ref [] in
  Array.iter
    (fun (r : Network.receiver_id) ->
      if not (Certify.at_rho ~eps alloc r) then begin
        let justified =
          List.exists
            (fun l ->
              Allocation.fully_utilized ~eps alloc l
              && session_max_on_link ~eps alloc ~session:r.Network.session ~link:l)
            (Network.data_path net r)
        in
        if not justified then violations := { receiver = r } :: !violations
      end)
    (Network.all_receivers net);
  List.rev !violations

let per_session_link_fair ?(eps = 1e-9) alloc =
  let net = Allocation.network alloc in
  let violations = ref [] in
  for i = 0 to Network.session_count net - 1 do
    let all_at_rho =
      Array.for_all (fun r -> Certify.at_rho ~eps alloc r) (Network.receivers_of_session net i)
    in
    if not all_at_rho then begin
      let justified =
        List.exists
          (fun l ->
            Allocation.fully_utilized ~eps alloc l && session_max_on_link ~eps alloc ~session:i ~link:l)
          (Network.session_links net i)
      in
      if not justified then violations := { session = i } :: !violations
    end
  done;
  List.rev !violations

let check_all ?eps alloc =
  {
    fully_utilized_receiver = fully_utilized_receiver_fair ?eps alloc;
    same_path_receiver = same_path_receiver_fair ?eps alloc;
    per_receiver_link = per_receiver_link_fair ?eps alloc;
    per_session_link = per_session_link_fair ?eps alloc;
  }

let holds_all ?eps alloc =
  let r = check_all ?eps alloc in
  r.fully_utilized_receiver = [] && r.same_path_receiver = [] && r.per_receiver_link = []
  && r.per_session_link = []

let pp_receiver fmt (r : Network.receiver_id) =
  Format.fprintf fmt "r%d,%d" (r.Network.session + 1) (r.Network.index + 1)

let pp_report fmt r =
  if
    r.fully_utilized_receiver = [] && r.same_path_receiver = [] && r.per_receiver_link = []
    && r.per_session_link = []
  then Format.fprintf fmt "all four fairness properties hold@."
  else begin
    List.iter
      (fun (v : fully_utilized_violation) ->
        Format.fprintf fmt "FP1 (fully-utilized-receiver) violated at %a@." pp_receiver v.receiver)
      r.fully_utilized_receiver;
    List.iter
      (fun v ->
        Format.fprintf fmt "FP2 (same-path-receiver) violated: %a=%g vs %a=%g@." pp_receiver v.first
          v.first_rate pp_receiver v.second v.second_rate)
      r.same_path_receiver;
    List.iter
      (fun (v : per_receiver_link_violation) ->
        Format.fprintf fmt "FP3 (per-receiver-link) violated at %a@." pp_receiver v.receiver)
      r.per_receiver_link;
    List.iter
      (fun (v : per_session_link_violation) ->
        Format.fprintf fmt "FP4 (per-session-link) violated for S%d@." (v.session + 1))
      r.per_session_link
  end
