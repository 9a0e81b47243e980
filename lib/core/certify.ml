type witness = At_rho | Bottleneck of Mmfair_topology.Graph.link_id

type verdict =
  | Certified of (Network.receiver_id * witness) list
  | Infeasible of Allocation.violation list
  | Uncertified of Network.receiver_id list

let validate net =
  for i = 0 to Network.session_count net - 1 do
    if Network.session_type net i <> Network.Multi_rate then
      invalid_arg "Certify: all sessions must be multi-rate";
    (match Network.vfn net i with
    | Redundancy_fn.Efficient -> ()
    | _ -> invalid_arg "Certify: sessions must use the efficient link-rate function")
  done;
  if not (Network.all_weights_unit net) then invalid_arg "Certify: weights must be 1"

let rate_tol eps x = eps *. Stdlib.max 1.0 (Float.abs x)

let at_rho ~eps alloc (r : Network.receiver_id) =
  let rho = Network.rho (Allocation.network alloc) r.Network.session in
  Float.is_finite rho && Float.abs (Allocation.rate alloc r -. rho) <= rate_tol eps rho

let witness ?(eps = 1e-9) ~value alloc r =
  if at_rho ~eps alloc r then Some At_rho
  else
    let a = value r in
    let net = Allocation.network alloc in
    List.find_map
      (fun l ->
        if
          Allocation.fully_utilized ~eps alloc l
          && List.for_all (fun r' -> value r' <= a +. rate_tol eps a) (Network.all_on_link net ~link:l)
        then Some (Bottleneck l)
        else None)
      (Network.data_path net r)

let check ?(eps = 1e-9) alloc =
  let net = Allocation.network alloc in
  validate net;
  match Allocation.feasibility_violations ~eps alloc with
  | _ :: _ as violations -> Infeasible violations
  | [] ->
      let value = Allocation.rate alloc in
      let witnesses = ref [] and missing = ref [] in
      Array.iter
        (fun r ->
          match witness ~eps ~value alloc r with
          | Some w -> witnesses := (r, w) :: !witnesses
          | None -> missing := r :: !missing)
        (Network.all_receivers net);
      if !missing = [] then Certified (List.rev !witnesses) else Uncertified (List.rev !missing)

let is_max_min ?eps alloc = match check ?eps alloc with Certified _ -> true | _ -> false
