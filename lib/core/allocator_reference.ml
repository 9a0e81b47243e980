(* The pre-incidence-index water-filling allocator, kept verbatim as a
   frozen oracle: it recomputes every link×session cell from the
   list-based [Network] views on every round.  The optimized
   [Allocator] must match it to within float tolerance — see the
   "optimized allocator equals reference" property test and
   bench/scaling.ml's before/after columns.  Do not optimize this
   module. *)

module Graph = Mmfair_topology.Graph
module Obs = Mmfair_obs

let tol_for x = 1e-9 *. Stdlib.max 1.0 (Float.abs x)

let session_usage_at net rates active ~session ~link t =
  let downstream = Network.receivers_on_link net ~session ~link in
  match downstream with
  | [] -> 0.0
  | _ ->
      let rate_of (r : Network.receiver_id) =
        if active.(r.Network.session).(r.Network.index) then Network.weight net r *. t
        else rates.(r.Network.session).(r.Network.index)
      in
      Redundancy_fn.apply (Network.vfn net session) (List.map rate_of downstream)

let link_usage_at net rates active ~link t =
  let m = Network.session_count net in
  let s = ref 0.0 in
  for i = 0 to m - 1 do
    s := !s +. session_usage_at net rates active ~session:i ~link t
  done;
  !s

let linear_bound net rates active t_cur =
  let g = Network.graph net in
  let m = Network.session_count net in
  let bound = ref infinity in
  for link = 0 to Graph.link_count g - 1 do
    let const = ref 0.0 and slope = ref 0.0 in
    for i = 0 to m - 1 do
      let downstream = Network.receivers_on_link net ~session:i ~link in
      if downstream <> [] then begin
        let n_active = ref 0 and max_frozen = ref 0.0 and sum_frozen = ref 0.0 in
        List.iter
          (fun (r : Network.receiver_id) ->
            if active.(r.Network.session).(r.Network.index) then incr n_active
            else begin
              let a = rates.(r.Network.session).(r.Network.index) in
              if a > !max_frozen then max_frozen := a;
              sum_frozen := !sum_frozen +. a
            end)
          downstream;
        match Network.vfn net i with
        | Redundancy_fn.Efficient ->
            if !n_active > 0 then slope := !slope +. 1.0 else const := !const +. !max_frozen
        | Redundancy_fn.Scaled v ->
            if !n_active > 0 then slope := !slope +. v else const := !const +. (v *. !max_frozen)
        | Redundancy_fn.Additive ->
            const := !const +. !sum_frozen;
            slope := !slope +. float_of_int !n_active
        | Redundancy_fn.Custom _ ->
            invalid_arg "Allocator_reference: linear engine on non-linear session link-rate function"
      end
    done;
    if !slope > 0.0 then begin
      let b = (Graph.capacity g link -. !const) /. !slope in
      if b < !bound then bound := b
    end
  done;
  Stdlib.max !bound t_cur

let bisection_bound net rates active t_cur rho_bound =
  let g = Network.graph net in
  let feasible t =
    let ok = ref true in
    for link = 0 to Graph.link_count g - 1 do
      let c = Graph.capacity g link in
      if link_usage_at net rates active ~link t > c +. tol_for c then ok := false
    done;
    !ok
  in
  let max_cap = Graph.fold_links g ~init:0.0 ~f:(fun acc l -> Stdlib.max acc (Graph.capacity g l)) in
  let min_weight = ref infinity in
  Array.iteri
    (fun i per ->
      Array.iteri
        (fun k is_active ->
          if is_active then
            min_weight := Stdlib.min !min_weight (Network.weight net { Network.session = i; index = k }))
        per)
    active;
  let weight_floor = if Float.is_finite !min_weight && !min_weight > 0.0 then !min_weight else 1.0 in
  let hi = Stdlib.min rho_bound (t_cur +. (max_cap /. weight_floor) +. 1.0) in
  if not (feasible t_cur) then t_cur
  else if feasible hi then hi
  else Mmfair_numerics.Bisect.sup_satisfying feasible t_cur hi

let solver_name = "Allocator_reference"

let run net =
  let g = Network.graph net in
  let m = Network.session_count net in
  let rates = Array.init m (fun i -> Array.map (fun _ -> 0.0) (Network.session_spec net i).Network.receivers) in
  let active = Array.map (Array.map (fun _ -> true)) rates in
  let all_linear =
    let ok = ref true in
    for i = 0 to m - 1 do
      if not (Redundancy_fn.is_linear (Network.vfn net i)) then ok := false
    done;
    !ok
  in
  let use_linear = all_linear && Network.all_weights_unit net in
  let any_active () = Array.exists (Array.exists Fun.id) active in
  let t_cur = ref 0.0 in
  let round_no = ref 0 in
  let last_slack = ref infinity in
  let guard = ref (Network.receiver_count net + Graph.link_count g + 2) in
  while any_active () do
    decr guard;
    incr round_no;
    if !guard < 0 then
      Solver_error.raise_error
        (Solver_error.stalled ~solver:solver_name
           ~vfns:(Array.init m (Network.vfn net))
           ~round:!round_no ~residual_slack:!last_slack);
    let rho_bound = ref infinity in
    for i = 0 to m - 1 do
      let rho = Network.rho net i in
      Array.iteri
        (fun k is_active ->
          if is_active then
            rho_bound :=
              Stdlib.min !rho_bound (rho /. Network.weight net { Network.session = i; index = k }))
        active.(i)
    done;
    let t_new =
      if use_linear then Stdlib.min (linear_bound net rates active !t_cur) !rho_bound
      else bisection_bound net rates active !t_cur !rho_bound
    in
    let t_new = Stdlib.max t_new !t_cur in
    Array.iteri
      (fun i per ->
        Array.iteri
          (fun k is_active ->
            if is_active then
              rates.(i).(k) <- Network.weight net { Network.session = i; index = k } *. t_new)
          per)
      active;
    let saturated = ref [] in
    let min_slack = ref infinity and min_slack_link = ref (-1) in
    for link = Graph.link_count g - 1 downto 0 do
      let c = Graph.capacity g link in
      let u = link_usage_at net rates active ~link t_new in
      let slack = c -. u in
      if slack <= tol_for c then saturated := link :: !saturated;
      if slack < !min_slack && Network.all_on_link net ~link |> List.exists (fun (r : Network.receiver_id) -> active.(r.Network.session).(r.Network.index))
      then begin
        min_slack := slack;
        min_slack_link := link
      end
    done;
    last_slack := !min_slack;
    let saturated_set = !saturated in
    let on_saturated (r : Network.receiver_id) =
      let path = Network.data_path net r in
      List.exists (fun l -> List.mem l path) saturated_set
    in
    let frozen = ref [] in
    let freeze (r : Network.receiver_id) =
      if active.(r.Network.session).(r.Network.index) then begin
        active.(r.Network.session).(r.Network.index) <- false;
        frozen := r :: !frozen
      end
    in
    for i = 0 to m - 1 do
      let rho = Network.rho net i in
      Array.iteri
        (fun k is_active ->
          if is_active then begin
            let r = { Network.session = i; index = k } in
            if Network.weight net r *. t_new >= rho -. tol_for rho then begin
              rates.(i).(k) <- rho;
              freeze r
            end
            else if on_saturated r then freeze r
          end)
        active.(i)
    done;
    if !frozen = [] then begin
      if !min_slack_link < 0 then begin
        let nan_link = ref None in
        for link = Graph.link_count g - 1 downto 0 do
          if not (Float.is_finite (link_usage_at net rates active ~link t_new)) then
            nan_link := Some link
        done;
        Solver_error.raise_error
          (Solver_error.Stuck_link
             { solver = solver_name; round = !round_no; link = !nan_link; residual_slack = !min_slack })
      end;
      List.iter
        (fun (r : Network.receiver_id) ->
          if active.(r.Network.session).(r.Network.index) then freeze r)
        (Network.all_on_link net ~link:!min_slack_link)
    end;
    for i = 0 to m - 1 do
      if Network.session_type net i = Network.Single_rate then begin
        let any_frozen = Array.exists (fun b -> not b) active.(i) in
        if any_frozen then
          Array.iteri
            (fun k is_active -> if is_active then freeze { Network.session = i; index = k })
            active.(i)
      end
    done;
    (* Probe emission only — the reference oracle stays un-optimized
       (see module header), so the event is built from the list-based
       state it already has, and only when somebody listens. *)
    if Obs.Probe.enabled () then begin
      let n_active =
        Array.fold_left
          (fun acc per -> Array.fold_left (fun acc b -> if b then acc + 1 else acc) acc per)
          0 active
      in
      Obs.Probe.round
        {
          Obs.Events.solver = solver_name;
          round = !round_no;
          level = t_new;
          increment = t_new -. !t_cur;
          active = n_active;
          frozen =
            List.rev_map
              (fun (r : Network.receiver_id) ->
                (r.Network.session, r.Network.index, rates.(r.Network.session).(r.Network.index)))
              !frozen;
          saturated_links = saturated_set;
          bottleneck_link = (if !min_slack_link >= 0 then Some !min_slack_link else None);
          residual_slack = !min_slack;
        }
    end;
    t_cur := t_new
  done;
  Allocation.make net rates

let max_min net = run net
let max_min_result net = Solver_error.protect ~solver:solver_name (fun () -> run net)
