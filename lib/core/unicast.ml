module Graph = Mmfair_topology.Graph
module Obs = Mmfair_obs

let validate net =
  for i = 0 to Network.session_count net - 1 do
    if not (Network.is_unicast net i) then invalid_arg "Unicast: all sessions must be unicast";
    (match Network.vfn net i with
    | Redundancy_fn.Efficient -> ()
    | _ -> invalid_arg "Unicast: sessions must use the efficient link-rate function");
    if Network.weight net { Network.session = i; index = 0 } <> 1.0 then
      invalid_arg "Unicast: weights must be 1"
  done

(* The textbook construction: at each step compute every remaining
   link's fair share (residual capacity / remaining flows crossing
   it); the minimum over links and over remaining rho limits fixes a
   batch of flows. *)
let solver_name = "Unicast"

let max_min_flow_rates net =
  validate net;
  let g = Network.graph net in
  let m = Network.session_count net in
  let n_links = Graph.link_count g in
  let rates = Array.make m 0.0 in
  let fixed = Array.make m false in
  let residual = Array.init n_links (Graph.capacity g) in
  let crosses = Array.init m (fun i -> Network.session_links net i) in
  let remaining = ref m in
  let round_no = ref 0 in
  let last_level = ref 0.0 in
  while !remaining > 0 do
    incr round_no;
    let want = Obs.Probe.enabled () in
    let fixed_evs = ref [] in
    let record i = if want then fixed_evs := (i, -1, rates.(i)) :: !fixed_evs in
    (* flows still unfixed per link *)
    let count = Array.make n_links 0 in
    Array.iteri
      (fun i links -> if not fixed.(i) then List.iter (fun l -> count.(l) <- count.(l) + 1) links)
      crosses;
    (* the binding constraint: smallest link share or smallest rho *)
    let best_share = ref infinity in
    for l = 0 to n_links - 1 do
      if count.(l) > 0 then
        best_share := Stdlib.min !best_share (residual.(l) /. float_of_int count.(l))
    done;
    let rho_bound = ref infinity in
    for i = 0 to m - 1 do
      if not fixed.(i) then rho_bound := Stdlib.min !rho_bound (Network.rho net i)
    done;
    if !rho_bound <= !best_share then begin
      (* fix every flow whose rho equals the bound *)
      for i = 0 to m - 1 do
        if (not fixed.(i)) && Network.rho net i <= !rho_bound +. 1e-12 then begin
          rates.(i) <- Network.rho net i;
          fixed.(i) <- true;
          decr remaining;
          List.iter (fun l -> residual.(l) <- residual.(l) -. rates.(i)) crosses.(i);
          record i
        end
      done
    end
    else begin
      (* find the bottleneck links first (against the pre-batch
         residuals — fixing a flow mid-batch must not turn other links
         into spurious bottlenecks), then fix their flows *)
      let share = !best_share in
      let bottleneck = Array.make n_links false in
      for l = 0 to n_links - 1 do
        if count.(l) > 0 && residual.(l) /. float_of_int count.(l) <= share +. 1e-12 then
          bottleneck.(l) <- true
      done;
      let any_fixed = ref false in
      for i = 0 to m - 1 do
        if (not fixed.(i)) && List.exists (fun l -> bottleneck.(l)) crosses.(i) then begin
          rates.(i) <- share;
          fixed.(i) <- true;
          decr remaining;
          List.iter (fun l -> residual.(l) <- residual.(l) -. share) crosses.(i);
          any_fixed := true;
          record i
        end
      done;
      if not !any_fixed then
        Solver_error.raise_error
          (Solver_error.No_progress
             { solver = solver_name; round = !round_no; residual_slack = share })
    end;
    if want then begin
      (* Batch filling, not uniform filling: [level] is the rate the
         round's batch was fixed at; [frozen] entries use
         receiver-index -1 (whole unicast flows).  [residual_slack] is
         the headroom the tightest link kept above the batch level. *)
      let level = Stdlib.min !best_share !rho_bound in
      let bottleneck_link =
        if !rho_bound <= !best_share then None
        else begin
          let found = ref None in
          for l = n_links - 1 downto 0 do
            if count.(l) > 0 && residual.(l) <= 1e-12 *. Stdlib.max 1.0 (Graph.capacity g l) then
              found := Some l
          done;
          !found
        end
      in
      Obs.Probe.round
        {
          Obs.Events.solver = solver_name;
          round = !round_no;
          level;
          increment = Stdlib.max 0.0 (level -. !last_level);
          active = !remaining;
          frozen = List.rev !fixed_evs;
          saturated_links = [];
          bottleneck_link;
          residual_slack = Stdlib.max 0.0 (!best_share -. level);
        };
      last_level := level
    end
  done;
  rates

let max_min_flow_rates_result net =
  Solver_error.protect ~solver:solver_name (fun () -> max_min_flow_rates net)

let agrees_with_general_allocator ?(eps = 1e-7) net =
  let classic = max_min_flow_rates net in
  let general = Allocator.max_min net in
  let ok = ref true in
  Array.iteri
    (fun i rate ->
      let a = Allocation.rate general { Network.session = i; index = 0 } in
      if Float.abs (a -. rate) > eps *. Stdlib.max 1.0 rate then ok := false)
    classic;
  !ok
