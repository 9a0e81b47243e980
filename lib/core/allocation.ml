module Graph = Mmfair_topology.Graph

type usage =
  | No_usage
  | Solved of { links : Graph.link_id array; usage : float array }
  | Every_link of float Pvec.t

type t = { net : Network.t; rates : float array Pvec.t; usage : usage }

(* The one validating constructor: session [i]'s row is [row i],
   checked as it arrives and adopted as it is.  Rows are gathered
   straight into the persistent vector's small chunks: one flat array
   of every row would be a major-heap block, and filling it with young
   rows would cost a forced minor collection and a write barrier per
   session. *)
let of_fresh_rows net row =
  let session_first = (Network.incidence net).Network.session_first in
  let rates =
    Pvec.init (Network.session_count net) (fun i ->
        let per = row i in
        if Array.length per <> session_first.(i + 1) - session_first.(i) then
          invalid_arg (Printf.sprintf "Allocation.make: receiver count mismatch in session %d" i);
        for k = 0 to Array.length per - 1 do
          let a = per.(k) in
          if Float.is_nan a || a < 0.0 then
            invalid_arg (Printf.sprintf "Allocation.make: bad rate in session %d" i)
        done;
        per)
  in
  { net; rates; usage = No_usage }

let make net rates =
  if Array.length rates <> Network.session_count net then
    invalid_arg "Allocation.make: session count mismatch";
  of_fresh_rows net (fun i -> Array.copy rates.(i))

(* Churn-path constructor: adopts the rows without copying or
   validating them.  The dynamic engine assembles each epoch's rates
   from rows that are already proven — the solver's fresh output plus
   rows carried verbatim from the previous (validated) allocation — so
   re-walking every receiver here would put an O(receivers) term back
   on a path the batch engine keeps proportional to the touched
   component.  Callers must never mutate the rows afterwards. *)
let unsafe_of_rows ?(usage = No_usage) net rates =
  if Pvec.length rates <> Network.session_count net then
    invalid_arg "Allocation.unsafe_of_rows: session count mismatch";
  { net; rates; usage }

let zero net =
  {
    net;
    rates =
      Pvec.init (Network.session_count net) (fun i ->
          Array.make (Array.length (Network.session_spec net i).Network.receivers) 0.0);
    usage = No_usage;
  }

let network t = t.net

let rate t (r : Network.receiver_id) = (Pvec.get t.rates r.Network.session).(r.Network.index)

let rates_of_session t i = Array.copy (Pvec.get t.rates i)

(* No-copy view for the dynamic engine's row carrying; callers must
   treat the result as read-only. *)
let unsafe_rates_of_session t i = Pvec.get t.rates i

(* The persistent row vector itself, for bulk row carrying: an update
   of it shares every row and chunk it does not write. *)
let unsafe_rows t = t.rates
let usage t = t.usage

(* A cell of a session whose function is not [Efficient]: off the
   fast path, and out of line, so [cell_rate] holds no closure and can
   be inlined. *)
let fold_other vfn rates link_cells ~offset ~lo ~hi =
  Redundancy_fn.apply_fold vfn ~n:(hi - lo) ~get:(fun j -> rates.(link_cells.(lo + j) - offset))

(* Fold a compact incidence cell directly: feasibility checks sweep
   [link_rate] over every link, so it must not materialize per-cell
   lists and must skip (link, session) pairs nobody crosses.  [specs]
   and [rows] are the spines of the network's specs and of the rows,
   read in place: an [Efficient] cell, the common one, is folded here
   with [Redundancy_fn.apply_fold]'s comparisons, with no call and no
   boxed float. *)
let[@inline] cell_rate specs rows inc c =
  let i = inc.Network.cell_session.(c) in
  let rates = rows.(i lsr 5).(i land 31) and offset = inc.Network.session_first.(i) in
  let lo = inc.Network.cell_first.(c) and hi = inc.Network.cell_first.(c + 1) in
  let link_cells = inc.Network.link_cells in
  match specs.(i lsr 5).(i land 31).Network.vfn with
  | Redundancy_fn.Efficient ->
      let mx = ref 0.0 in
      for p = lo to hi - 1 do
        let x = rates.(link_cells.(p) - offset) in
        if x > !mx then mx := x
      done;
      !mx
  | vfn -> fold_other vfn rates link_cells ~offset ~lo ~hi

let session_link_rate t ~session ~link =
  if session < 0 || session >= Network.session_count t.net then
    invalid_arg "Allocation.session_link_rate: unknown session";
  if link < 0 || link >= Graph.link_count (Network.graph t.net) then
    invalid_arg "Allocation.session_link_rate: unknown link";
  let inc = Network.incidence t.net in
  let specs = Pvec.unsafe_spine (Network.unsafe_specs t.net) and rows = Pvec.unsafe_spine t.rates in
  let rate = ref 0.0 in
  let c = ref inc.Network.link_row.(link) in
  let hi = inc.Network.link_row.(link + 1) in
  while !c < hi do
    let s = inc.Network.cell_session.(!c) in
    if s = session then begin
      rate := cell_rate specs rows inc !c;
      c := hi
    end
    else if s > session then c := hi
    else incr c
  done;
  !rate

let link_rate t link =
  let inc = Network.incidence t.net in
  let specs = Pvec.unsafe_spine (Network.unsafe_specs t.net) and rows = Pvec.unsafe_spine t.rates in
  let s = ref 0.0 in
  for c = inc.Network.link_row.(link) to inc.Network.link_row.(link + 1) - 1 do
    s := !s +. cell_rate specs rows inc c
  done;
  !s

let fully_utilized ?(eps = 1e-9) t link =
  let c = Graph.capacity (Network.graph t.net) link in
  link_rate t link >= c -. (eps *. Stdlib.max 1.0 c)

let link_redundancy t ~session ~link =
  let downstream = Network.receivers_on_link t.net ~session ~link in
  match downstream with
  | [] -> None
  | _ ->
      let efficient = List.fold_left (fun acc r -> Stdlib.max acc (rate t r)) 0.0 downstream in
      if efficient <= 0.0 then None
      else Some (session_link_rate t ~session ~link /. efficient)

type violation =
  | Rate_above_rho of Network.receiver_id
  | Link_overutilized of Graph.link_id
  | Single_rate_mismatch of int

let feasibility_violations ?(eps = 1e-9) t =
  let net = t.net in
  let g = Network.graph net in
  let violations = ref [] in
  for i = Network.session_count net - 1 downto 0 do
    let rho = Network.rho net i in
    let per = Pvec.get t.rates i in
    Array.iteri
      (fun k a ->
        if a > rho +. (eps *. Stdlib.max 1.0 rho) then
          violations := Rate_above_rho { Network.session = i; index = k } :: !violations)
      per;
    (match Network.session_type net i with
    | Network.Multi_rate -> ()
    | Network.Single_rate ->
        let base = per.(0) in
        let tol = eps *. Stdlib.max 1.0 base in
        if Array.exists (fun a -> Float.abs (a -. base) > tol) per then
          violations := Single_rate_mismatch i :: !violations)
  done;
  for l = Graph.link_count g - 1 downto 0 do
    let c = Graph.capacity g l in
    if link_rate t l > c +. (eps *. Stdlib.max 1.0 c) then
      violations := Link_overutilized l :: !violations
  done;
  !violations

let is_feasible ?eps t = feasibility_violations ?eps t = []

let ordered_vector t =
  let all = Array.concat (Array.to_list (Pvec.to_array t.rates)) in
  Array.sort compare all;
  all

let total_throughput t = Pvec.fold_left (fun acc per -> Array.fold_left ( +. ) acc per) 0.0 t.rates

let pp fmt t =
  let g = Network.graph t.net in
  Pvec.iteri
    (fun i per ->
      Format.fprintf fmt "S%d:" (i + 1);
      Array.iteri (fun k a -> Format.fprintf fmt " a%d,%d=%g" (i + 1) (k + 1) a) per;
      Format.fprintf fmt "@.")
    t.rates;
  for l = 0 to Graph.link_count g - 1 do
    Format.fprintf fmt "l%d: u=%g / c=%g%s@." l (link_rate t l) (Graph.capacity g l)
      (if fully_utilized t l then " (full)" else "")
  done

let pp_violation fmt = function
  | Rate_above_rho r ->
      Format.fprintf fmt "receiver r%d,%d exceeds its session's rho" (r.Network.session + 1)
        (r.Network.index + 1)
  | Link_overutilized l -> Format.fprintf fmt "link l%d over capacity" l
  | Single_rate_mismatch i -> Format.fprintf fmt "single-rate session S%d has unequal rates" (i + 1)
