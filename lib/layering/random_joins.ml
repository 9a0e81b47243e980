let validate ~lambda ~rates name =
  if not (lambda > 0.0) then invalid_arg (name ^ ": lambda must be positive");
  if Array.length rates = 0 then invalid_arg (name ^ ": need at least one receiver");
  Array.iter
    (fun a -> if a < 0.0 || a > lambda then invalid_arg (name ^ ": rates must lie in [0, lambda]"))
    rates

let expected_link_rate ~lambda ~rates =
  validate ~lambda ~rates "Random_joins.expected_link_rate";
  let miss = Array.fold_left (fun acc a -> acc *. (1.0 -. (a /. lambda))) 1.0 rates in
  lambda *. (1.0 -. miss)

let max_rate rates = Array.fold_left Stdlib.max 0.0 rates

let expected_redundancy ~lambda ~rates =
  let peak = max_rate rates in
  if peak <= 0.0 then invalid_arg "Random_joins.expected_redundancy: all rates zero";
  expected_link_rate ~lambda ~rates /. peak

let redundancy_upper_bound ~lambda ~rates =
  let peak = max_rate rates in
  if peak <= 0.0 then invalid_arg "Random_joins.redundancy_upper_bound: all rates zero";
  lambda /. peak

type figure5_config = { label : string; rate_of : int -> float }

let figure5_configs =
  [
    { label = "All 0.1"; rate_of = (fun _ -> 0.1) };
    { label = "All 0.5"; rate_of = (fun _ -> 0.5) };
    { label = "1st .5 rest .1"; rate_of = (fun t -> if t = 0 then 0.5 else 0.1) };
    { label = "All 0.9"; rate_of = (fun _ -> 0.9) };
    { label = "1st .9 rest .1"; rate_of = (fun t -> if t = 0 then 0.9 else 0.1) };
  ]

let figure5_point config ~receivers =
  if receivers < 1 then invalid_arg "Random_joins.figure5_point: need at least one receiver";
  let rates = Array.init receivers config.rate_of in
  expected_redundancy ~lambda:1.0 ~rates

(* Appendix E's expected link rate [E U] of a layered session (see
   [multi_layer_redundancy] in the interface). *)
let multi_layer_link_rate ~scheme ~rates =
  if Array.length rates = 0 then invalid_arg "Random_joins.multi_layer_link_rate: need a receiver";
  let top = Scheme.top_rate scheme in
  Array.iter
    (fun a ->
      if a < 0.0 || a > top then
        invalid_arg "Random_joins.multi_layer_link_rate: rates must lie in [0, top_rate]")
    rates;
  let m = Scheme.layers scheme in
  let usage = ref 0.0 in
  for layer = 1 to m do
    let lambda = Scheme.layer_rate scheme layer in
    (* probability a given layer-[layer] packet is wanted by nobody *)
    let miss = ref 1.0 in
    Array.iter
      (fun a ->
        let level = Scheme.level_for_rate scheme a in
        let p =
          if layer <= level then 1.0
          else if layer = level + 1 then (a -. Scheme.cumulative scheme level) /. lambda
          else 0.0
        in
        miss := !miss *. (1.0 -. p))
      rates;
    usage := !usage +. (lambda *. (1.0 -. !miss))
  done;
  !usage

let multi_layer_redundancy ~scheme ~rates =
  let peak = max_rate rates in
  if peak <= 0.0 then invalid_arg "Random_joins.multi_layer_redundancy: all rates zero";
  multi_layer_link_rate ~scheme ~rates /. peak

let simulate_redundancy ~rng ~packets_per_quantum ~quanta ~rates =
  if packets_per_quantum < 1 then
    invalid_arg "Random_joins.simulate_redundancy: need at least one packet per quantum";
  if quanta < 1 then invalid_arg "Random_joins.simulate_redundancy: need at least one quantum";
  validate ~lambda:1.0 ~rates "Random_joins.simulate_redundancy";
  let peak = max_rate rates in
  if peak <= 0.0 then invalid_arg "Random_joins.simulate_redundancy: all rates zero";
  let n = packets_per_quantum in
  let wanted =
    Array.map
      (fun a -> Stdlib.min n (int_of_float (Float.round (a *. float_of_int n))))
      rates
  in
  let covered = Array.make n false in
  let scratch = Array.init n Fun.id in
  let total_link_packets = ref 0 in
  for _ = 1 to quanta do
    Array.fill covered 0 n false;
    Array.iter
      (fun k ->
        (* Partial Fisher–Yates: the first k entries of scratch become a
           uniform k-subset of the packet ids. *)
        for i = 0 to k - 1 do
          let j = i + Mmfair_prng.Xoshiro.below rng (n - i) in
          let tmp = scratch.(i) in
          scratch.(i) <- scratch.(j);
          scratch.(j) <- tmp;
          covered.(scratch.(i)) <- true
        done)
      wanted;
    Array.iter (fun c -> if c then incr total_link_packets) covered
  done;
  let link_rate = float_of_int !total_link_packets /. float_of_int (quanta * n) in
  (* Normalize by the realized (rounded) peak rate so rounding of
     [a·n] to whole packets does not bias the ratio. *)
  let realized_peak = float_of_int (Array.fold_left Stdlib.max 0 wanted) /. float_of_int n in
  if realized_peak <= 0.0 then invalid_arg "Random_joins.simulate_redundancy: rounded rates are all zero";
  link_rate /. realized_peak
