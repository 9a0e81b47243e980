let normalized alloc =
  let net = Allocation.network alloc in
  fun r -> Allocation.rate alloc r /. Network.weight net r

let normalized_vector alloc =
  let all = Array.map (normalized alloc) (Network.all_receivers (Allocation.network alloc)) in
  Array.sort compare all;
  all

let weights_from_rtts rtts =
  Array.map
    (fun rtt ->
      if not (rtt > 0.0) then invalid_arg "Weighted.weights_from_rtts: RTT must be positive";
      1.0 /. rtt)
    rtts

let same_path_weighted_fair ?eps alloc =
  Properties.same_path_receiver_fair ?eps ~value:(normalized alloc) alloc

let fully_utilized_weighted_fair ?eps alloc =
  Properties.fully_utilized_receiver_fair ?eps ~value:(normalized alloc) alloc

let holds_all ?eps alloc =
  same_path_weighted_fair ?eps alloc = [] && fully_utilized_weighted_fair ?eps alloc = []
