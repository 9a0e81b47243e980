type path = Graph.link_id list

let extract_path src parent parent_link dst =
  let rec go v acc = if v = src then acc else go parent.(v) (parent_link.(v) :: acc) in
  go dst []

(* Every BFS here is one multi-target search: it stops as soon as the
   last requested target has been visited.  Neighbors are explored in
   insertion order and a node's parent is fixed by its first visit, so
   the path to a visited target is final the moment it is seen — an
   early stop extracts exactly the path a full sweep would.

   The node-indexed scratch is allocated once per call and reused by
   every (source, targets) group of that call.  [seen] and [want] hold
   the group's epoch instead of a flag, so nothing is ever cleared
   between groups: a stale stamp simply fails the equality test.  A
   target's [want] stamp turns negative once its path is extracted,
   and [memo] then hands later duplicates the same physical value. *)
let search ~name g groups =
  let n = Graph.node_count g in
  let seen = Array.make n 0 and want = Array.make n 0 in
  let parent = Array.make n (-1) and parent_link = Array.make n (-1) in
  let queue = Array.make n 0 and memo = Array.make n None in
  Array.mapi
    (fun gi (src, targets) ->
      if src < 0 || src >= n then invalid_arg (name ^ ": unknown source");
      let epoch = gi + 1 in
      let remaining = ref 0 in
      Array.iter
        (fun t ->
          if t < 0 || t >= n then invalid_arg (name ^ ": unknown destination");
          if want.(t) <> epoch then begin
            want.(t) <- epoch;
            incr remaining
          end)
        targets;
      seen.(src) <- epoch;
      if want.(src) = epoch then decr remaining;
      queue.(0) <- src;
      let head = ref 0 and tail = ref 1 in
      while !remaining > 0 && !head < !tail do
        let v = queue.(!head) in
        incr head;
        Graph.iter_neighbors g v ~f:(fun w l ->
            if seen.(w) <> epoch then begin
              seen.(w) <- epoch;
              parent.(w) <- v;
              parent_link.(w) <- l;
              if want.(w) = epoch then decr remaining;
              queue.(!tail) <- w;
              incr tail
            end)
      done;
      Array.map
        (fun t ->
          if seen.(t) <> epoch then None
          else if want.(t) = -epoch then memo.(t)
          else begin
            let p = Some (extract_path src parent parent_link t) in
            memo.(t) <- p;
            want.(t) <- -epoch;
            p
          end)
        targets)
    groups

let routes g groups = search ~name:"Routing.routes" g groups

let paths_from g src =
  (search ~name:"Routing.paths_from" g [| (src, Array.init (Graph.node_count g) Fun.id) |]).(0)

let shortest_path g src dst = (search ~name:"Routing.shortest_path" g [| (src, [| dst |]) |]).(0).(0)

(* A tiny pairing of (cost, node) orderable entries on a binary heap
   would be overkill here: graphs in this reproduction are small, so a
   simple O(n^2) Dijkstra keeps the code obvious. *)
let dijkstra g ~weight src =
  let n = Graph.node_count g in
  if src < 0 || src >= n then invalid_arg "Routing.dijkstra: unknown source";
  let dist = Array.make n infinity in
  let parent = Array.make n (-1) in
  let parent_link = Array.make n (-1) in
  let settled = Array.make n false in
  dist.(src) <- 0.0;
  let continue = ref true in
  while !continue do
    (* pick the unsettled node with the smallest tentative distance *)
    let best = ref (-1) in
    for v = 0 to n - 1 do
      if (not settled.(v)) && Float.is_finite dist.(v) && (!best < 0 || dist.(v) < dist.(!best)) then
        best := v
    done;
    if !best < 0 then continue := false
    else begin
      let v = !best in
      settled.(v) <- true;
      Graph.iter_neighbors g v ~f:(fun w l ->
          let wl = weight l in
          if wl < 0.0 then invalid_arg "Routing.dijkstra: negative weight";
          if (not settled.(w)) && dist.(v) +. wl < dist.(w) then begin
            dist.(w) <- dist.(v) +. wl;
            parent.(w) <- v;
            parent_link.(w) <- l
          end)
    end
  done;
  Array.init n (fun dst ->
      if not (Float.is_finite dist.(dst)) then None
      else Some (extract_path src parent parent_link dst, dist.(dst)))

(* Max-bottleneck routing: Dijkstra with (min, max) algebra. *)
let widest_path g src dst =
  let n = Graph.node_count g in
  if src < 0 || src >= n || dst < 0 || dst >= n then invalid_arg "Routing.widest_path: unknown node";
  let width = Array.make n neg_infinity in
  let parent = Array.make n (-1) in
  let parent_link = Array.make n (-1) in
  let settled = Array.make n false in
  width.(src) <- infinity;
  let continue = ref true in
  while !continue do
    let best = ref (-1) in
    for v = 0 to n - 1 do
      if (not settled.(v)) && width.(v) > neg_infinity && (!best < 0 || width.(v) > width.(!best))
      then best := v
    done;
    if !best < 0 then continue := false
    else begin
      let v = !best in
      settled.(v) <- true;
      Graph.iter_neighbors g v ~f:(fun w l ->
          let through = Stdlib.min width.(v) (Graph.capacity g l) in
          if (not settled.(w)) && through > width.(w) then begin
            width.(w) <- through;
            parent.(w) <- v;
            parent_link.(w) <- l
          end)
    end
  done;
  if width.(dst) = neg_infinity then None
  else Some (extract_path src parent parent_link dst, width.(dst))
