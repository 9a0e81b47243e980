type t = {
  lo : float;
  hi : float;
  edges : float array;  (* bins + 1 entries; edges.(0) = lo, edges.(bins) = hi *)
  counts : int array;
  mutable under : int;
  mutable over : int;
  mutable total : int;
  mutable sum : float;
  mutable max_seen : float;  (* exact, neg_infinity when empty *)
}

let create ~lo ~hi ~bins =
  if not (0.0 < lo && lo < hi) then invalid_arg "Log_histogram.create: need 0 < lo < hi";
  if bins <= 0 then invalid_arg "Log_histogram.create: need bins > 0";
  let log_ratio = log (hi /. lo) /. float_of_int bins in
  let edges =
    Array.init (bins + 1) (fun i ->
        if i = 0 then lo
        else if i = bins then hi
        else lo *. exp (float_of_int i *. log_ratio))
  in
  (* Float rounding cannot reorder a geometric progression with any
     sane (lo, hi, bins), but a silent non-monotone edge array would
     corrupt every quantile bound — check once at construction. *)
  for i = 0 to bins - 1 do
    if not (edges.(i) < edges.(i + 1)) then
      invalid_arg "Log_histogram.create: bucket edges collapsed (bins too large for the range)"
  done;
  {
    lo;
    hi;
    edges;
    counts = Array.make bins 0;
    under = 0;
    over = 0;
    total = 0;
    sum = 0.0;
    max_seen = neg_infinity;
  }

(* Largest i with edges.(i) <= x, given lo <= x < hi.  Binary search on
   the precomputed edges is immune to the off-by-one float hazards of
   the closed-form log formula near bucket boundaries. *)
let bucket_of t x =
  let left = ref 0 and right = ref (Array.length t.counts) in
  while !right - !left > 1 do
    let mid = (!left + !right) / 2 in
    if t.edges.(mid) <= x then left := mid else right := mid
  done;
  !left

let add t x =
  t.total <- t.total + 1;
  t.sum <- t.sum +. x;
  if x > t.max_seen then t.max_seen <- x;
  if x < t.lo then t.under <- t.under + 1
  else if x >= t.hi then t.over <- t.over + 1
  else begin
    let i = bucket_of t x in
    t.counts.(i) <- t.counts.(i) + 1
  end

let count t = t.total
let underflow t = t.under
let overflow t = t.over
let bins t = Array.length t.counts
let sum t = t.sum
let max_value t = t.max_seen
let lo t = t.lo
let hi t = t.hi

let bin_count t i =
  if i < 0 || i >= Array.length t.counts then invalid_arg "Log_histogram.bin_count: out of range";
  t.counts.(i)

let bin_edges t i =
  let n = Array.length t.counts in
  if i < 0 || i >= n then invalid_arg "Log_histogram.bin_edges: out of range";
  (t.edges.(i), t.edges.(i + 1))

(* The q-quantile's rank (1-based, nearest-rank definition): the
   smallest observation index such that at least ceil(q * total)
   observations are <= it. *)
let rank_of t q =
  if not (0.0 <= q && q <= 1.0) then invalid_arg "Log_histogram.quantile: need 0 <= q <= 1";
  Stdlib.max 1 (int_of_float (ceil (q *. float_of_int t.total)))

let quantile_bounds t q =
  let rank = rank_of t q in
  if t.total = 0 then (nan, nan)
  else begin
    let cum = ref t.under in
    if rank <= !cum then (neg_infinity, t.lo)
    else begin
      let n = Array.length t.counts in
      let result = ref None in
      let i = ref 0 in
      while !result = None && !i < n do
        cum := !cum + t.counts.(!i);
        if rank <= !cum then result := Some (t.edges.(!i), t.edges.(!i + 1));
        incr i
      done;
      match !result with
      | Some b -> b
      | None -> (t.hi, t.max_seen) (* the quantile sits in the overflow tail *)
    end
  end

let quantile t q =
  if not (0.0 <= q && q <= 1.0) then invalid_arg "Log_histogram.quantile: need 0 <= q <= 1";
  if t.total = 0 then nan
  else
    let bound_lo, bound_hi = quantile_bounds t q in
    if bound_lo = neg_infinity then t.lo (* underflow: lo is the only sound upper bound *)
    else bound_hi

let edge t i =
  if i < 0 || i > Array.length t.counts then invalid_arg "Log_histogram.edge: out of range";
  t.edges.(i)
