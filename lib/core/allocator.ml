module Graph = Mmfair_topology.Graph
module Obs = Mmfair_obs

(* Monomorphic copies of Stdlib's [min] and [max] for floats.  The
   polymorphic ones call the C compare on boxed floats; [Float.min] and
   [Float.max] would order a NaN differently.  These are the Stdlib
   definitions themselves, so every level and bound is bit-identical. *)
let[@inline] fmin (a : float) b = if a <= b then a else b
let[@inline] fmax (a : float) b = if a >= b then a else b
let[@inline] tol_for x = 1e-9 *. fmax 1.0 (Float.abs x)

(* The water-filling loop below works on the flat incidence index
   (Network.incidence): receivers are global ids, each link×session
   pair is a contiguous "cell" of [inc.link_cells], and all per-round
   state lives in prevalidated flat arrays so the hot loops do no
   bounds-checked record chasing and no per-call list allocation.

   The loop is event-driven.  Freezing a receiver updates only the
   cells on its own data-path, which keeps every link's linear usage
   model [const + slope·t] current.  An active receiver's rate is
   implicit ([w·t]) and is written only when it freezes.  The next
   level comes from two lazy min-heaps instead of per-round scans: the
   solve's finite-ρ receivers keyed by [ρ/w], and (linear engine) the
   active links keyed by the level [(cap − const)/slope] at which they
   saturate.  Freezing a receiver at [a ≤ t] can only raise a link's
   saturation level, so a stale key is a lower bound: it is refreshed
   when it reaches the top, and a retired link is dropped when it
   surfaces.  A round therefore costs O(log links + the path work of
   the receivers it freezes) when nobody listens for the trace. *)

(* A binary min-heap of (key, int) pairs over flat arrays sized by the
   caller — solves keep theirs in the arena below.  [keys] has one slot
   past the largest [size] a caller fills, for the sentinel of
   [min_child]. *)
type heap = { mutable keys : float array; mutable vals : int array; mutable size : int }

let heap_make n = { keys = Array.make (n + 1) 0.0; vals = Array.make (Int.max n 1) 0; size = 0 }

(* The smaller child of a parent whose left child is [l], ties to the
   left: [Bool.to_int] is [%identity], so this is a compare-and-set
   with no jump to mispredict.  Each descent first writes a [+∞]
   sentinel at [keys.(size)], so a missing right child needs no
   [l + 1 < size] test: the sentinel is never strictly less than a key
   ([link_key] maps NaN to infinity), so it is never picked, and the
   picks are the ones that test makes.  Without the annotation the
   reads would be polymorphic and the comparison a C call. *)
let[@inline] min_child (keys : float array) l =
  l + Bool.to_int (Array.unsafe_get keys (l + 1) < Array.unsafe_get keys l)

(* Both sifts move a hole: the entry at [i] is written once, at its
   final slot.  They make the comparisons a swapping sift makes and
   leave the same array, so pop order and ties do not depend on it.

   [sift_down] and [heap_pop] index only below [size], which a push
   never takes past the arrays' length, and at the sentinel slot they
   write first, so they skip the bounds checks.  The sentinel store
   itself is checked: one per descent. *)
let sift_down h i =
  let keys = h.keys and vals = h.vals and size = h.size in
  keys.(size) <- infinity;
  let k = Array.unsafe_get keys i and v = Array.unsafe_get vals i in
  let i = ref i and moving = ref true in
  while !moving do
    let l = (2 * !i) + 1 in
    if l >= size then moving := false
    else begin
      let c = min_child keys l in
      if Array.unsafe_get keys c < k then begin
        Array.unsafe_set keys !i (Array.unsafe_get keys c);
        Array.unsafe_set vals !i (Array.unsafe_get vals c);
        i := c
      end
      else moving := false
    end
  done;
  Array.unsafe_set keys !i k;
  Array.unsafe_set vals !i v

let sift_up h i =
  let k = h.keys.(i) and v = h.vals.(i) in
  let i = ref i and moving = ref true in
  while !moving && !i > 0 do
    let p = (!i - 1) / 2 in
    if k < h.keys.(p) then begin
      h.keys.(!i) <- h.keys.(p);
      h.vals.(!i) <- h.vals.(p);
      i := p
    end
    else moving := false
  done;
  h.keys.(!i) <- k;
  h.vals.(!i) <- v

(* O(size): order entries 0 .. size−1 written directly into the arrays. *)
let heapify h =
  for i = (h.size / 2) - 1 downto 0 do
    sift_down h i
  done

(* Inlined, as is every helper below that takes or returns a float on
   the round path: a call would box the float. *)
let[@inline] heap_push h k v =
  h.keys.(h.size) <- k;
  h.vals.(h.size) <- v;
  h.size <- h.size + 1;
  sift_up h (h.size - 1)

(* Floyd's bottom-up deletion: the root's hole moves to a leaf along
   the smaller child (ties to the left, as in [sift_down]), one
   comparison per level, then the last entry climbs back while its
   parent's key is [>=] its own.  Keys never fall along that path, so
   the entry settles exactly where [sift_down] would have stopped it
   (the first child with a key [>=] its own), and the array, the pop
   order and the tie order are the ones a sift from the root leaves.
   That needs keys totally ordered, and they are: [link_key] maps a
   NaN level to infinity, and ρ and the weights are positive and
   finite.  The last entry usually belongs near the bottom, so the
   climb is short and a pop costs about one comparison per level
   instead of two. *)
let heap_pop h =
  let n = h.size - 1 in
  h.size <- n;
  if n > 0 then begin
    let keys = h.keys and vals = h.vals in
    let k = Array.unsafe_get keys n and v = Array.unsafe_get vals n in
    keys.(n) <- infinity;
    let i = ref 0 and child = ref 1 in
    while !child < n do
      let c = min_child keys !child in
      Array.unsafe_set keys !i (Array.unsafe_get keys c);
      Array.unsafe_set vals !i (Array.unsafe_get vals c);
      i := c;
      child := (2 * c) + 1
    done;
    let moving = ref true in
    while !moving && !i > 0 do
      let p = (!i - 1) / 2 in
      if Array.unsafe_get keys p >= k then begin
        Array.unsafe_set keys !i (Array.unsafe_get keys p);
        Array.unsafe_set vals !i (Array.unsafe_get vals p);
        i := p
      end
      else moving := false
    done;
    Array.unsafe_set keys !i k;
    Array.unsafe_set vals !i v
  end

let[@inline] heap_rekey_top h k =
  h.keys.(0) <- k;
  sift_down h 0

type state = {
  net : Network.t;
  inc : Network.incidence;
  cap : float array; (* capacity per link: the graph's own array, read only *)
  vfn : Redundancy_fn.t array; (* per session *)
  rho : float array; (* per session *)
  single_rate : bool array; (* per session; cleared once its cascade is queued *)
  weight : float array; (* per gid *)
  rates : float array; (* per gid *)
  active : bool array; (* per gid *)
  mutable n_active : int;
  (* per compact (link, session) cell of the incidence index *)
  cell_active : int array;
  cell_max_frozen : float array;
  cell_sum_frozen : float array;
  (* per link: the usage model u(t) = const + slope·t (linear engine) *)
  link_const : float array;
  link_slope : float array;
  link_active : int array; (* active receivers crossing the link *)
  ever_saturated : bool array;
  (* compact set of links with link_active > 0 *)
  active_links : int array;
  link_pos : int array; (* position in active_links, -1 once retired *)
  mutable n_active_links : int;
  solve : int array; (* the solved sessions, each once *)
  n_solve : int;
  link_heap : heap; (* linear engine: active links by saturation level *)
  rho_heap : heap; (* finite-ρ receivers by ρ/w *)
  sat : int array; (* per round: saturated links *)
  cascade : int array; (* per round: single-rate sessions to freeze whole *)
  (* per round, reset at its start *)
  mutable want : bool; (* a probe listens: build the trace payload *)
  mutable n_frozen : int;
  mutable frozen_gids : int list; (* only while [want] *)
  mutable n_cascade : int;
  touched : int array;
  n_touched : int;
      (* The dirty-list: the links the solved sessions cross.  Only
         these carry initialized aggregates — the state arrays are
         arena-owned and oversized, and entries off the dirty-list hold
         stale garbage from earlier solves.  Only dirty-list links
         constrain the solve: frozen usage elsewhere is t-independent
         and none of the solved sessions' business. *)
}

(* No solve — a cold [max_min] is the one whose component is every
   session — pays O(links + receivers) allocation and zeroing.  The
   state arrays live in a per-domain arena: oversized flat arrays
   recycled across solves, with generation counters ("stamps") marking
   which entries belong to the current solve.  [stamp] starts at 1 so
   a freshly grown, all-zero stamp array reads as stale; data arrays
   grow without preserving contents (every entry the solve reads is
   re-initialized under the current stamp first).

   The arena is per-domain ([Domain.DLS]), so pooled batch solves each
   get their own.  [busy] marks it taken: a solve started from inside
   another one on the same domain (a probe sink that solves) gets a
   fresh scratch instead.

   [n_links], [n_sessions], [n_receivers] and [n_cells] are the largest
   network the arena has been grown for: every per-link array holds at
   least [n_links] entries (the link heap's keys one more), and so on. *)
type scratch = {
  mutable busy : bool;
  mutable stamp : int;
  mutable n_links : int;
  mutable n_sessions : int;
  mutable n_receivers : int;
  mutable n_cells : int;
  (* per link *)
  mutable l_const : float array;
  mutable l_slope : float array;
  mutable l_active : int array;
  mutable l_sat : bool array;
  mutable l_list : int array;
  mutable l_pos : int array;
  mutable l_stamp : int array;
  mutable l_touched : int array;
  mutable l_sat_list : int array;
  l_heap : heap;
  (* per session *)
  mutable s_vfn : Redundancy_fn.t array;
  mutable s_rho : float array;
  mutable s_single : bool array;
  mutable s_comp_stamp : int array;
  mutable s_seen_stamp : int array;
  mutable s_solve : int array;
  mutable s_cascade : int array;
  (* per global receiver id *)
  mutable g_weight : float array;
  mutable g_rates : float array;
  mutable g_active : bool array;
  g_rho_heap : heap;
  (* per compact cell *)
  mutable c_active : int array;
  mutable c_max : float array;
  mutable c_sum : float array;
}

let new_scratch () =
  {
    busy = false;
    stamp = 1;
    n_links = 0;
    n_sessions = 0;
    n_receivers = 0;
    n_cells = 0;
    l_const = [||];
    l_slope = [||];
    l_active = [||];
    l_sat = [||];
    l_list = [||];
    l_pos = [||];
    l_stamp = [||];
    l_touched = [||];
    l_sat_list = [||];
    l_heap = heap_make 0;
    s_vfn = [||];
    s_rho = [||];
    s_single = [||];
    s_comp_stamp = [||];
    s_seen_stamp = [||];
    s_solve = [||];
    s_cascade = [||];
    g_weight = [||];
    g_rates = [||];
    g_active = [||];
    g_rho_heap = heap_make 0;
    c_active = [||];
    c_max = [||];
    c_sum = [||];
  }

let scratch_key = Domain.DLS.new_key new_scratch

(* The arena is released on the way out, raise or return, by a plain
   handler: the Stdlib protect combinator would cost two closures per
   solve (the build lint refuses it here). *)
let with_scratch f =
  let sc = Domain.DLS.get scratch_key in
  if sc.busy then f (new_scratch ())
  else begin
    sc.busy <- true;
    match f sc with
    | r ->
        sc.busy <- false;
        r
    | exception e ->
        sc.busy <- false;
        raise e
  end

let ensure_f a n = if Array.length a >= n then a else Array.make (Int.max n (2 * Array.length a)) 0.0
let ensure_i a n = if Array.length a >= n then a else Array.make (Int.max n (2 * Array.length a)) 0
let ensure_b a n = if Array.length a >= n then a else Array.make (Int.max n (2 * Array.length a)) false

let ensure_vfn a n =
  if Array.length a >= n then a
  else Array.make (Int.max n (2 * Array.length a)) Redundancy_fn.Efficient

(* Grow every arena array to hold a network of [nl] links, [m]
   sessions, [n] receivers and [nc] cells, and record the new high-water
   marks.  Each array keeps its length when it already fits. *)
let grow sc ~nl ~m ~n ~nc =
  sc.l_const <- ensure_f sc.l_const nl;
  sc.l_slope <- ensure_f sc.l_slope nl;
  sc.l_active <- ensure_i sc.l_active nl;
  sc.l_sat <- ensure_b sc.l_sat nl;
  sc.l_list <- ensure_i sc.l_list nl;
  sc.l_pos <- ensure_i sc.l_pos nl;
  sc.l_stamp <- ensure_i sc.l_stamp nl;
  sc.l_touched <- ensure_i sc.l_touched nl;
  sc.l_sat_list <- ensure_i sc.l_sat_list nl;
  sc.l_heap.keys <- ensure_f sc.l_heap.keys (nl + 1);
  sc.l_heap.vals <- ensure_i sc.l_heap.vals nl;
  sc.s_vfn <- ensure_vfn sc.s_vfn m;
  sc.s_rho <- ensure_f sc.s_rho m;
  sc.s_single <- ensure_b sc.s_single m;
  sc.s_comp_stamp <- ensure_i sc.s_comp_stamp m;
  sc.s_seen_stamp <- ensure_i sc.s_seen_stamp m;
  sc.s_solve <- ensure_i sc.s_solve m;
  sc.s_cascade <- ensure_i sc.s_cascade m;
  sc.g_weight <- ensure_f sc.g_weight n;
  sc.g_rates <- ensure_f sc.g_rates n;
  sc.g_active <- ensure_b sc.g_active n;
  sc.g_rho_heap.keys <- ensure_f sc.g_rho_heap.keys (n + 1);
  sc.g_rho_heap.vals <- ensure_i sc.g_rho_heap.vals n;
  sc.c_active <- ensure_i sc.c_active nc;
  sc.c_max <- ensure_f sc.c_max nc;
  sc.c_sum <- ensure_f sc.c_sum nc;
  sc.n_links <- Int.max sc.n_links nl;
  sc.n_sessions <- Int.max sc.n_sessions m;
  sc.n_receivers <- Int.max sc.n_receivers n;
  sc.n_cells <- Int.max sc.n_cells nc

(* Pin every session outside [component] at its [frozen] row and build
   the state directly in its post-freeze shape, touching only the
   component's neighborhood.  Three passes, all proportional to the
   component's sessions, receivers and incident cells:

   1. stamp the component's sessions, activate their receivers, and
      collect the dirty-list of links they cross;
   2. pin the receivers of every other session sharing one of those
      links (rows of sessions the solve never reads are adopted
      without validation — see the .mli);
   3. per-cell frozen aggregates and per-link usage models over the
      dirty-list only.

   A cold solve lists every session, so pass 2 would pin nobody: it is
   skipped whenever the component holds every session.

   Before the passes, one comparison of the network's links, sessions,
   receivers and cells with the arena's high-water marks decides
   whether the arena must grow; a network it already fits costs no
   store into the arena record.

   Also picks the engine for the restricted problem: the linear model
   needs every involved session linear — including pinned neighbors,
   whose [Custom] cells would otherwise contribute a bogus constant 0
   — while the unit-weight requirement only concerns the receivers
   actually being raised. *)
let init sc net ~component ~frozen =
  let g = Network.graph net in
  let inc = Network.incidence net in
  let m = Network.session_count net in
  let n = inc.Network.n_receivers in
  let nl = Graph.link_count g in
  let nc = inc.Network.n_cells in
  if Pvec.length frozen <> m then
    invalid_arg "Allocator.max_min_partial: frozen rates must cover every session";
  if nl > sc.n_links || m > sc.n_sessions || n > sc.n_receivers || nc > sc.n_cells then
    grow sc ~nl ~m ~n ~nc;
  sc.stamp <- sc.stamp + 1;
  let stamp = sc.stamp in
  let session_first = inc.Network.session_first in
  let rr = inc.Network.recv_row and rc = inc.Network.recv_cells in
  (* Specs and frozen rows are read off their spines: a call per
     session would be a real one in a build without cross-module
     inlining (DESIGN §11). *)
  let specs = Pvec.unsafe_spine (Network.unsafe_specs net) in
  let n_touched = ref 0 in
  let n_solve = ref 0 in
  let n_active = ref 0 in
  let all_linear = ref true in
  let unit_weights = ref true in
  for ci = 0 to Array.length component - 1 do
    let i = component.(ci) in
    if i < 0 || i >= m then
      invalid_arg (Printf.sprintf "Allocator.max_min_partial: unknown session %d" i);
    if sc.s_comp_stamp.(i) <> stamp then begin
      sc.s_comp_stamp.(i) <- stamp;
      sc.s_seen_stamp.(i) <- stamp;
      sc.s_solve.(!n_solve) <- i;
      incr n_solve;
      let spec = specs.(i lsr 5).(i land 31) in
      let vfn = spec.Network.vfn in
      sc.s_vfn.(i) <- vfn;
      sc.s_rho.(i) <- spec.Network.rho;
      sc.s_single.(i) <- spec.Network.session_type = Network.Single_rate;
      (match vfn with Redundancy_fn.Custom _ -> all_linear := false | _ -> ());
      let w = spec.Network.weights in
      let lo = session_first.(i) in
      for gid = lo to session_first.(i + 1) - 1 do
        let wk = w.(gid - lo) in
        sc.g_weight.(gid) <- wk;
        if wk <> 1.0 then unit_weights := false;
        sc.g_active.(gid) <- true;
        incr n_active;
        for p = rr.(gid) to rr.(gid + 1) - 1 do
          let l = rc.(p) in
          if sc.l_stamp.(l) <> stamp then begin
            sc.l_stamp.(l) <- stamp;
            sc.l_touched.(!n_touched) <- l;
            incr n_touched
          end
        done
      done
    end
  done;
  (* Passes 2 and 3 walk every cell of the dirty-list: the arena's
     arrays are read through locals, and pass 3 sums each link's usage
     model in locals (from 0, in cell order) and stores it with the
     link's other state once.  Indices come straight off the CSR (and
     a frozen row's length is checked before it is read), so both
     passes skip the bounds checks.  Pass 2 runs only when some
     session is outside the component: otherwise every session's seen
     stamp is already the solve's and it would pin nobody. *)
  let link_row = inc.Network.link_row and cell_session = inc.Network.cell_session in
  let cell_first = inc.Network.cell_first and link_cells = inc.Network.link_cells in
  let frozen_rows = Pvec.unsafe_spine frozen in
  let seen = sc.s_seen_stamp and s_vfn = sc.s_vfn in
  let g_active = sc.g_active and g_rates = sc.g_rates in
  if !n_solve < m then begin
    for tp = 0 to !n_touched - 1 do
      let l = sc.l_touched.(tp) in
      for c = link_row.(l) to link_row.(l + 1) - 1 do
        let i = Array.unsafe_get cell_session c in
        if Array.unsafe_get seen i <> stamp then begin
          Array.unsafe_set seen i stamp;
          let lo = Array.unsafe_get session_first i and hi = Array.unsafe_get session_first (i + 1) in
          let row = Array.unsafe_get (Array.unsafe_get frozen_rows (i lsr 5)) (i land 31) in
          if Array.length row <> hi - lo then
            invalid_arg
              (Printf.sprintf "Allocator.max_min_partial: session %d frozen rate count mismatch" i);
          let vfn = (Array.unsafe_get (Array.unsafe_get specs (i lsr 5)) (i land 31)).Network.vfn in
          Array.unsafe_set s_vfn i vfn;
          (match vfn with Redundancy_fn.Custom _ -> all_linear := false | _ -> ());
          for gid = lo to hi - 1 do
            let r = Array.unsafe_get row (gid - lo) in
            if not (Float.is_finite r && r >= 0.0) then
              invalid_arg
                (Printf.sprintf
                   "Allocator.max_min_partial: session %d has a negative or non-finite frozen rate" i);
            Array.unsafe_set g_active gid false;
            Array.unsafe_set g_rates gid r
          done
        end
      done
    done
  end;
  let c_active = sc.c_active and c_max = sc.c_max and c_sum = sc.c_sum in
  let n_active_links = ref 0 in
  for tp = 0 to !n_touched - 1 do
    let l = sc.l_touched.(tp) in
    let const = ref 0.0 and slope = ref 0.0 and active = ref 0 in
    for c = link_row.(l) to link_row.(l + 1) - 1 do
      let lo = Array.unsafe_get cell_first c and hi = Array.unsafe_get cell_first (c + 1) in
      let n_act = ref 0 in
      let mx = ref 0.0 and sum = ref 0.0 in
      for p = lo to hi - 1 do
        let gid = Array.unsafe_get link_cells p in
        if Array.unsafe_get g_active gid then incr n_act
        else begin
          let a = Array.unsafe_get g_rates gid in
          if a > !mx then mx := a;
          sum := !sum +. a
        end
      done;
      Array.unsafe_set c_active c !n_act;
      Array.unsafe_set c_max c !mx;
      Array.unsafe_set c_sum c !sum;
      (match Array.unsafe_get s_vfn (Array.unsafe_get cell_session c) with
      | Redundancy_fn.Efficient -> if !n_act > 0 then slope := !slope +. 1.0 else const := !const +. !mx
      | Redundancy_fn.Scaled v ->
          if !n_act > 0 then slope := !slope +. v else const := !const +. (v *. !mx)
      | Redundancy_fn.Additive ->
          slope := !slope +. float_of_int !n_act;
          const := !const +. !sum
      | Redundancy_fn.Custom _ -> ());
      active := !active + !n_act
    done;
    sc.l_const.(l) <- !const;
    sc.l_slope.(l) <- !slope;
    sc.l_active.(l) <- !active;
    sc.l_sat.(l) <- false;
    if !active > 0 then begin
      sc.l_list.(!n_active_links) <- l;
      sc.l_pos.(l) <- !n_active_links;
      incr n_active_links
    end
    else sc.l_pos.(l) <- -1
  done;
  let st =
    {
      net;
      inc;
      cap = Graph.unsafe_capacities g;
      vfn = sc.s_vfn;
      rho = sc.s_rho;
      single_rate = sc.s_single;
      weight = sc.g_weight;
      rates = sc.g_rates;
      active = sc.g_active;
      n_active = !n_active;
      cell_active = sc.c_active;
      cell_max_frozen = sc.c_max;
      cell_sum_frozen = sc.c_sum;
      link_const = sc.l_const;
      link_slope = sc.l_slope;
      link_active = sc.l_active;
      ever_saturated = sc.l_sat;
      active_links = sc.l_list;
      link_pos = sc.l_pos;
      n_active_links = !n_active_links;
      solve = sc.s_solve;
      n_solve = !n_solve;
      link_heap = sc.l_heap;
      rho_heap = sc.g_rho_heap;
      sat = sc.l_sat_list;
      cascade = sc.s_cascade;
      want = false;
      n_frozen = 0;
      frozen_gids = [];
      n_cascade = 0;
      touched = sc.l_touched;
      n_touched = !n_touched;
    }
  in
  (st, !all_linear && !unit_weights)

(* The round path below ([retire_link], [shift], [freeze],
   [freeze_link], [link_key], [settle_links] and the pops of
   [linear_saturated]) skips the bounds checks on its per-link,
   per-cell and per-receiver reads.  Every index is a link, cell or
   receiver id of the network: it comes off the incidence CSR, off a
   heap that holds only such ids, or off [active_links] below
   [n_active_links]; the arena sizes its arrays for every link, cell,
   receiver and session, and [cap] is the graph's own array.  The
   per-round lists ([sat], [cascade]) stay checked. *)
let retire_link st l =
  let p = Array.unsafe_get st.link_pos l in
  if p >= 0 then begin
    let last = st.n_active_links - 1 in
    let moved = Array.unsafe_get st.active_links last in
    Array.unsafe_set st.active_links p moved;
    Array.unsafe_set st.link_pos moved p;
    st.n_active_links <- last;
    Array.unsafe_set st.link_pos l (-1)
  end

(* Apply a cell's change of (const, slope) contribution to its link's
   usage model. *)
let[@inline] shift st l ~oc ~os ~nc ~ns =
  Array.unsafe_set st.link_const l (Array.unsafe_get st.link_const l +. (nc -. oc));
  Array.unsafe_set st.link_slope l (Array.unsafe_get st.link_slope l +. (ns -. os))

(* Freeze receiver [gid] at rate [a] unless it is frozen already:
   O(|data-path|), updating only the cells its path crosses.  Each
   cell's old and new (const, slope) contribution comes from one
   dispatch on the session's function — the reference engine's
   per-round classification, evaluated only when the cell changes.  A
   single-rate session losing its first receiver is queued for the
   round's cascade. *)
let[@inline] freeze st gid a =
  if Array.unsafe_get st.active gid then begin
    Array.unsafe_set st.active gid false;
    st.n_active <- st.n_active - 1;
    Array.unsafe_set st.rates gid a;
    let inc = st.inc in
    let i = Array.unsafe_get inc.Network.gid_session gid in
    let vfn = Array.unsafe_get st.vfn i in
    let rr = inc.Network.recv_row in
    for p = Array.unsafe_get rr gid to Array.unsafe_get rr (gid + 1) - 1 do
      let l = Array.unsafe_get inc.Network.recv_cells p and c = Array.unsafe_get inc.Network.recv_cell_of p in
      let n_old = Array.unsafe_get st.cell_active c in
      let max_old = Array.unsafe_get st.cell_max_frozen c in
      let sum_old = Array.unsafe_get st.cell_sum_frozen c in
      let n_new = n_old - 1 in
      let max_new = if a > max_old then a else max_old and sum_new = sum_old +. a in
      Array.unsafe_set st.cell_active c n_new;
      Array.unsafe_set st.cell_max_frozen c max_new;
      Array.unsafe_set st.cell_sum_frozen c sum_new;
      (match vfn with
      | Redundancy_fn.Efficient ->
          shift st l
            ~oc:(if n_old > 0 then 0.0 else max_old)
            ~os:(if n_old > 0 then 1.0 else 0.0)
            ~nc:(if n_new > 0 then 0.0 else max_new)
            ~ns:(if n_new > 0 then 1.0 else 0.0)
      | Redundancy_fn.Scaled v ->
          shift st l
            ~oc:(if n_old > 0 then 0.0 else v *. max_old)
            ~os:(if n_old > 0 then v else 0.0)
            ~nc:(if n_new > 0 then 0.0 else v *. max_new)
            ~ns:(if n_new > 0 then v else 0.0)
      | Redundancy_fn.Additive ->
          shift st l ~oc:sum_old ~os:(float_of_int n_old) ~nc:sum_new ~ns:(float_of_int n_new)
      | Redundancy_fn.Custom _ -> shift st l ~oc:0.0 ~os:0.0 ~nc:0.0 ~ns:0.0);
      let left = Array.unsafe_get st.link_active l - 1 in
      Array.unsafe_set st.link_active l left;
      if left = 0 then retire_link st l
    done;
    st.n_frozen <- st.n_frozen + 1;
    if st.want then st.frozen_gids <- gid :: st.frozen_gids;
    if Array.unsafe_get st.single_rate i then begin
      Array.unsafe_set st.single_rate i false;
      st.cascade.(st.n_cascade) <- i;
      st.n_cascade <- st.n_cascade + 1
    end
  end

(* Freeze every active receiver crossing link [l] at level [t]. *)
let[@inline] freeze_link st l t =
  let inc = st.inc in
  let cell_first = inc.Network.cell_first and link_row = inc.Network.link_row in
  for p = Array.unsafe_get cell_first (Array.unsafe_get link_row l)
      to Array.unsafe_get cell_first (Array.unsafe_get link_row (l + 1)) - 1 do
    let gid = Array.unsafe_get inc.Network.link_cells p in
    freeze st gid (Array.unsafe_get st.weight gid *. t)
  done

(* Session usage on one link at common normalized level [t]:
   allocation-free fold over the cell's receivers (a [Custom] function
   still materializes its rate list — it consumes one by construction). *)
let cell_usage_at st ~cell_lo ~cell_hi i t =
  let n = cell_hi - cell_lo in
  if n = 0 then 0.0
  else
    let rate_at j =
      let gid = st.inc.Network.link_cells.(cell_lo + j) in
      if st.active.(gid) then st.weight.(gid) *. t else st.rates.(gid)
    in
    match st.vfn.(i) with
    | Redundancy_fn.Efficient | Redundancy_fn.Scaled _ ->
        let mx = ref 0.0 in
        for j = 0 to n - 1 do
          let x = rate_at j in
          if x > !mx then mx := x
        done;
        (match st.vfn.(i) with Redundancy_fn.Scaled k -> k *. !mx | _ -> !mx)
    | Redundancy_fn.Additive ->
        let s = ref 0.0 in
        for j = 0 to n - 1 do
          s := !s +. rate_at j
        done;
        !s
    | Redundancy_fn.Custom _ -> Redundancy_fn.apply_fold st.vfn.(i) ~n ~get:rate_at

let link_usage_at st ~link t =
  let inc = st.inc in
  let s = ref 0.0 in
  for c = inc.Network.link_row.(link) to inc.Network.link_row.(link + 1) - 1 do
    s :=
      !s
      +. cell_usage_at st ~cell_lo:inc.Network.cell_first.(c) ~cell_hi:inc.Network.cell_first.(c + 1)
           inc.Network.cell_session.(c) t
  done;
  !s

(* Linear engine: the level at which link [l] saturates under its
   current usage model; a NaN model never binds. *)
let[@inline] link_key st l =
  let slope = Array.unsafe_get st.link_slope l in
  if slope > 0.0 then
    let k = (Array.unsafe_get st.cap l -. Array.unsafe_get st.link_const l) /. slope in
    if Float.is_nan k then infinity else k
  else infinity

(* Bring the link heap's top up to date: drop retired links and
   refresh stale keys until the top's key is its link's current
   saturation level — then it is the minimum over all active links,
   since every other recorded key is a lower bound of its own. *)
let rec settle_links st =
  let h = st.link_heap in
  if h.size > 0 then begin
    let l = Array.unsafe_get h.vals 0 in
    if Array.unsafe_get st.link_pos l < 0 then begin
      heap_pop h;
      settle_links st
    end
    else
      let k = link_key st l in
      if k <> Array.unsafe_get h.keys 0 then begin
        heap_rekey_top h k;
        settle_links st
      end
  end

(* The links a solve is judged on: its dirty-list.  Usage elsewhere is
   all-frozen, t-independent, and no concern of this solve's — a stale
   pin overfilling a link the component never crosses must not clamp
   the component to zero. *)
let iter_solve_links st f =
  for tp = 0 to st.n_touched - 1 do
    f st.touched.(tp)
  done

(* The search bracket is [t_cur, t_cur + max_cap/w_min + 1], with
   [max_cap] the graph's largest capacity ({!Network.max_capacity}),
   exactly as in [Allocator_reference]: every active receiver crosses a
   link no larger, so it bounds the search.  The bracket must not
   shrink to the dirty-list's largest capacity: for a [Custom] function
   that is not monotone (a NaN cliff, say) the bisection's answer
   depends on where it starts, and the engines must agree. *)
let bisection_bound st ~max_cap t_cur rho_bound =
  (* Links with no active receiver have t-independent usage, so once
     they pass at [t_cur] they pass at every t ≥ t_cur: the search
     itself only re-evaluates links that still carry active
     receivers. *)
  let feasible_active t =
    let ok = ref true in
    let p = ref 0 in
    while !ok && !p < st.n_active_links do
      let l = st.active_links.(!p) in
      if link_usage_at st ~link:l t > st.cap.(l) +. tol_for st.cap.(l) then ok := false;
      incr p
    done;
    !ok
  in
  let feasible_all t =
    let ok = ref true in
    iter_solve_links st (fun l ->
        if link_usage_at st ~link:l t > st.cap.(l) +. tol_for st.cap.(l) then ok := false);
    !ok
  in
  let session_first = st.inc.Network.session_first in
  let min_weight = ref infinity in
  for si = 0 to st.n_solve - 1 do
    let i = st.solve.(si) in
    for gid = session_first.(i) to session_first.(i + 1) - 1 do
      if st.active.(gid) then min_weight := fmin !min_weight st.weight.(gid)
    done
  done;
  let weight_floor = if Float.is_finite !min_weight && !min_weight > 0.0 then !min_weight else 1.0 in
  let hi = fmin rho_bound (t_cur +. (max_cap /. weight_floor) +. 1.0) in
  if not (feasible_all t_cur) then t_cur
  else if feasible_active hi then hi
  else Mmfair_numerics.Bisect.sup_satisfying feasible_active t_cur hi

(* Linear engine: the links saturated at level [t], listed in
   [st.sat]; returns their count.  Pops every heap entry recorded
   within [window] of [t] (a recorded key is a lower bound of the
   link's level, so none is missed), decides each by its exact slack,
   and pushes the unsaturated ones back with a fresh key.  A saturated
   link retires this round, so it is not pushed back. *)
let[@inline] linear_saturated st ~window t =
  let h = st.link_heap in
  let popped = ref 0 in
  while h.size > 0 && Array.unsafe_get h.keys 0 <= t +. window do
    let l = Array.unsafe_get h.vals 0 in
    heap_pop h;
    if Array.unsafe_get st.link_pos l >= 0 then begin
      st.sat.(!popped) <- l;
      incr popped
    end
  done;
  let n = ref 0 in
  for j = 0 to !popped - 1 do
    let l = st.sat.(j) in
    let cap = Array.unsafe_get st.cap l in
    let slack = cap -. (Array.unsafe_get st.link_const l +. (Array.unsafe_get st.link_slope l *. t)) in
    if slack <= tol_for cap then begin
      Array.unsafe_set st.ever_saturated l true;
      st.sat.(!n) <- l;
      incr n
    end
    else heap_push h (link_key st l) l
  done;
  !n

(* Slack sweep over the active links at level [t]: the tightest link
   and its slack.  With [~collect] (the bisection engine's saturation
   test) it also marks every link within tolerance of its capacity and
   lists it in [st.sat] from position [n_sat]; returns the new count.
   The linear engine runs it only for the trace payload or a
   no-progress fallback. *)
let slack_sweep st ~use_linear ~collect t n_sat =
  let min_slack = ref infinity and min_link = ref (-1) and n_sat = ref n_sat in
  for p = st.n_active_links - 1 downto 0 do
    let l = st.active_links.(p) in
    let u =
      if use_linear then st.link_const.(l) +. (st.link_slope.(l) *. t) else link_usage_at st ~link:l t
    in
    let slack = st.cap.(l) -. u in
    if collect && slack <= tol_for st.cap.(l) then begin
      st.ever_saturated.(l) <- true;
      st.sat.(!n_sat) <- l;
      incr n_sat
    end;
    if slack < !min_slack then begin
      min_slack := slack;
      min_link := l
    end
  done;
  (!min_slack, !min_link, !n_sat)

let solver_name = "Allocator"

(* Pinned cells contribute t-independent usage, so only a solved
   session's [Custom] function can break monotone progress: the
   verdicts of [Solver_error.stalled], scoped to the solved sessions
   (all of them in a cold solve, where the two agree). *)
let stalled_error st round residual_slack =
  let non_mono = ref (-1) in
  for si = st.n_solve - 1 downto 0 do
    if not (Redundancy_fn.is_linear st.vfn.(st.solve.(si))) then non_mono := st.solve.(si)
  done;
  if !non_mono >= 0 then Solver_error.Non_monotone_vfn { solver = solver_name; session = !non_mono; round }
  else Solver_error.No_progress { solver = solver_name; round; residual_slack }

(* The water-filling loop is instrumented with per-round probe events
   (Mmfair_obs.Probe), the only way to observe its rounds.  When
   probes are disabled no per-round payload is built at all — the hot
   loop pays one flag check per round, and the linear engine never
   sweeps the active links.

   One loop for every solve and both engines; the engines differ only
   in how a round finds its level and its saturated links.  Every loop
   below is bounded by [st.n_*] counters, heap sizes or the solve's own
   session/link sets, never by [Array.length] of a state array (arena
   arrays are oversized). *)
let water_fill st ~use_linear =
  let inc = st.inc in
  let session_first = inc.Network.session_first in
  let gid_session = inc.Network.gid_session in
  let max_cap = Network.max_capacity st.net in
  (* Every active link's slope is ≥ 1 (unit weights, Scaled factors
     ≥ 1), so a link whose slack is within [tol_for cap] saturates
     within [tol_for cap] of the level — the window pops them all, with
     room for rounding in the recorded keys.  A window wider than a
     link needs only pops it early, to be decided by its exact slack. *)
  let window = 2.0 *. tol_for max_cap in
  let rh = st.rho_heap in
  rh.size <- 0;
  for si = 0 to st.n_solve - 1 do
    let i = st.solve.(si) in
    let rho = st.rho.(i) in
    if Float.is_finite rho then
      for gid = session_first.(i) to session_first.(i + 1) - 1 do
        rh.keys.(rh.size) <- rho /. st.weight.(gid);
        rh.vals.(rh.size) <- gid;
        rh.size <- rh.size + 1
      done
  done;
  heapify rh;
  let lh = st.link_heap in
  lh.size <- 0;
  if use_linear then begin
    for p = 0 to st.n_active_links - 1 do
      let l = st.active_links.(p) in
      lh.keys.(p) <- link_key st l;
      lh.vals.(p) <- l
    done;
    lh.size <- st.n_active_links;
    heapify lh
  end;
  let round_no = ref 0 in
  let t_cur = ref 0.0 in
  let guard = ref (st.n_active + st.n_touched + 2) in
  while st.n_active > 0 do
    (* One flag check per round: when nobody listens, the per-round
       trace payload (frozen list, saturated set, slack sweep) is never
       built. *)
    let want = Obs.Probe.enabled () in
    st.want <- want;
    st.n_frozen <- 0;
    st.frozen_gids <- [];
    st.n_cascade <- 0;
    decr guard;
    incr round_no;
    if !guard < 0 then begin
      let slack, _, _ = slack_sweep st ~use_linear ~collect:false !t_cur 0 in
      Solver_error.raise_error (stalled_error st !round_no slack)
    end;
    (* The ρ cursor: skip receivers frozen since; the top is the
       largest level at which no active receiver's rate w·t exceeds
       its session's rho. *)
    while rh.size > 0 && not st.active.(rh.vals.(0)) do
      heap_pop rh
    done;
    let rho_bound = if rh.size > 0 then rh.keys.(0) else infinity in
    let t_new =
      if use_linear then begin
        settle_links st;
        let bound = if lh.size > 0 then lh.keys.(0) else infinity in
        fmin (fmax bound !t_cur) rho_bound
      end
      else bisection_bound st ~max_cap !t_cur rho_bound
    in
    let t_new = fmax t_new !t_cur in
    (* Saturation, judged before anything freezes this round: the link
       heap's window for the linear engine, a sweep of the active links
       for bisection.  The sweep also yields the tightest link, which
       the trace reports. *)
    let n_sat = if use_linear then linear_saturated st ~window t_new else 0 in
    let min_slack, min_slack_link, n_sat =
      if want || not use_linear then slack_sweep st ~use_linear ~collect:(not use_linear) t_new n_sat
      else (infinity, -1, n_sat)
    in
    let saturated_set =
      if not want then []
      else begin
        let acc = ref [] in
        iter_solve_links st (fun l -> if st.ever_saturated.(l) then acc := l :: !acc);
        List.sort Int.compare !acc
      end
    in
    (* Step 6: freeze receivers at rho (walking the ρ cursor forward),
       then every receiver crossing a saturated link. *)
    let at_rho = ref true in
    while !at_rho && rh.size > 0 do
      let gid = rh.vals.(0) in
      let rho = st.rho.(gid_session.(gid)) in
      if not st.active.(gid) then heap_pop rh
      else if st.weight.(gid) *. t_new >= rho -. tol_for rho then begin
        heap_pop rh;
        freeze st gid rho
      end
      else at_rho := false
    done;
    for j = 0 to n_sat - 1 do
      freeze_link st st.sat.(j) t_new
    done;
    (* Numerical fallback: bisection can stop a hair below saturation;
       force progress by freezing receivers on the tightest link.
       Nothing froze, so the state is still the one the sweep sees. *)
    if st.n_frozen = 0 then begin
      let min_slack, min_slack_link, _ =
        if want || not use_linear then (min_slack, min_slack_link, 0)
        else slack_sweep st ~use_linear ~collect:false t_new 0
      in
      if min_slack_link < 0 then begin
        (* Every slack comparison failed — usage is NaN somewhere.
           Name the first offending link for the report. *)
        let nan_link = ref None in
        for p = st.n_active_links - 1 downto 0 do
          let l = st.active_links.(p) in
          if not (Float.is_finite (link_usage_at st ~link:l t_new)) then nan_link := Some l
        done;
        Solver_error.raise_error
          (Solver_error.Stuck_link
             { solver = solver_name; round = !round_no; link = !nan_link; residual_slack = min_slack })
      end;
      freeze_link st min_slack_link t_new
    end;
    (* Step 7: a single-rate session freezes as a unit — only the
       sessions that lost a receiver this round are visited. *)
    for q = 0 to st.n_cascade - 1 do
      let i = st.cascade.(q) in
      for gid = session_first.(i) to session_first.(i + 1) - 1 do
        freeze st gid (st.weight.(gid) *. t_new)
      done
    done;
    if want then begin
      let frozen =
        List.map
          (fun gid ->
            let i = gid_session.(gid) in
            (i, gid - session_first.(i), st.rates.(gid)))
          (List.sort Int.compare st.frozen_gids)
      in
      let ev =
        {
          Obs.Events.solver = solver_name;
          round = !round_no;
          level = t_new;
          increment = t_new -. !t_cur;
          active = st.n_active;
          frozen;
          saturated_links = saturated_set;
          bottleneck_link = (if min_slack_link >= 0 then Some min_slack_link else None);
          residual_slack = min_slack;
        }
      in
      Obs.Probe.round ev
    end;
    t_cur := t_new
  done

(* Water-fill the sessions in [component], every other session pinned
   at its [frozen] row as a fixed background load.  Setup and rounds
   are proportional to the component's neighborhood, not the network.
   [k] reads the finished state while the arena still holds it. *)
let solve net ~component ~frozen k =
  with_scratch (fun sc ->
      let st, use_linear = init sc net ~component ~frozen in
      water_fill st ~use_linear;
      k st)

(* Session [i]'s solved rates, a fresh row cut from the arena by a
   loop over a float array: [Array.sub] is a polymorphic C call that
   inspects its argument's tag, once per session.  A one-receiver row
   is a literal, which is allocated inline: [Array.create_float] is a
   C call too. *)
let row st i =
  let session_first = st.inc.Network.session_first and rates = st.rates in
  let lo = session_first.(i) in
  let n = session_first.(i + 1) - lo in
  if n = 1 then [| rates.(lo) |]
  else begin
    let r = Array.create_float n in
    for k = 0 to n - 1 do
      r.(k) <- rates.(lo + k)
    done;
    r
  end

(* The final usage of every link the solve touched, summed as
   [Allocation.link_rate] sums it: cells in link order, from 0, each
   cell's term as [Redundancy_fn.apply_fold] computes it.  Every
   receiver on a touched link is frozen or pinned by now, and the
   result's rows hold the arena's rates.

   An [Efficient] cell's term is read off [cell_max_frozen], not
   folded again.  [init] started that value at 0.0 and raised it with
   [>] over the cell's pinned rates, and each [freeze] since raised it
   with [>] over the rate it wrote; so it is the [>]-from-0.0 maximum of
   the cell's frozen rates, the value [apply_fold] and
   [Allocation.link_rate] compute over the same rates in cell order.
   That maximum is the same float in any order: a NaN never passes
   [>], and -0.0 never replaces the starting 0.0, so the only equal
   values with different bits never meet.  So the bits are the fold's.
   Other functions keep the fold.  Indices come off the CSR into arena
   arrays sized for the network, so the reads skip the bounds checks. *)
let solved_usage st =
  let inc = st.inc in
  let link_row = inc.Network.link_row and cell_first = inc.Network.cell_first in
  let cell_session = inc.Network.cell_session and link_cells = inc.Network.link_cells in
  let rates = st.rates and vfn = st.vfn and cell_max = st.cell_max_frozen in
  let links = Array.sub st.touched 0 st.n_touched in
  let usage = Array.create_float st.n_touched in
  for k = 0 to st.n_touched - 1 do
    let l = links.(k) in
    let u = ref 0.0 in
    for c = link_row.(l) to link_row.(l + 1) - 1 do
      match Array.unsafe_get vfn (Array.unsafe_get cell_session c) with
      | Redundancy_fn.Efficient -> u := !u +. Array.unsafe_get cell_max c
      | v ->
          let lo = Array.unsafe_get cell_first c and hi = Array.unsafe_get cell_first (c + 1) in
          u := !u +. Redundancy_fn.apply_fold v ~n:(hi - lo) ~get:(fun j -> rates.(link_cells.(lo + j)))
    done;
    usage.(k) <- !u
  done;
  Allocation.Solved { links; usage }

(* A cold solve is the restricted solve over every session, with its
   result validated; nothing is pinned, so [frozen] is never read (and
   [init] skips its pin pass).  The component is filled by a loop, not
   a closure call per session.  Each row is cut once from the arena,
   validated and adopted.  It carries no usage. *)
let max_min net =
  let m = Network.session_count net in
  let component = Array.make m 0 in
  for i = 1 to m - 1 do
    component.(i) <- i
  done;
  solve net ~component ~frozen:(Pvec.make m [||]) (fun st -> Allocation.of_fresh_rows net (row st))

(* A partial solve's result is one batched update of [frozen]: the
   spine plus the chunks holding the solved sessions are copied, every
   other row and chunk is shared.  It carries its touched links'
   usages. *)
let max_min_partial ~sessions ~frozen net =
  solve net ~component:sessions ~frozen (fun st ->
      Allocation.unsafe_of_rows ~usage:(solved_usage st) net
        (Pvec.update frozen (fun set -> Array.iter (fun i -> set i (row st i)) sessions)))

let max_min_partial_result ~sessions ~frozen net =
  Solver_error.protect ~solver:solver_name (fun () -> max_min_partial ~sessions ~frozen net)

let max_min_result net = Solver_error.protect ~solver:solver_name (fun () -> max_min net)

let bottleneck_links alloc r =
  let net = Allocation.network alloc in
  List.filter (fun l -> Allocation.fully_utilized alloc l) (Network.data_path net r)
