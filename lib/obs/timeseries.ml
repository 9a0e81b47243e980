type point = {
  p_t : float;  (* start time of the window (first observation's timestamp) *)
  p_count : int;
  p_min : float;
  p_max : float;
  p_sum : float;
  p_last : float;
}

let mean p = if p.p_count = 0 then 0.0 else p.p_sum /. float_of_int p.p_count

(* One series is a flat array used as a bounded append buffer: when it
   fills, adjacent windows are merged pairwise in place — halving the
   window count and doubling each window's span — so a fixed capacity
   covers an ever-longer history at geometrically-coarsening
   resolution.  No wrap-around cursor: after a merge the array is
   dense again and appends continue at [len]. *)
type series = { store : point array; mutable len : int }

type t = { cap : int; series : (string, series) Hashtbl.t }

let create ?(capacity = 256) () =
  if capacity < 2 then invalid_arg "Timeseries.create: capacity must be >= 2";
  { cap = capacity; series = Hashtbl.create 32 }


let merge a b =
  {
    p_t = a.p_t;
    p_count = a.p_count + b.p_count;
    p_min = Float.min a.p_min b.p_min;
    p_max = Float.max a.p_max b.p_max;
    p_sum = a.p_sum +. b.p_sum;
    p_last = b.p_last;
  }

let downsample s =
  let n = s.len in
  let half = (n + 1) / 2 in
  for i = 0 to half - 1 do
    let a = s.store.(2 * i) in
    s.store.(i) <- (if (2 * i) + 1 < n then merge a s.store.((2 * i) + 1) else a)
  done;
  s.len <- half

let observe t ~ts name v =
  let s =
    match Hashtbl.find_opt t.series name with
    | Some s -> s
    | None ->
        let zero = { p_t = 0.0; p_count = 0; p_min = 0.0; p_max = 0.0; p_sum = 0.0; p_last = 0.0 } in
        let s = { store = Array.make t.cap zero; len = 0 } in
        Hashtbl.add t.series name s;
        s
  in
  if s.len = t.cap then downsample s;
  s.store.(s.len) <- { p_t = ts; p_count = 1; p_min = v; p_max = v; p_sum = v; p_last = v };
  s.len <- s.len + 1

let names t = Hashtbl.fold (fun name _ acc -> name :: acc) t.series [] |> List.sort compare

let points t name =
  match Hashtbl.find_opt t.series name with
  | None -> []
  | Some s -> List.init s.len (fun i -> s.store.(i))

(* --- the registry sampler ------------------------------------------- *)

let sample ?(gc = true) t ~ts registry =
  if gc then begin
    let st = Gc.quick_stat () in
    Registry.set (Registry.gauge registry "gc.minor_collections") (float_of_int st.Gc.minor_collections);
    Registry.set (Registry.gauge registry "gc.major_collections") (float_of_int st.Gc.major_collections);
    Registry.set (Registry.gauge registry "gc.heap.words") (float_of_int st.Gc.heap_words)
  end;
  let readout = Registry.sample registry in
  List.iter (fun (name, v) -> observe t ~ts name v) readout;
  readout

(* --- JSONL export ---------------------------------------------------- *)

let schema_id = "mmfair.series/v1"

let header_line = Json.to_string (Json.Obj [ ("schema", Json.Str schema_id) ])

let tick_line ~ts readout =
  Json.to_string
    (Json.Obj
       [
         ("t", Json.Num ts);
         ("sample", Json.Obj (List.map (fun (name, v) -> (name, Json.Num v)) readout));
       ])

let point_json ~series p =
  Json.Obj
    [
      ("series", Json.Str series);
      ("t", Json.Num p.p_t);
      ("count", Json.Num (float_of_int p.p_count));
      ("min", Json.Num p.p_min);
      ("max", Json.Num p.p_max);
      ("mean", Json.Num (mean p));
      ("last", Json.Num p.p_last);
    ]

let to_jsonl t =
  let b = Buffer.create 4096 in
  Buffer.add_string b header_line;
  Buffer.add_char b '\n';
  List.iter
    (fun name ->
      List.iter
        (fun p ->
          Buffer.add_string b (Json.to_string (point_json ~series:name p));
          Buffer.add_char b '\n')
        (points t name))
    (names t);
  Buffer.contents b
