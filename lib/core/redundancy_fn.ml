type t =
  | Efficient
  | Scaled of float
  | Additive
  | Custom of string * (float list -> float)

let max_rate rates = List.fold_left Stdlib.max 0.0 rates

let apply v rates =
  match rates with
  | [] -> 0.0
  | _ -> (
      match v with
      | Efficient -> max_rate rates
      | Scaled k ->
          if k < 1.0 then invalid_arg "Redundancy_fn.apply: Scaled factor must be >= 1";
          k *. max_rate rates
      | Additive -> List.fold_left ( +. ) 0.0 rates
      | Custom (_, f) ->
          (* Float.max, not the polymorphic max: the clamp to the
             efficient lower bound must not swallow a NaN coming out
             of a broken custom function — the solvers detect the NaN
             and report a typed error instead of silently treating the
             session as efficient. *)
          Float.max (f rates) (max_rate rates))

let apply_fold v ~n ~get =
  if n = 0 then 0.0
  else
    match v with
    | Efficient ->
        let mx = ref 0.0 in
        for j = 0 to n - 1 do
          let x = get j in
          if x > !mx then mx := x
        done;
        !mx
    | Scaled k ->
        if k < 1.0 then invalid_arg "Redundancy_fn.apply_fold: Scaled factor must be >= 1";
        let mx = ref 0.0 in
        for j = 0 to n - 1 do
          let x = get j in
          if x > !mx then mx := x
        done;
        k *. !mx
    | Additive ->
        let s = ref 0.0 in
        for j = 0 to n - 1 do
          s := !s +. get j
        done;
        !s
    | Custom (_, f) ->
        (* A [Custom] function consumes a list by construction, so this
           shape alone must materialize the rates. *)
        let rates = List.init n get in
        Float.max (f rates) (max_rate rates)

let name = function
  | Efficient -> "efficient"
  | Scaled k -> Printf.sprintf "scaled(%g)" k
  | Additive -> "additive"
  | Custom (n, _) -> n

let dominates hi lo rates = apply hi rates >= apply lo rates -. 1e-12

let is_linear = function
  | Efficient | Scaled _ | Additive -> true
  | Custom _ -> false

let as_custom = function
  | Custom _ as v -> v
  | v -> Custom (name v, apply v)

let pp fmt v = Format.pp_print_string fmt (name v)
