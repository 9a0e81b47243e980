type t = float array

let make = Array.make

let check_dims name a b =
  if Array.length a <> Array.length b then
    invalid_arg (Printf.sprintf "Vec.%s: dimension mismatch (%d vs %d)" name (Array.length a) (Array.length b))

let add a b =
  check_dims "add" a b;
  Array.mapi (fun i x -> x +. b.(i)) a

let scale k v = Array.map (fun x -> k *. x) v

(* Kahan compensated summation. *)
let sum v =
  let s = ref 0.0 and c = ref 0.0 in
  Array.iter
    (fun x ->
      let y = x -. !c in
      let t = !s +. y in
      c := t -. !s -. y;
      s := t)
    v;
  !s

let normalize1 v =
  let s = sum v in
  if s = 0.0 || not (Float.is_finite s) then invalid_arg "Vec.normalize1: zero or non-finite sum";
  scale (1.0 /. s) v

let max_abs_diff a b =
  check_dims "max_abs_diff" a b;
  let m = ref 0.0 in
  Array.iteri (fun i x -> m := Stdlib.max !m (Float.abs (x -. b.(i)))) a;
  !m

let pp fmt v =
  Format.fprintf fmt "[";
  Array.iteri (fun i x -> if i > 0 then Format.fprintf fmt "; %.6g" x else Format.fprintf fmt "%.6g" x) v;
  Format.fprintf fmt "]"
