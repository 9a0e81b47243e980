(* A two-level trie: [spine.(c)] holds indices [c * chunk ..], every
   chunk full but the last, which holds the remainder.  No chunk is
   empty, so a copied chunk is never physically equal to another. *)
let bits = 5
let chunk = 1 lsl bits
let mask = chunk - 1

type 'a t = { len : int; spine : 'a array array }

let length v = v.len
let unsafe_spine v = v.spine
let n_chunks n = (n + mask) lsr bits
let chunk_len n c = Stdlib.min chunk (n - (c lsl bits))

let get v i =
  if i < 0 || i >= v.len then invalid_arg "Pvec.get: index out of bounds";
  Array.unsafe_get (Array.unsafe_get v.spine (i lsr bits)) (i land mask)

let make n x =
  if n < 0 then invalid_arg "Pvec.make: negative length";
  let full = Array.make chunk x in
  let chunk_of c = if chunk_len n c = chunk then full else Array.make (chunk_len n c) x in
  { len = n; spine = Array.init (n_chunks n) chunk_of }

let init n f =
  if n < 0 then invalid_arg "Pvec.init: negative length";
  let chunk_of c = Array.init (chunk_len n c) (fun j -> f ((c lsl bits) + j)) in
  { len = n; spine = Array.init (n_chunks n) chunk_of }

let of_array a = init (Array.length a) (Array.get a)
let to_array v = Array.concat (Array.to_list v.spine)
let iteri f v = Array.iteri (fun c ch -> Array.iteri (fun j x -> f ((c lsl bits) + j) x) ch) v.spine
let fold_left f acc v = Array.fold_left (Array.fold_left f) acc v.spine

(* A chunk still physically equal to the old spine's is shared and is
   copied on its first write; afterwards it is this update's own. *)
let update v edit =
  let spine = Array.copy v.spine in
  edit (fun i x ->
      if i < 0 || i >= v.len then invalid_arg "Pvec.update: index out of bounds";
      let c = i lsr bits in
      let ch = spine.(c) in
      let ch =
        if ch == v.spine.(c) then begin
          let own = Array.copy ch in
          spine.(c) <- own;
          own
        end
        else ch
      in
      ch.(i land mask) <- x);
  { len = v.len; spine }

(* Two [for] loops over the spines, with no closure per chunk or
   element: nothing is inlined across modules in a build with -opaque,
   so an [Array.iteri] here would be a real call per chunk and a closure
   call per element. *)
let iter_changed f a b =
  if a.len <> b.len then invalid_arg "Pvec.iter_changed: length mismatch";
  let sa = a.spine and sb = b.spine in
  for c = 0 to Array.length sa - 1 do
    let ca = sa.(c) and cb = sb.(c) in
    if ca != cb then
      for j = 0 to Array.length ca - 1 do
        let x = ca.(j) and y = cb.(j) in
        if x != y then f ((c lsl bits) + j) x y
      done
  done
