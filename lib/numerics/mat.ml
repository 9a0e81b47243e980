type t = { r : int; c : int; data : float array }

let make r c x =
  if r < 0 || c < 0 then invalid_arg "Mat.make: negative dimension";
  { r; c; data = Array.make (r * c) x }

let init r c f =
  let m = make r c 0.0 in
  for i = 0 to r - 1 do
    for j = 0 to c - 1 do
      m.data.((i * c) + j) <- f i j
    done
  done;
  m

let identity n = init n n (fun i j -> if i = j then 1.0 else 0.0)
let rows m = m.r
let cols m = m.c

let get m i j =
  if i < 0 || i >= m.r || j < 0 || j >= m.c then invalid_arg "Mat.get: out of range";
  m.data.((i * m.c) + j)

let set m i j x =
  if i < 0 || i >= m.r || j < 0 || j >= m.c then invalid_arg "Mat.set: out of range";
  m.data.((i * m.c) + j) <- x

let copy m = { m with data = Array.copy m.data }

let vec_mul v a =
  if a.r <> Array.length v then invalid_arg "Mat.vec_mul: shape mismatch";
  Array.init a.c (fun j ->
      let s = ref 0.0 in
      for k = 0 to a.r - 1 do
        s := !s +. (v.(k) *. a.data.((k * a.c) + j))
      done;
      !s)

let solve a b =
  if a.r <> a.c then invalid_arg "Mat.solve: matrix must be square";
  if a.r <> Array.length b then invalid_arg "Mat.solve: shape mismatch";
  let n = a.r in
  let m = copy a in
  let x = Array.copy b in
  for col = 0 to n - 1 do
    (* Partial pivoting: bring the largest remaining entry to the diagonal. *)
    let pivot = ref col in
    for row = col + 1 to n - 1 do
      if Float.abs (get m row col) > Float.abs (get m !pivot col) then pivot := row
    done;
    if Float.abs (get m !pivot col) < 1e-12 then failwith "Mat.solve: singular matrix";
    if !pivot <> col then begin
      for j = 0 to n - 1 do
        let tmp = get m col j in
        set m col j (get m !pivot j);
        set m !pivot j tmp
      done;
      let tmp = x.(col) in
      x.(col) <- x.(!pivot);
      x.(!pivot) <- tmp
    end;
    let d = get m col col in
    for row = col + 1 to n - 1 do
      let factor = get m row col /. d in
      if factor <> 0.0 then begin
        for j = col to n - 1 do
          set m row j (get m row j -. (factor *. get m col j))
        done;
        x.(row) <- x.(row) -. (factor *. x.(col))
      end
    done
  done;
  for row = n - 1 downto 0 do
    let s = ref x.(row) in
    for j = row + 1 to n - 1 do
      s := !s -. (get m row j *. x.(j))
    done;
    x.(row) <- !s /. get m row row
  done;
  x

let pp fmt m =
  for i = 0 to m.r - 1 do
    Format.fprintf fmt "|";
    for j = 0 to m.c - 1 do
      Format.fprintf fmt " %10.6g" (get m i j)
    done;
    Format.fprintf fmt " |@."
  done
