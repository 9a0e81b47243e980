type t = {
  r : int;
  c : int;
  row_ptr : int array; (* length r+1 *)
  col_idx : int array; (* length nnz, sorted within each row *)
  values : float array; (* length nnz *)
}

type builder = {
  b_rows : int;
  b_cols : int;
  (* Per-row association from column to accumulated value. *)
  row_entries : (int, float) Hashtbl.t array;
}

let builder ~rows ~cols =
  if rows < 0 || cols < 0 then invalid_arg "Sparse.builder: negative dimension";
  { b_rows = rows; b_cols = cols; row_entries = Array.init rows (fun _ -> Hashtbl.create 4) }

let add b i j x =
  if i < 0 || i >= b.b_rows || j < 0 || j >= b.b_cols then invalid_arg "Sparse.add: out of range";
  let tbl = b.row_entries.(i) in
  let prev = Option.value ~default:0.0 (Hashtbl.find_opt tbl j) in
  Hashtbl.replace tbl j (prev +. x)

let finalize b =
  let counts =
    Array.map (fun tbl -> Hashtbl.fold (fun _ v acc -> if v <> 0.0 then acc + 1 else acc) tbl 0) b.row_entries
  in
  let nnz = Array.fold_left ( + ) 0 counts in
  let row_ptr = Array.make (b.b_rows + 1) 0 in
  for i = 0 to b.b_rows - 1 do
    row_ptr.(i + 1) <- row_ptr.(i) + counts.(i)
  done;
  let col_idx = Array.make nnz 0 in
  let values = Array.make nnz 0.0 in
  Array.iteri
    (fun i tbl ->
      let entries =
        Hashtbl.fold (fun j v acc -> if v <> 0.0 then (j, v) :: acc else acc) tbl []
      in
      let entries = List.sort (fun (a, _) (b, _) -> compare a b) entries in
      List.iteri
        (fun k (j, v) ->
          col_idx.(row_ptr.(i) + k) <- j;
          values.(row_ptr.(i) + k) <- v)
        entries)
    b.row_entries;
  { r = b.b_rows; c = b.b_cols; row_ptr; col_idx; values }

let rows m = m.r
let cols m = m.c
let nnz m = Array.length m.values

let get m i j =
  if i < 0 || i >= m.r || j < 0 || j >= m.c then invalid_arg "Sparse.get: out of range";
  let lo = ref m.row_ptr.(i) and hi = ref (m.row_ptr.(i + 1) - 1) in
  let result = ref 0.0 in
  while !lo <= !hi do
    let mid = (!lo + !hi) / 2 in
    let cj = m.col_idx.(mid) in
    if cj = j then begin
      result := m.values.(mid);
      lo := !hi + 1
    end
    else if cj < j then lo := mid + 1
    else hi := mid - 1
  done;
  !result

let vec_mul v m =
  if m.r <> Array.length v then invalid_arg "Sparse.vec_mul: shape mismatch";
  let out = Array.make m.c 0.0 in
  for i = 0 to m.r - 1 do
    let vi = v.(i) in
    if vi <> 0.0 then
      for k = m.row_ptr.(i) to m.row_ptr.(i + 1) - 1 do
        out.(m.col_idx.(k)) <- out.(m.col_idx.(k)) +. (vi *. m.values.(k))
      done
  done;
  out

let row_sums m =
  Array.init m.r (fun i ->
      let s = ref 0.0 in
      for k = m.row_ptr.(i) to m.row_ptr.(i + 1) - 1 do
        s := !s +. m.values.(k)
      done;
      !s)

let iter_row m i f =
  if i < 0 || i >= m.r then invalid_arg "Sparse.iter_row: out of range";
  for k = m.row_ptr.(i) to m.row_ptr.(i + 1) - 1 do
    f m.col_idx.(k) m.values.(k)
  done
