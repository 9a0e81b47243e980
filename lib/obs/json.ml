type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | List of t list
  | Obj of (string * t) list

(* Shortest decimal rendering that round-trips: try increasing
   precisions and keep the first that parses back to the same float.
   Integers (the common case for counters and counts) print bare. *)
let float_to_string x =
  if Float.is_integer x && Float.abs x < 1e15 then Printf.sprintf "%.0f" x
  else
    let s15 = Printf.sprintf "%.15g" x in
    if float_of_string s15 = x then s15 else Printf.sprintf "%.17g" x

let escape s =
  let buf = Buffer.create (String.length s) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | c when Char.code c < 0x20 -> Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

let rec write buf = function
  | Null -> Buffer.add_string buf "null"
  | Bool b -> Buffer.add_string buf (if b then "true" else "false")
  | Num x ->
      if Float.is_finite x then Buffer.add_string buf (float_to_string x)
      else Buffer.add_string buf "null" (* JSON has no Inf/NaN; degrade explicitly *)
  | Str s ->
      Buffer.add_char buf '"';
      Buffer.add_string buf (escape s);
      Buffer.add_char buf '"'
  | List items ->
      Buffer.add_char buf '[';
      List.iteri
        (fun i v ->
          if i > 0 then Buffer.add_char buf ',';
          write buf v)
        items;
      Buffer.add_char buf ']'
  | Obj fields ->
      Buffer.add_char buf '{';
      List.iteri
        (fun i (k, v) ->
          if i > 0 then Buffer.add_char buf ',';
          Buffer.add_char buf '"';
          Buffer.add_string buf (escape k);
          Buffer.add_string buf "\":";
          write buf v)
        fields;
      Buffer.add_char buf '}'

let to_string v =
  let buf = Buffer.create 256 in
  write buf v;
  Buffer.contents buf

exception Bad of string

(* Recursive-descent reader — just enough to check the schema of our
   own emissions (bench trajectories, metrics snapshots, traces)
   without pulling in a JSON dependency. *)
let parse (s : string) : t =
  let n = String.length s in
  let pos = ref 0 in
  let fail msg = raise (Bad (Printf.sprintf "%s at byte %d" msg !pos)) in
  let peek () = if !pos < n then Some s.[!pos] else None in
  let skip_ws () =
    while !pos < n && (match s.[!pos] with ' ' | '\t' | '\n' | '\r' -> true | _ -> false) do
      incr pos
    done
  in
  let expect c =
    if !pos < n && s.[!pos] = c then incr pos else fail (Printf.sprintf "expected '%c'" c)
  in
  let literal lit v =
    let l = String.length lit in
    if !pos + l <= n && String.sub s !pos l = lit then begin
      pos := !pos + l;
      v
    end
    else fail (Printf.sprintf "expected %s" lit)
  in
  let parse_string () =
    expect '"';
    let buf = Buffer.create 16 in
    let rec go () =
      if !pos >= n then fail "unterminated string";
      match s.[!pos] with
      | '"' -> incr pos
      | '\\' ->
          incr pos;
          if !pos >= n then fail "bad escape";
          (match s.[!pos] with
          | '"' -> Buffer.add_char buf '"'
          | '\\' -> Buffer.add_char buf '\\'
          | '/' -> Buffer.add_char buf '/'
          | 'n' -> Buffer.add_char buf '\n'
          | 't' -> Buffer.add_char buf '\t'
          | 'r' -> Buffer.add_char buf '\r'
          | 'b' -> Buffer.add_char buf '\b'
          | 'f' -> Buffer.add_char buf '\012'
          | 'u' ->
              if !pos + 4 >= n then fail "bad \\u escape";
              pos := !pos + 4;
              Buffer.add_char buf '?'
          | _ -> fail "bad escape");
          incr pos;
          go ()
      | c ->
          Buffer.add_char buf c;
          incr pos;
          go ()
    in
    go ();
    Buffer.contents buf
  in
  let parse_number () =
    let start = !pos in
    while
      !pos < n && match s.[!pos] with '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true | _ -> false
    do
      incr pos
    done;
    match float_of_string_opt (String.sub s start (!pos - start)) with
    | Some f -> f
    | None -> fail "bad number"
  in
  let rec parse_value () =
    skip_ws ();
    match peek () with
    | Some '"' -> Str (parse_string ())
    | Some '{' ->
        incr pos;
        skip_ws ();
        if peek () = Some '}' then begin
          incr pos;
          Obj []
        end
        else begin
          let fields = ref [] in
          let rec members () =
            skip_ws ();
            let key = parse_string () in
            skip_ws ();
            expect ':';
            let v = parse_value () in
            fields := (key, v) :: !fields;
            skip_ws ();
            match peek () with
            | Some ',' ->
                incr pos;
                members ()
            | Some '}' -> incr pos
            | _ -> fail "expected ',' or '}'"
          in
          members ();
          Obj (List.rev !fields)
        end
    | Some '[' ->
        incr pos;
        skip_ws ();
        if peek () = Some ']' then begin
          incr pos;
          List []
        end
        else begin
          let items = ref [] in
          let rec elements () =
            let v = parse_value () in
            items := v :: !items;
            skip_ws ();
            match peek () with
            | Some ',' ->
                incr pos;
                elements ()
            | Some ']' -> incr pos
            | _ -> fail "expected ',' or ']'"
          in
          elements ();
          List (List.rev !items)
        end
    | Some 't' -> literal "true" (Bool true)
    | Some 'f' -> literal "false" (Bool false)
    | Some 'n' -> literal "null" Null
    | Some _ -> Num (parse_number ())
    | None -> fail "unexpected end of input"
  in
  let v = parse_value () in
  skip_ws ();
  if !pos <> n then fail "trailing garbage";
  v

let member key = function Obj fields -> List.assoc_opt key fields | _ -> None

(* One field or element per line, two-space indent; a container whose
   members are all scalars stays on one line, so a committed document
   diffs one record per line. *)
let to_string_indented v =
  let buf = Buffer.create 4096 in
  let scalar = function List _ | Obj _ -> false | _ -> true in
  let member (k, x) value =
    Option.iter
      (fun k ->
        Buffer.add_char buf '"';
        Buffer.add_string buf (escape k);
        Buffer.add_string buf "\": ")
      k;
    value x
  in
  let rec value indent v =
    let members, opening, closing =
      match v with
      | Obj f -> (List.map (fun (k, x) -> (Some k, x)) f, "{", "}")
      | List l -> (List.map (fun x -> (None, x)) l, "[", "]")
      | _ -> ([], "", "")
    in
    if members = [] then write buf v
    else if List.for_all (fun (_, x) -> scalar x) members then begin
      let pad = match v with Obj _ -> " " | _ -> "" in
      Buffer.add_string buf (opening ^ pad);
      List.iteri
        (fun i m ->
          if i > 0 then Buffer.add_string buf ", ";
          member m (write buf))
        members;
      Buffer.add_string buf (pad ^ closing)
    end
    else begin
      let inner = String.make (indent + 2) ' ' in
      Buffer.add_string buf (opening ^ "\n");
      List.iteri
        (fun i m ->
          if i > 0 then Buffer.add_string buf ",\n";
          Buffer.add_string buf inner;
          member m (value (indent + 2)))
        members;
      Buffer.add_string buf ("\n" ^ String.make indent ' ' ^ closing)
    end
  in
  value 0 v;
  Buffer.add_char buf '\n';
  Buffer.contents buf

let fixed digits x = Num (float_of_string (Printf.sprintf "%.*f" digits x))

(* --- readers --------------------------------------------------------- *)

(* Every reader failure starts with the key path it was reading, in jq
   notation (".a.b[2].c"), so [each] can prepend an element's path to
   whatever its callback raised. *)

let path_string path = String.concat "" (List.map (fun k -> "." ^ k) path)

let fail path fmt = Printf.ksprintf (fun m -> raise (Bad (path_string path ^ ": " ^ m))) fmt

let load file =
  let body =
    try In_channel.with_open_bin file In_channel.input_all
    with Sys_error msg -> raise (Bad ("cannot read " ^ msg))
  in
  try parse body with Bad m -> raise (Bad (file ^ ": not valid JSON: " ^ m))

let get path v =
  let rec go seen v = function
    | [] -> v
    | k :: rest -> (
        match v with
        | Obj fields -> (
            match List.assoc_opt k fields with
            | Some x -> go (k :: seen) x rest
            | None -> fail (List.rev (k :: seen)) "missing")
        | _ -> fail (List.rev seen) "want an object")
  in
  go [] v path

let num ?min ?above path v =
  match (get path v, min, above) with
  | Num x, Some lo, _ when not (x >= lo) -> fail path "want a number >= %g, got %g" lo x
  | Num x, _, Some lo when not (x > lo) -> fail path "want a number > %g, got %g" lo x
  | Num x, _, _ -> x
  | _, Some lo, _ -> fail path "want a number >= %g" lo
  | _, _, Some lo -> fail path "want a number > %g" lo
  | _ -> fail path "want a number"

let str path v =
  match get path v with Str s when s <> "" -> s | _ -> fail path "want a non-empty string"

let obj path v = match get path v with Obj fields -> fields | _ -> fail path "want an object"

let items path v =
  match get path v with List (_ :: _ as l) -> l | _ -> fail path "want a non-empty array"

let num_or_null path v =
  match get path v with Null -> None | Num x -> Some x | _ -> fail path "want a number or null"

let each path f v =
  List.mapi
    (fun i x ->
      try f x
      with Bad m -> raise (Bad (Printf.sprintf "%s[%d]%s" (path_string path) i m)))
    (items path v)
