module Event = Mmfair_dynamic.Event

type item = Single of Event.t | Batch of Event.t list

exception Parse_error of int * string

let fail line msg = raise (Parse_error (line, msg))

let parse_float line what s =
  match float_of_string_opt s with Some f -> f | None -> fail line (Printf.sprintf "bad %s: %S" what s)

let find_name ~lineno what names name =
  let found = ref (-1) in
  Array.iteri (fun i n -> if n = name && !found < 0 then found := i) names;
  if !found < 0 then fail lineno (Printf.sprintf "unknown %s %S" what name);
  !found

type line = Blank | Event of Event.t | Batch_open | Batch_end

let event_of_tokens (p : Net_parser.t) lineno toks =
  let session lineno name = find_name ~lineno "session" p.Net_parser.session_names name in
  let node lineno name = find_name ~lineno "node" p.Net_parser.node_names name in
  let link lineno name = find_name ~lineno "link" p.Net_parser.link_names name in
  let event lineno = function
    | [ "join"; s; n ] ->
        Event.Join { session = session lineno s; node = node lineno n; weight = None }
    | [ "join"; s; n; w ] ->
        let weight =
          match String.index_opt w '=' with
          | Some i when String.sub w 0 i = "w" ->
              let v = parse_float lineno "weight" (String.sub w (i + 1) (String.length w - i - 1)) in
              if not (Float.is_finite v && v > 0.0) then
                fail lineno (Printf.sprintf "weight must be a finite positive number, got %g" v);
              v
          | _ -> fail lineno (Printf.sprintf "expected w=FLOAT, got %S" w)
        in
        Event.Join { session = session lineno s; node = node lineno n; weight = Some weight }
    | [ "leave"; s; n ] -> Event.Leave { session = session lineno s; node = node lineno n }
    | [ "rho"; s; r ] ->
        let rho = parse_float lineno "rho" r in
        if not (rho > 0.0) then
          fail lineno (Printf.sprintf "rho must be positive (and not NaN), got %g" rho);
        Event.Rho_change { session = session lineno s; rho }
    | [ "cap"; l; c ] ->
        let cap = parse_float lineno "capacity" c in
        if not (Float.is_finite cap && cap > 0.0) then
          fail lineno (Printf.sprintf "capacity must be a finite positive number, got %g" cap);
        Event.Capacity_change { link = link lineno l; cap }
    | tok :: _ ->
        fail lineno (Printf.sprintf "unknown directive %S (want join|leave|rho|cap|batch|end)" tok)
    | [] -> assert false (* blank lines are filtered before dispatch *)
  in
  event lineno toks

let parse_line p ~lineno raw =
  match Net_parser.tokens raw with
  | [] -> Blank
  | [ "batch" ] -> Batch_open
  | "batch" :: _ -> fail lineno "batch takes no arguments"
  | [ "end" ] -> Batch_end
  | "end" :: _ -> fail lineno "end takes no arguments"
  | toks -> Event (event_of_tokens p lineno toks)

(* Fold the line classifier through batch ... end structure.  Shared by
   the whole-document parser below and the serving daemon's streaming
   reader, so the two agree byte-for-byte on the grammar. *)
type batch_state = (int * Event.t list) option
(* [Some (opening line, events-reversed)] while inside a block. *)

let step_line (state : batch_state) ~lineno line =
  match (line, state) with
  | Blank, st -> (st, None)
  | Batch_open, None -> (Some (lineno, []), None)
  | Batch_open, Some (opened, _) ->
      fail lineno (Printf.sprintf "nested batch (previous batch opened at line %d)" opened)
  | Batch_end, Some (opened, evs) ->
      if evs = [] then fail opened "empty batch (batch blocks need at least one event)";
      (None, Some (Batch (List.rev evs)))
  | Batch_end, None -> fail lineno "end without a matching batch"
  | Event ev, Some (opened, evs) -> (Some (opened, ev :: evs), None)
  | Event ev, None -> (None, Some (Single ev))

let close_batch (state : batch_state) =
  match state with
  | Some (opened, _) -> fail opened "batch never closed (missing end)"
  | None -> ()

let parse_items (p : Net_parser.t) text =
  let items = ref [] in
  let state = ref None in
  let lines = String.split_on_char '\n' text in
  List.iteri
    (fun idx raw ->
      let lineno = idx + 1 in
      let st, item = step_line !state ~lineno (parse_line p ~lineno raw) in
      state := st;
      match item with Some it -> items := it :: !items | None -> ())
    lines;
  close_batch !state;
  List.rev !items

let flatten items =
  List.concat_map (function Single ev -> [ ev ] | Batch evs -> evs) items

let read_file path =
  let ic = open_in path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let parse_items_file p path = parse_items p (read_file path)

(* Default names match [Net_parser.render]'s conventions (n<i>, l<j>,
   s<i>), so a generated trace round-trips against a rendered net. *)
let renderers names =
  match names with
  | Some (p : Net_parser.t) ->
      ( (fun i -> p.Net_parser.session_names.(i)),
        (fun v -> p.Net_parser.node_names.(v)),
        fun l -> p.Net_parser.link_names.(l) )
  | None -> (Printf.sprintf "s%d", Printf.sprintf "n%d", Printf.sprintf "l%d")

let render_event (session_name, node_name, link_name) (ev : Event.t) =
  match ev with
  | Event.Join { session; node; weight = None } ->
      Printf.sprintf "join %s %s" (session_name session) (node_name node)
  | Event.Join { session; node; weight = Some w } ->
      Printf.sprintf "join %s %s w=%.17g" (session_name session) (node_name node) w
  | Event.Leave { session; node } ->
      Printf.sprintf "leave %s %s" (session_name session) (node_name node)
  | Event.Rho_change { session; rho } -> Printf.sprintf "rho %s %.17g" (session_name session) rho
  | Event.Capacity_change { link; cap } -> Printf.sprintf "cap %s %.17g" (link_name link) cap

let render ?names events =
  let r = renderers names in
  String.concat "" (List.map (fun ev -> render_event r ev ^ "\n") events)

let example =
  String.concat "\n"
    [
      "# Churn over the Figure-2 network (see `mmfair parse --example`):";
      "# one event per line, applied in order.";
      "leave s1 leaf2          # Figure-3 style removal";
      "join s2 leaf3           # Figure-5 style join";
      "join s2 leaf2 w=0.5     # weighted receiver";
      "rho s1 2.5              # cap the session's desired rate";
      "rho s1 inf              # ...and lift it again";
      "batch                   # a burst applied as one epoch";
      "  cap l1 4              #   shrink a link";
      "  join s1 leaf2         #   undo the removal above";
      "end";
      "";
    ]
