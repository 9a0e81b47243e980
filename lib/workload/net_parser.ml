module Graph = Mmfair_topology.Graph
module Network = Mmfair_core.Network
module Redundancy_fn = Mmfair_core.Redundancy_fn

type t = {
  net : Network.t;
  node_names : string array;
  link_names : string array;
  session_names : string array;
}

exception Parse_error of int * string

let fail line msg = raise (Parse_error (line, msg))

type pending_session = {
  p_line : int;
  p_name : string;
  p_type : Network.session_type;
  p_rho : float;
  p_v : float option;
  p_sender : string;
  p_receivers : string list;
}

let tokens raw =
  let line = match String.index_opt raw '#' with Some i -> String.sub raw 0 i | None -> raw in
  String.split_on_char ' ' (String.trim line)
  |> List.concat_map (String.split_on_char '\t')
  |> List.filter (fun tok -> tok <> "")

let parse_float line what s =
  match float_of_string_opt s with Some f -> f | None -> fail line (Printf.sprintf "bad %s: %S" what s)

let parse_string text =
  let nodes = Hashtbl.create 16 in
  let node_order = ref [] in
  let node_of name =
    match Hashtbl.find_opt nodes name with
    | Some id -> id
    | None ->
        let id = Hashtbl.length nodes in
        Hashtbl.add nodes name id;
        node_order := name :: !node_order;
        id
  in
  let links = ref [] (* (name, a, b, cap) reversed *) in
  let sessions = ref [] (* pending, reversed *) in
  let lines = String.split_on_char '\n' text in
  List.iteri
    (fun idx raw ->
      let lineno = idx + 1 in
      match tokens raw with
        | [ "node"; name ] -> ignore (node_of name)
        | [ "link"; name; a; b; cap ] ->
            let cap = parse_float lineno "capacity" cap in
            if not (Float.is_finite cap && cap > 0.0) then
              fail lineno (Printf.sprintf "link %s: capacity must be a finite positive number, got %g" name cap);
            if a = b then fail lineno (Printf.sprintf "link %s: endpoints must differ" name);
            links := (name, node_of a, node_of b, cap) :: !links
        | "session" :: name :: kind :: rest ->
            let p_type =
              match kind with
              | "single" -> Network.Single_rate
              | "multi" -> Network.Multi_rate
              | other -> fail lineno (Printf.sprintf "session type must be single or multi, got %S" other)
            in
            let p_rho = ref infinity and p_v = ref None in
            let p_sender = ref None and p_receivers = ref None in
            List.iter
              (fun tok ->
                match String.index_opt tok '=' with
                | None -> fail lineno (Printf.sprintf "expected key=value, got %S" tok)
                | Some i -> (
                    let key = String.sub tok 0 i in
                    let value = String.sub tok (i + 1) (String.length tok - i - 1) in
                    match key with
                    | "rho" ->
                        let rho = parse_float lineno "rho" value in
                        if not (rho > 0.0) then
                          fail lineno (Printf.sprintf "rho must be positive (and not NaN), got %g" rho);
                        p_rho := rho
                    | "v" -> p_v := Some (parse_float lineno "v" value)
                    | "sender" -> p_sender := Some value
                    | "receivers" ->
                        p_receivers := Some (String.split_on_char ',' value |> List.filter (( <> ) ""))
                    | other -> fail lineno (Printf.sprintf "unknown session attribute %S" other)))
              rest;
            let p_sender =
              match !p_sender with Some s -> s | None -> fail lineno "session needs sender=NODE"
            in
            let p_receivers =
              match !p_receivers with
              | Some (_ :: _ as rs) -> rs
              | _ -> fail lineno "session needs receivers=N1,N2,..."
            in
            sessions :=
              {
                p_line = lineno;
                p_name = name;
                p_type;
                p_rho = !p_rho;
                p_v = !p_v;
                p_sender;
                p_receivers;
              }
              :: !sessions
        | tok :: _ -> fail lineno (Printf.sprintf "unknown directive %S" tok)
        | [] -> ())
    lines;
  let links = List.rev !links and sessions = List.rev !sessions in
  if links = [] then fail 0 "network has no links";
  if sessions = [] then fail 0 "network has no sessions";
  let g = Graph.create ~nodes:(Hashtbl.length nodes) in
  List.iter (fun (_, a, b, cap) -> ignore (Graph.add_link g a b cap)) links;
  let lookup_node lineno name =
    match Hashtbl.find_opt nodes name with
    | Some id -> id
    | None -> fail lineno (Printf.sprintf "unknown node %S (nodes are created by link lines)" name)
  in
  let specs =
    List.map
      (fun p ->
        let vfn =
          match p.p_v with
          | None -> Redundancy_fn.Efficient
          | Some v when Float.is_finite v && v >= 1.0 -> Redundancy_fn.Scaled v
          | Some v ->
              fail p.p_line (Printf.sprintf "session %s: v must be a finite factor >= 1, got %g" p.p_name v)
        in
        if p.p_receivers = [] then
          fail p.p_line (Printf.sprintf "session %s: receiver list is empty" p.p_name);
        let receivers = List.map (lookup_node p.p_line) p.p_receivers in
        let sender = lookup_node p.p_line p.p_sender in
        List.iteri
          (fun k r ->
            if r = sender then
              fail p.p_line
                (Printf.sprintf "session %s: receiver %d is co-located with the sender %s" p.p_name
                   (k + 1) p.p_sender))
          receivers;
        Network.session ~session_type:p.p_type ~rho:p.p_rho ~vfn ~sender
          ~receivers:(Array.of_list receivers) ())
      sessions
  in
  let node_names = Array.make (Hashtbl.length nodes) "" in
  Hashtbl.iter (fun name id -> node_names.(id) <- name) nodes;
  {
    net = Network.make g (Array.of_list specs);
    node_names;
    link_names = Array.of_list (List.map (fun (n, _, _, _) -> n) links);
    session_names = Array.of_list (List.map (fun p -> p.p_name) sessions);
  }

let parse_file path =
  let ic = open_in path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> parse_string (really_input_string ic (in_channel_length ic)))

let render net =
  let g = Network.graph net in
  let buf = Buffer.create 256 in
  for l = 0 to Graph.link_count g - 1 do
    let a, b = Graph.endpoints g l in
    Buffer.add_string buf (Printf.sprintf "link l%d n%d n%d %.17g\n" l a b (Graph.capacity g l))
  done;
  for i = 0 to Network.session_count net - 1 do
    let spec = Network.session_spec net i in
    Array.iter
      (fun w -> if w <> 1.0 then invalid_arg "Net_parser.render: non-unit weights not expressible")
      spec.Network.weights;
    let kind =
      match spec.Network.session_type with
      | Network.Single_rate -> "single"
      | Network.Multi_rate -> "multi"
    in
    let v =
      match spec.Network.vfn with
      | Redundancy_fn.Efficient -> ""
      | Redundancy_fn.Scaled k -> Printf.sprintf " v=%.17g" k
      | Redundancy_fn.Additive | Redundancy_fn.Custom _ ->
          invalid_arg "Net_parser.render: link-rate function not expressible"
    in
    let rho = if Float.is_finite spec.Network.rho then Printf.sprintf " rho=%.17g" spec.Network.rho else "" in
    Buffer.add_string buf
      (Printf.sprintf "session s%d %s%s%s sender=n%d receivers=%s\n" i kind rho v spec.Network.sender
         (String.concat "," (Array.to_list (Array.map (Printf.sprintf "n%d") spec.Network.receivers))))
  done;
  Buffer.contents buf

(* A literal, not a [String.concat] at module initialisation: a
   literal is static data, so a program that links this module only
   for {!tokens} (every churn and churnd program) does not carry the
   document on its live heap. *)
let example =
  {|# The paper's Figure-2 network.
link l4 senders relay 6
link l1 relay shared_leaf 5
link l2 relay leaf2 2
link l3 relay leaf3 3
session s1 single rho=100 sender=senders receivers=shared_leaf,leaf2,leaf3
session s2 multi rho=100 sender=senders receivers=shared_leaf
|}
