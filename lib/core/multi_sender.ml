module Graph = Mmfair_topology.Graph
module Routing = Mmfair_topology.Routing

type spec = {
  senders : Graph.node array;
  receivers : Graph.node array;
  rho : float;
  vfn : Redundancy_fn.t;
}

let spec ?(rho = infinity) ?(vfn = Redundancy_fn.Efficient) ~senders ~receivers () =
  { senders; receivers; rho; vfn }

type t = {
  net : Network.t;
  specs : spec array;
  assignments : int array array; (* assignments.(i).(k) = sender index for receiver k *)
  (* lowered receiver id per (original session, receiver index) *)
  lowered : Network.receiver_id array array;
}

let expand graph specs =
  Array.iteri
    (fun i s ->
      if Array.length s.senders = 0 then
        invalid_arg (Printf.sprintf "Multi_sender.expand: session %d has no senders" i);
      if Array.length s.receivers = 0 then
        invalid_arg (Printf.sprintf "Multi_sender.expand: session %d has no receivers" i))
    specs;
  (* hop distance from every sender (per spec) to each of its receivers *)
  let assignments =
    Array.mapi
      (fun i s ->
        let hops =
          Routing.routes graph (Array.map (fun sender -> (sender, s.receivers)) s.senders)
          |> Array.map (Array.map (Option.map List.length))
        in
        Array.mapi
          (fun k r ->
            let best = ref (-1) and best_hops = ref max_int in
            Array.iteri
              (fun si sender ->
                (* a sender on the receiver's own node is ineligible
                   (members of one session may not share a node) *)
                if sender <> r then
                  match hops.(si).(k) with
                  | Some h when h < !best_hops -> begin
                      best := si;
                      best_hops := h
                    end
                  | _ -> ())
              s.senders;
            if !best < 0 then
              invalid_arg
                (Printf.sprintf "Multi_sender.expand: session %d receiver %d reaches no sender" i k);
            !best)
          s.receivers)
      specs
  in
  (* one lowered sub-session per (session, sender) with assignees *)
  let sub_specs = ref [] and sub_meta = ref [] in
  Array.iteri
    (fun i s ->
      Array.iteri
        (fun si sender ->
          let members =
            Array.to_list s.receivers
            |> List.mapi (fun k node -> (k, node))
            |> List.filter (fun (k, _) -> assignments.(i).(k) = si)
          in
          if members <> [] then begin
            let receivers = Array.of_list (List.map snd members) in
            sub_specs :=
              Network.session ~session_type:Network.Multi_rate ~rho:s.rho ~vfn:s.vfn ~sender
                ~receivers ()
              :: !sub_specs;
            sub_meta := (i, List.map fst members) :: !sub_meta
          end)
        s.senders)
    specs;
  let sub_specs = Array.of_list (List.rev !sub_specs) in
  let sub_meta = Array.of_list (List.rev !sub_meta) in
  let net = Network.make graph sub_specs in
  let lowered =
    Array.map (fun s -> Array.make (Array.length s.receivers) { Network.session = -1; index = -1 }) specs
  in
  Array.iteri
    (fun sub (orig, members) ->
      List.iteri
        (fun idx k -> lowered.(orig).(k) <- { Network.session = sub; index = idx })
        members)
    sub_meta;
  { net; specs; assignments; lowered }

let network t = t.net

let check_session t i =
  if i < 0 || i >= Array.length t.specs then invalid_arg "Multi_sender: unknown session"

let assignment t ~session =
  check_session t session;
  Array.copy t.assignments.(session)

let receiver_id t ~session ~receiver =
  check_session t session;
  if receiver < 0 || receiver >= Array.length t.specs.(session).receivers then
    invalid_arg "Multi_sender.receiver_id: unknown receiver";
  t.lowered.(session).(receiver)

let max_min t = Allocator.max_min t.net

let rate t alloc ~session ~receiver = Allocation.rate alloc (receiver_id t ~session ~receiver)
