type capabilities = {
  multicast : bool;
  multi_rate : bool;
  weighted : bool;
  vfn : [ `Efficient | `Linear | `Any ];
  partial : bool;
}

module type S = sig
  val name : string
  val capabilities : capabilities
  val solve : Network.t -> Allocation.t
  val solve_result : Network.t -> (Allocation.t, Solver_error.t) result

  val solve_partial :
    sessions:int array -> frozen:float array Pvec.t -> Network.t -> Allocation.t

  val solve_partial_result :
    sessions:int array ->
    frozen:float array Pvec.t ->
    Network.t ->
    (Allocation.t, Solver_error.t) result
end

type t = (module S)

let name (module E : S) = E.name
let capabilities (module E : S) = E.capabilities

let admits (module E : S) net =
  let caps = E.capabilities in
  let m = Network.session_count net in
  let vfn_ok v =
    match caps.vfn with
    | `Any -> true
    | `Linear -> Redundancy_fn.is_linear v
    | `Efficient -> ( match v with Redundancy_fn.Efficient -> true | _ -> false)
  in
  let rec check i =
    i >= m
    || (let spec = Network.session_spec net i in
        (caps.multicast || Array.length spec.Network.receivers <= 1)
        && (caps.multi_rate || spec.Network.session_type = Network.Single_rate)
        && vfn_ok spec.Network.vfn)
       && check (i + 1)
  in
  (caps.weighted || Network.all_weights_unit net) && check 0

(* Shared scaffolding for engines whose underlying solver has no
   warm-start entry point: [solve_partial] fails loudly instead of
   silently degrading to a full solve. *)
let no_partial name : sessions:int array -> frozen:float array Pvec.t -> Network.t -> Allocation.t
    =
 fun ~sessions:_ ~frozen:_ _ ->
  invalid_arg (name ^ ".solve_partial: engine has no warm-start entry point")

let allocator : t =
  (module struct
    let name = "Allocator"

    let capabilities =
      { multicast = true; multi_rate = true; weighted = true; vfn = `Any; partial = true }

    let solve = Allocator.max_min
    let solve_result = Allocator.max_min_result
    let solve_partial = Allocator.max_min_partial
    let solve_partial_result = Allocator.max_min_partial_result
  end)

let allocator_reference : t =
  (module struct
    let name = "Allocator_reference"

    let capabilities =
      { multicast = true; multi_rate = true; weighted = true; vfn = `Any; partial = false }

    let solve net = Allocator_reference.max_min net
    let solve_result net = Allocator_reference.max_min_result net
    let solve_partial = no_partial name

    let solve_partial_result ~sessions ~frozen net =
      Solver_error.protect ~solver:name (fun () -> solve_partial ~sessions ~frozen net)
  end)

let tzeng_siu : t =
  (module struct
    let name = "Tzeng_siu"

    let capabilities =
      {
        multicast = true;
        multi_rate = false;
        weighted = false;
        vfn = `Efficient;
        partial = false;
      }

    let solve net = Tzeng_siu.to_allocation net (Tzeng_siu.max_min_session_rates net)

    let solve_result net =
      Result.map (Tzeng_siu.to_allocation net) (Tzeng_siu.max_min_session_rates_result net)

    let solve_partial = no_partial name

    let solve_partial_result ~sessions ~frozen net =
      Solver_error.protect ~solver:name (fun () -> solve_partial ~sessions ~frozen net)
  end)

let unicast : t =
  (module struct
    let name = "Unicast"

    let capabilities =
      {
        multicast = false;
        multi_rate = true;
        weighted = false;
        vfn = `Efficient;
        partial = false;
      }

    let expand net rates = Allocation.make net (Array.map (fun r -> [| r |]) rates)
    let solve net = expand net (Unicast.max_min_flow_rates net)
    let solve_result net = Result.map (expand net) (Unicast.max_min_flow_rates_result net)
    let solve_partial = no_partial name

    let solve_partial_result ~sessions ~frozen net =
      Solver_error.protect ~solver:name (fun () -> solve_partial ~sessions ~frozen net)
  end)

let default = allocator

let all () =
  [ allocator; allocator_reference; tzeng_siu; unicast ]
  |> List.map (fun e -> (name e, e))
