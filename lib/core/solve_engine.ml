type capabilities = { partial : bool }

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

let allocator : t =
  (module struct
    let name = "Allocator"
    let capabilities = { partial = true }
    let solve = Allocator.max_min
    let solve_result = Allocator.max_min_result
    let solve_partial = Allocator.max_min_partial
    let solve_partial_result = Allocator.max_min_partial_result
  end)

let allocator_reference : t =
  (module struct
    let name = "Allocator_reference"
    let capabilities = { partial = false }
    let solve net = Allocator_reference.max_min net
    let solve_result net = Allocator_reference.max_min_result net

    (* No warm-start entry point: fail loudly instead of silently
       degrading to a full solve. *)
    let solve_partial ~sessions:_ ~frozen:_ _ =
      invalid_arg (name ^ ".solve_partial: engine has no warm-start entry point")

    let solve_partial_result ~sessions ~frozen net =
      Solver_error.protect ~solver:name (fun () -> solve_partial ~sessions ~frozen net)
  end)

let default = allocator
