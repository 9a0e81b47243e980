(* Persistent vectors: batched updates against a plain-array model,
   with every earlier version checked unchanged after later updates. *)

module Pvec = Mmfair_core.Pvec

let to_list v = Array.to_list (Pvec.to_array v)

(* A length (spanning zero, one and several chunks) and a sequence of
   batches of writes, some out of range to exercise the check. *)
let gen =
  QCheck.Gen.(
    int_range 0 200 >>= fun n ->
    let write = pair (int_range (-2) (n + 1)) (int_bound 1000) in
    list_size (int_range 1 12) (list_size (int_range 0 40) write) >|= fun batches -> (n, batches))

let qcheck_update_matches_model =
  QCheck.Test.make ~name:"Pvec.update matches an array model; old versions are unchanged" ~count:300
    (QCheck.make gen) (fun (n, batches) ->
      let v0 = Pvec.init n (fun i -> i) in
      let model0 = Array.init n (fun i -> i) in
      let versions =
        List.fold_left
          (fun acc batch ->
            let v, model = List.hd acc in
            let model = Array.copy model in
            let in_range = List.filter (fun (i, _) -> i >= 0 && i < n) batch in
            List.iter (fun (i, x) -> model.(i) <- x) in_range;
            let v' = Pvec.update v (fun set -> List.iter (fun (i, x) -> set i x) in_range) in
            (* An out-of-range write raises and leaves [v] as it was. *)
            (match List.find_opt (fun (i, _) -> i < 0 || i >= n) batch with
            | Some (i, x) -> (
                match Pvec.update v (fun set -> set i x) with
                | _ -> QCheck.Test.fail_reportf "write to %d of %d did not raise" i n
                | exception Invalid_argument _ -> ())
            | None -> ());
            (* [iter_changed] visits exactly the indices whose ints differ. *)
            let changed = ref [] in
            Pvec.iter_changed (fun i _ _ -> changed := i :: !changed) v' v;
            let expected = List.filter (fun i -> model.(i) <> Pvec.get v i) (List.init n Fun.id) in
            if List.rev !changed <> expected then
              QCheck.Test.fail_report "iter_changed visited other indices";
            (v', model) :: acc)
          [ (v0, model0) ] batches
      in
      List.for_all
        (fun (v, model) ->
          Pvec.length v = n
          && to_list v = Array.to_list model
          && List.for_all (fun i -> Pvec.get v i = model.(i)) (List.init n Fun.id)
          && Pvec.fold_left (fun acc x -> x :: acc) [] v = List.rev (Array.to_list model))
        versions)

let test_make_and_bounds () =
  let v = Pvec.make 70 'a' in
  Alcotest.(check int) "length" 70 (Pvec.length v);
  let w = Pvec.update v (fun set -> set 0 'b'; set 69 'c'; set 33 'd') in
  Alcotest.(check string)
    "old version" (String.make 70 'a')
    (String.of_seq (Array.to_seq (Pvec.to_array v)));
  Alcotest.(check (list (pair int char)))
    "new version's writes" [ (0, 'b'); (33, 'd'); (69, 'c') ]
    (let acc = ref [] in
     Pvec.iteri (fun i c -> if c <> 'a' then acc := (i, c) :: !acc) w;
     List.rev !acc);
  let out_of_bounds = Invalid_argument "Pvec.get: index out of bounds" in
  Alcotest.check_raises "get past the end" out_of_bounds (fun () -> ignore (Pvec.get v 70));
  Alcotest.check_raises "get below zero" out_of_bounds (fun () -> ignore (Pvec.get v (-1)));
  Alcotest.(check int) "empty" 0 (Pvec.length (Pvec.of_array [||]))

let suite =
  [
    Alcotest.test_case "make, update and bounds" `Quick test_make_and_bounds;
    QCheck_alcotest.to_alcotest qcheck_update_matches_model;
  ]
