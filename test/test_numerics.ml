(* Numerics tests: vectors, dense solve, sparse ops, stationary
   distributions, bisection. *)

module Vec = Mmfair_numerics.Vec
module Mat = Mmfair_numerics.Mat
module Sparse = Mmfair_numerics.Sparse
module Markov_solve = Mmfair_numerics.Markov_solve
module Bisect = Mmfair_numerics.Bisect

let feq ?(eps = 1e-9) what a b =
  Alcotest.(check bool) (Printf.sprintf "%s: %g vs %g" what a b) true (Float.abs (a -. b) <= eps)

let vec_eq ?(eps = 1e-9) what a b =
  Alcotest.(check int) (what ^ " dims") (Array.length a) (Array.length b);
  Array.iteri (fun i x -> feq ~eps (Printf.sprintf "%s[%d]" what i) x b.(i)) a

(* --- Vec --- *)

let test_vec_ops () =
  let a = [| 1.0; 2.0; 3.0 |] and b = [| 4.0; 5.0; 6.0 |] in
  vec_eq "add" [| 5.0; 7.0; 9.0 |] (Vec.add a b);
  vec_eq "scale" [| 2.0; 4.0; 6.0 |] (Vec.scale 2.0 a);
  feq "sum" 6.0 (Vec.sum a)

let test_vec_mismatch () =
  Alcotest.check_raises "dim mismatch" (Invalid_argument "Vec.add: dimension mismatch (2 vs 3)")
    (fun () -> ignore (Vec.add [| 1.0; 2.0 |] [| 1.0; 2.0; 3.0 |]))

let test_vec_normalize1 () =
  vec_eq "normalize" [| 0.25; 0.75 |] (Vec.normalize1 [| 1.0; 3.0 |]);
  Alcotest.check_raises "zero sum" (Invalid_argument "Vec.normalize1: zero or non-finite sum")
    (fun () -> ignore (Vec.normalize1 [| 0.0; 0.0 |]))

let test_vec_max_abs_diff () = feq "max abs diff" 2.0 (Vec.max_abs_diff [| 1.0; 5.0 |] [| 2.0; 3.0 |])

(* --- Mat --- *)

let test_mat_solve_known () =
  (* 2x + y = 5; x + 3y = 10 -> x = 1, y = 3 *)
  let a = Mat.init 2 2 (fun i j -> [| [| 2.0; 1.0 |]; [| 1.0; 3.0 |] |].(i).(j)) in
  let x = Mat.solve a [| 5.0; 10.0 |] in
  vec_eq ~eps:1e-12 "solution" [| 1.0; 3.0 |] x

let test_mat_solve_pivoting () =
  (* Leading zero forces a row swap. *)
  let a = Mat.init 2 2 (fun i j -> [| [| 0.0; 1.0 |]; [| 1.0; 0.0 |] |].(i).(j)) in
  let x = Mat.solve a [| 2.0; 3.0 |] in
  vec_eq "swapped solution" [| 3.0; 2.0 |] x

let test_mat_solve_singular () =
  let a = Mat.init 2 2 (fun _ _ -> 1.0) in
  Alcotest.check_raises "singular" (Failure "Mat.solve: singular matrix") (fun () ->
      ignore (Mat.solve a [| 1.0; 1.0 |]))

let test_mat_vec_mul () =
  let a = Mat.init 2 2 (fun i j -> float_of_int ((2 * i) + j + 1)) in
  vec_eq "vec_mul" [| 7.0; 10.0 |] (Mat.vec_mul [| 1.0; 2.0 |] a)

(* --- Sparse --- *)

let test_sparse_build_get () =
  let b = Sparse.builder ~rows:3 ~cols:3 in
  Sparse.add b 0 1 2.0;
  Sparse.add b 0 1 3.0;
  (* accumulates *)
  Sparse.add b 2 0 7.0;
  Sparse.add b 1 1 0.0;
  (* dropped *)
  let m = Sparse.finalize b in
  Alcotest.(check int) "nnz" 2 (Sparse.nnz m);
  feq "accumulated" 5.0 (Sparse.get m 0 1);
  feq "stored" 7.0 (Sparse.get m 2 0);
  feq "absent" 0.0 (Sparse.get m 1 1)

let test_sparse_matches_dense () =
  let rng = Mmfair_prng.Xoshiro.create ~seed:21L () in
  let n = 12 in
  let dense = Mat.init n n (fun _ _ -> if Mmfair_prng.Xoshiro.float rng < 0.3 then Mmfair_prng.Xoshiro.float rng else 0.0) in
  let b = Sparse.builder ~rows:n ~cols:n in
  for i = 0 to n - 1 do
    for j = 0 to n - 1 do
      if Mat.get dense i j <> 0.0 then Sparse.add b i j (Mat.get dense i j)
    done
  done;
  let sp = Sparse.finalize b in
  let v = Array.init n (fun i -> float_of_int (i + 1)) in
  vec_eq ~eps:1e-12 "vec_mul agrees" (Mat.vec_mul v dense) (Sparse.vec_mul v sp)

let test_sparse_row_sums () =
  let b = Sparse.builder ~rows:2 ~cols:2 in
  Sparse.add b 0 0 0.4;
  Sparse.add b 0 1 0.6;
  Sparse.add b 1 0 1.0;
  let m = Sparse.finalize b in
  vec_eq "row sums" [| 1.0; 1.0 |] (Sparse.row_sums m);
  Alcotest.(check bool) "stochastic" true (Markov_solve.is_stochastic m)

(* --- Markov --- *)

let two_state_chain p q =
  let b = Sparse.builder ~rows:2 ~cols:2 in
  Sparse.add b 0 0 (1.0 -. p);
  Sparse.add b 0 1 p;
  Sparse.add b 1 0 q;
  Sparse.add b 1 1 (1.0 -. q);
  Sparse.finalize b

let test_stationary_two_state () =
  (* pi = (q, p)/(p+q) *)
  let p = 0.3 and q = 0.1 in
  let pi = Markov_solve.stationary_power (two_state_chain p q) in
  vec_eq ~eps:1e-9 "two-state stationary" [| q /. (p +. q); p /. (p +. q) |] pi

let test_stationary_direct_matches_power () =
  let p = 0.25 and q = 0.6 in
  let sp = two_state_chain p q in
  let dense = Mat.init 2 2 (fun i j -> Sparse.get sp i j) in
  let pi_p = Markov_solve.stationary_power sp in
  let pi_d = Markov_solve.stationary_direct dense in
  vec_eq ~eps:1e-8 "engines agree" pi_d pi_p

let test_stationary_periodic () =
  (* A period-2 chain: damping must still converge to (1/2, 1/2). *)
  let b = Sparse.builder ~rows:2 ~cols:2 in
  Sparse.add b 0 1 1.0;
  Sparse.add b 1 0 1.0;
  let pi = Markov_solve.stationary_power (Sparse.finalize b) in
  vec_eq ~eps:1e-9 "periodic stationary" [| 0.5; 0.5 |] pi

let test_stationary_random_chain () =
  let rng = Mmfair_prng.Xoshiro.create ~seed:22L () in
  let n = 20 in
  let b = Sparse.builder ~rows:n ~cols:n in
  for i = 0 to n - 1 do
    (* 3 random successors, normalized; always include self for
       aperiodicity. *)
    let weights = Array.init 4 (fun _ -> Mmfair_prng.Xoshiro.float rng +. 0.01) in
    let total = Array.fold_left ( +. ) 0.0 weights in
    Sparse.add b i i (weights.(0) /. total);
    for k = 1 to 3 do
      Sparse.add b i (Mmfair_prng.Xoshiro.below rng n) (weights.(k) /. total)
    done
  done;
  let m = Sparse.finalize b in
  Alcotest.(check bool) "stochastic" true (Markov_solve.is_stochastic ~tol:1e-9 m);
  let pi = Markov_solve.stationary_power m in
  feq ~eps:1e-9 "sums to 1" 1.0 (Vec.sum pi);
  Array.iter (fun x -> Alcotest.(check bool) "nonneg" true (x >= -1e-12)) pi;
  (* pi P = pi *)
  let stepped = Sparse.vec_mul pi m in
  feq ~eps:1e-8 "fixed point" 0.0 (Vec.max_abs_diff pi stepped)

let test_expectation () =
  feq "expectation" 2.5 (Markov_solve.expectation [| 0.5; 0.5 |] (fun i -> float_of_int (i + 2)))

(* --- Bisect --- *)

let test_root_sqrt2 () =
  let r = Bisect.root (fun x -> (x *. x) -. 2.0) 0.0 2.0 in
  feq ~eps:1e-9 "sqrt 2" (sqrt 2.0) r

let test_root_at_endpoint () = feq "root at lo" 0.0 (Bisect.root (fun x -> x) 0.0 5.0)

let test_root_no_bracket () =
  Alcotest.check_raises "no sign change" (Invalid_argument "Bisect.root: no sign change in bracket")
    (fun () -> ignore (Bisect.root (fun x -> (x *. x) +. 1.0) 0.0 1.0))

let test_sup_satisfying () =
  let sup = Bisect.sup_satisfying (fun x -> x *. x <= 2.0) 0.0 10.0 in
  feq ~eps:1e-6 "sup x^2<=2" (sqrt 2.0) sup;
  Alcotest.(check bool) "result is feasible" true (sup *. sup <= 2.0 +. 1e-9)

let test_sup_all_ok () = feq "whole interval" 3.0 (Bisect.sup_satisfying (fun _ -> true) 1.0 3.0)

let test_sup_large_negative_bracket () =
  (* Regression: the stopping tolerance must scale with |lo| as well
     as |hi| (like [root]); with scale 1.0 this bracket cannot reach
     [tol] in ~40 halvings and burns the whole iteration budget. *)
  let calls = ref 0 in
  let ok x =
    incr calls;
    x <= -2e8
  in
  let sup = Bisect.sup_satisfying ok (-1e9) 0.0 in
  feq ~eps:1e-2 "sup at threshold" (-2e8) sup;
  Alcotest.(check bool)
    (Printf.sprintf "converges without exhausting max_iter (%d calls)" !calls)
    true (!calls <= 50)

let test_sup_invalid () =
  Alcotest.check_raises "lo infeasible"
    (Invalid_argument "Bisect.sup_satisfying: predicate false at lo") (fun () ->
      ignore (Bisect.sup_satisfying (fun _ -> false) 0.0 1.0))

let suite =
  [
    Alcotest.test_case "vec ops" `Quick test_vec_ops;
    Alcotest.test_case "vec mismatch" `Quick test_vec_mismatch;
    Alcotest.test_case "vec normalize1" `Quick test_vec_normalize1;
    Alcotest.test_case "vec max_abs_diff" `Quick test_vec_max_abs_diff;
    Alcotest.test_case "mat solve known" `Quick test_mat_solve_known;
    Alcotest.test_case "mat solve pivoting" `Quick test_mat_solve_pivoting;
    Alcotest.test_case "mat solve singular" `Quick test_mat_solve_singular;
    Alcotest.test_case "mat vec mul" `Quick test_mat_vec_mul;
    Alcotest.test_case "sparse build/get" `Quick test_sparse_build_get;
    Alcotest.test_case "sparse matches dense" `Quick test_sparse_matches_dense;
    Alcotest.test_case "sparse row sums" `Quick test_sparse_row_sums;
    Alcotest.test_case "stationary two-state" `Quick test_stationary_two_state;
    Alcotest.test_case "stationary direct vs power" `Quick test_stationary_direct_matches_power;
    Alcotest.test_case "stationary periodic chain" `Quick test_stationary_periodic;
    Alcotest.test_case "stationary random chain" `Quick test_stationary_random_chain;
    Alcotest.test_case "expectation" `Quick test_expectation;
    Alcotest.test_case "bisect root sqrt2" `Quick test_root_sqrt2;
    Alcotest.test_case "bisect root endpoint" `Quick test_root_at_endpoint;
    Alcotest.test_case "bisect no bracket" `Quick test_root_no_bracket;
    Alcotest.test_case "bisect sup" `Quick test_sup_satisfying;
    Alcotest.test_case "bisect sup all ok" `Quick test_sup_all_ok;
    Alcotest.test_case "bisect sup large negative bracket" `Quick test_sup_large_negative_bracket;
    Alcotest.test_case "bisect sup invalid" `Quick test_sup_invalid;
  ]
