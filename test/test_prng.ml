(* PRNG tests: determinism, range contracts, distribution sanity. *)

module Splitmix64 = Mmfair_prng.Splitmix64
module Xoshiro = Mmfair_prng.Xoshiro

let test_splitmix_deterministic () =
  let a = Splitmix64.create 1L and b = Splitmix64.create 1L in
  for _ = 1 to 100 do
    Alcotest.(check int64) "same stream" (Splitmix64.next a) (Splitmix64.next b)
  done

let test_splitmix_seed_sensitivity () =
  let a = Splitmix64.create 1L and b = Splitmix64.create 2L in
  Alcotest.(check bool) "different seeds differ" true (Splitmix64.next a <> Splitmix64.next b)

let test_splitmix_copy_independent () =
  let a = Splitmix64.create 7L in
  ignore (Splitmix64.next a);
  let b = Splitmix64.copy a in
  let xa = Splitmix64.next a in
  let xb = Splitmix64.next b in
  Alcotest.(check int64) "copy continues identically" xa xb;
  (* advancing the copy further must not touch the original *)
  ignore (Splitmix64.next b);
  let xa2 = Splitmix64.next a in
  let xb2 = Splitmix64.next b in
  Alcotest.(check bool) "streams have diverged in position" true (xa2 <> xb2)

let test_splitmix_split_diverges () =
  let a = Splitmix64.create 9L in
  let b = Splitmix64.split a in
  let same = ref 0 in
  for _ = 1 to 64 do
    if Splitmix64.next a = Splitmix64.next b then incr same
  done;
  Alcotest.(check int) "no collisions in 64 draws" 0 !same

let test_xoshiro_deterministic () =
  let a = Xoshiro.create ~seed:10L () and b = Xoshiro.create ~seed:10L () in
  for _ = 1 to 100 do
    Alcotest.(check int64) "same stream" (Xoshiro.next a) (Xoshiro.next b)
  done

let test_xoshiro_zero_state_rejected () =
  Alcotest.check_raises "all-zero rejected"
    (Invalid_argument "Xoshiro.of_state: all-zero state is absorbing") (fun () ->
      ignore (Xoshiro.of_state [| 0L; 0L; 0L; 0L |]))

let test_xoshiro_bad_state_length () =
  Alcotest.check_raises "length 3 rejected" (Invalid_argument "Xoshiro.of_state: need 4 words")
    (fun () -> ignore (Xoshiro.of_state [| 1L; 2L; 3L |]))

let test_xoshiro_float_mean () =
  let g = Xoshiro.create ~seed:11L () in
  let n = 100_000 in
  let sum = ref 0.0 in
  for _ = 1 to n do
    sum := !sum +. Xoshiro.float g
  done;
  let mean = !sum /. float_of_int n in
  Alcotest.(check bool) "mean close to 0.5" true (Float.abs (mean -. 0.5) < 0.01)

let test_xoshiro_bernoulli_rate () =
  let g = Xoshiro.create ~seed:12L () in
  let n = 100_000 and p = 0.3 in
  let hits = ref 0 in
  for _ = 1 to n do
    if Xoshiro.bernoulli g p then incr hits
  done;
  let rate = float_of_int !hits /. float_of_int n in
  Alcotest.(check bool) "rate close to p" true (Float.abs (rate -. p) < 0.01)

let test_xoshiro_bernoulli_edges () =
  let g = Xoshiro.create ~seed:13L () in
  for _ = 1 to 100 do
    Alcotest.(check bool) "p=0 never" false (Xoshiro.bernoulli g 0.0);
    Alcotest.(check bool) "p=1 always" true (Xoshiro.bernoulli g 1.0)
  done

let test_xoshiro_geometric_mean () =
  let g = Xoshiro.create ~seed:14L () in
  let n = 50_000 and p = 0.25 in
  let sum = ref 0 in
  for _ = 1 to n do
    sum := !sum + Xoshiro.geometric g p
  done;
  let mean = float_of_int !sum /. float_of_int n in
  (* E = (1-p)/p = 3 *)
  Alcotest.(check bool) "mean close to 3" true (Float.abs (mean -. 3.0) < 0.1)

let test_xoshiro_geometric_p1 () =
  let g = Xoshiro.create ~seed:15L () in
  for _ = 1 to 100 do
    Alcotest.(check int) "p=1 is 0" 0 (Xoshiro.geometric g 1.0)
  done

let test_xoshiro_exponential_mean () =
  let g = Xoshiro.create ~seed:16L () in
  let n = 50_000 and rate = 2.0 in
  let sum = ref 0.0 in
  for _ = 1 to n do
    sum := !sum +. Xoshiro.exponential g rate
  done;
  let mean = !sum /. float_of_int n in
  Alcotest.(check bool) "mean close to 1/rate" true (Float.abs (mean -. 0.5) < 0.02)

let test_xoshiro_pareto_mean () =
  let g = Xoshiro.create ~seed:23L () in
  let n = 50_000 and alpha = 2.5 and lo = 1.0 and hi = 100.0 in
  let sum = ref 0.0 in
  for _ = 1 to n do
    sum := !sum +. Xoshiro.pareto_bounded g ~alpha ~lo ~hi
  done;
  let mean = !sum /. float_of_int n in
  (* Closed-form bounded-Pareto mean. *)
  let expected =
    alpha /. (alpha -. 1.0)
    *. ((lo ** alpha) *. ((lo ** (1.0 -. alpha)) -. (hi ** (1.0 -. alpha))))
    /. (1.0 -. ((lo /. hi) ** alpha))
  in
  Alcotest.(check bool)
    (Printf.sprintf "mean %.4f close to %.4f" mean expected)
    true
    (Float.abs (mean -. expected) < 0.05 *. expected)

let test_xoshiro_heavy_tail_invalid () =
  let g = Xoshiro.create ~seed:25L () in
  let expect_invalid what f =
    match f () with
    | (_ : float) -> Alcotest.failf "%s: expected Invalid_argument" what
    | exception Invalid_argument _ -> ()
  in
  expect_invalid "pareto alpha 0" (fun () -> Xoshiro.pareto_bounded g ~alpha:0.0 ~lo:1.0 ~hi:2.0);
  expect_invalid "pareto lo >= hi" (fun () -> Xoshiro.pareto_bounded g ~alpha:1.5 ~lo:2.0 ~hi:2.0);
  expect_invalid "pareto lo 0" (fun () -> Xoshiro.pareto_bounded g ~alpha:1.5 ~lo:0.0 ~hi:2.0)

let qcheck_pareto_in_bounds =
  QCheck.Test.make ~name:"pareto_bounded stays in [lo, hi)" ~count:500
    QCheck.(triple (int_bound 1000) (float_bound_inclusive 3.0) (float_bound_inclusive 5.0))
    (fun (seed, a, spread) ->
      let alpha = 0.25 +. a and lo = 0.5 in
      let hi = lo *. (1.5 +. spread) in
      let g = Xoshiro.create ~seed:(Int64.of_int seed) () in
      let x = Xoshiro.pareto_bounded g ~alpha ~lo ~hi in
      x >= lo && x < hi)

let test_xoshiro_shuffle_permutation () =
  let g = Xoshiro.create ~seed:17L () in
  let a = Array.init 50 Fun.id in
  Xoshiro.shuffle g a;
  let sorted = Array.copy a in
  Array.sort compare sorted;
  Alcotest.(check (array int)) "still a permutation" (Array.init 50 Fun.id) sorted

let test_xoshiro_below_uniformity () =
  let g = Xoshiro.create ~seed:18L () in
  let buckets = Array.make 10 0 in
  let n = 100_000 in
  for _ = 1 to n do
    let i = Xoshiro.below g 10 in
    buckets.(i) <- buckets.(i) + 1
  done;
  Array.iter
    (fun c ->
      let freq = float_of_int c /. float_of_int n in
      Alcotest.(check bool) "bucket near 0.1" true (Float.abs (freq -. 0.1) < 0.01))
    buckets

let test_xoshiro_split_independent () =
  let a = Xoshiro.create ~seed:19L () in
  let b = Xoshiro.split a in
  let same = ref 0 in
  for _ = 1 to 64 do
    if Xoshiro.next a = Xoshiro.next b then incr same
  done;
  Alcotest.(check int) "no collisions" 0 !same

let qcheck_pick_in_array =
  QCheck.Test.make ~name:"pick returns an element of the array" ~count:200
    QCheck.(pair small_int (array_of_size Gen.(1 -- 20) int))
    (fun (seed, arr) ->
      QCheck.assume (Array.length arr > 0);
      let g = Xoshiro.create ~seed:(Int64.of_int seed) () in
      let picked = Xoshiro.pick g arr in
      Array.exists (fun x -> x = picked) arr)

let suite =
  [
    Alcotest.test_case "splitmix deterministic" `Quick test_splitmix_deterministic;
    Alcotest.test_case "splitmix seed sensitivity" `Quick test_splitmix_seed_sensitivity;
    Alcotest.test_case "splitmix copy independent" `Quick test_splitmix_copy_independent;
    Alcotest.test_case "splitmix split diverges" `Quick test_splitmix_split_diverges;
    Alcotest.test_case "xoshiro deterministic" `Quick test_xoshiro_deterministic;
    Alcotest.test_case "xoshiro zero state rejected" `Quick test_xoshiro_zero_state_rejected;
    Alcotest.test_case "xoshiro bad state length" `Quick test_xoshiro_bad_state_length;
    Alcotest.test_case "xoshiro float mean" `Quick test_xoshiro_float_mean;
    Alcotest.test_case "xoshiro bernoulli rate" `Quick test_xoshiro_bernoulli_rate;
    Alcotest.test_case "xoshiro bernoulli edges" `Quick test_xoshiro_bernoulli_edges;
    Alcotest.test_case "xoshiro geometric mean" `Quick test_xoshiro_geometric_mean;
    Alcotest.test_case "xoshiro geometric p=1" `Quick test_xoshiro_geometric_p1;
    Alcotest.test_case "xoshiro exponential mean" `Quick test_xoshiro_exponential_mean;
    Alcotest.test_case "xoshiro pareto_bounded mean" `Quick test_xoshiro_pareto_mean;
    Alcotest.test_case "xoshiro heavy-tail samplers reject bad parameters" `Quick
      test_xoshiro_heavy_tail_invalid;
    Alcotest.test_case "xoshiro shuffle permutation" `Quick test_xoshiro_shuffle_permutation;
    Alcotest.test_case "xoshiro below uniformity" `Quick test_xoshiro_below_uniformity;
    Alcotest.test_case "xoshiro split independent" `Quick test_xoshiro_split_independent;
    QCheck_alcotest.to_alcotest qcheck_pick_in_array;
    QCheck_alcotest.to_alcotest qcheck_pareto_in_bounds;
  ]
