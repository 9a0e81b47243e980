(* Stats tests: descriptive, confidence intervals, log-bucketed
   histograms. *)

module D = Mmfair_stats.Descriptive
module Ci = Mmfair_stats.Ci
module LH = Mmfair_stats.Log_histogram

let feq ?(eps = 1e-9) what a b =
  Alcotest.(check bool) (Printf.sprintf "%s: %g vs %g" what a b) true (Float.abs (a -. b) <= eps)

let test_sum_empty () = feq "empty sum" 0.0 (D.sum [||])

let test_sum_kahan () =
  (* Tiny increments that naive summation loses. *)
  let xs = Array.make 10_000_000 1e-10 in
  feq ~eps:1e-12 "kahan sum" 1e-3 (D.sum xs)

let test_mean_basic () = feq "mean" 2.5 (D.mean [| 1.0; 2.0; 3.0; 4.0 |])

let test_mean_empty () =
  Alcotest.check_raises "empty mean" (Invalid_argument "Descriptive.mean: empty") (fun () ->
      ignore (D.mean [||]))

let test_variance_known () = feq "variance" 2.5 (D.variance [| 1.0; 2.0; 3.0; 4.0; 5.0 |])

let test_variance_constant () = feq "constant variance" 0.0 (D.variance [| 3.0; 3.0; 3.0 |])

let test_variance_single () =
  Alcotest.check_raises "single sample"
    (Invalid_argument "Descriptive.variance: need at least two samples") (fun () ->
      ignore (D.variance [| 1.0 |]))

let test_minmax () =
  feq "min" (-2.0) (D.min [| 3.0; -2.0; 7.0 |]);
  feq "max" 7.0 (D.max [| 3.0; -2.0; 7.0 |])

let test_minmax_nan () =
  (* Both extremes must propagate NaN; the polymorphic [Stdlib.max]
     used to drop it silently while [min] kept it. *)
  Alcotest.(check bool) "min propagates NaN" true (Float.is_nan (D.min [| 3.0; Float.nan; 7.0 |]));
  Alcotest.(check bool) "max propagates NaN" true (Float.is_nan (D.max [| 3.0; Float.nan; 7.0 |]))

let test_median_odd () = feq "odd median" 3.0 (D.median [| 5.0; 1.0; 3.0 |])
let test_median_even () = feq "even median" 2.5 (D.median [| 4.0; 1.0; 2.0; 3.0 |])

let test_quantile_bounds () =
  let xs = [| 10.0; 20.0; 30.0 |] in
  feq "q0" 10.0 (D.quantile xs 0.0);
  feq "q1" 30.0 (D.quantile xs 1.0)

let test_quantile_interp () = feq "q0.25" 1.75 (D.quantile [| 1.0; 2.0; 3.0; 4.0 |] 0.25)

let test_quantile_invalid () =
  Alcotest.check_raises "q > 1" (Invalid_argument "Descriptive.quantile: q outside [0,1]") (fun () ->
      ignore (D.quantile [| 1.0 |] 1.5))

let test_t_critical_table () =
  feq ~eps:1e-9 "df=1, 95%" 12.706 (Ci.t_critical ~level:0.95 ~df:1);
  feq ~eps:1e-9 "df=29, 95%" 2.045 (Ci.t_critical ~level:0.95 ~df:29);
  feq ~eps:1e-9 "df=10, 99%" 3.169 (Ci.t_critical ~level:0.99 ~df:10);
  feq ~eps:1e-9 "big df -> normal" 1.960 (Ci.t_critical ~level:0.95 ~df:1000)

let test_t_critical_invalid () =
  Alcotest.check_raises "bad level"
    (Invalid_argument "Ci.t_critical: supported levels are 0.90, 0.95, 0.99") (fun () ->
      ignore (Ci.t_critical ~level:0.80 ~df:5))

let test_ci_of_samples () =
  let xs = [| 10.0; 12.0; 11.0; 13.0; 9.0 |] in
  let ci = Ci.of_samples xs in
  feq "point estimate" 11.0 ci.Ci.mean;
  (* sd = sqrt(2.5); hw = 2.776*sd/sqrt(5) *)
  feq ~eps:1e-6 "half width" (2.776 *. sqrt 2.5 /. sqrt 5.0) ci.Ci.half_width;
  Alcotest.(check bool) "excludes far value" true (Float.abs (20.0 -. ci.Ci.mean) > ci.Ci.half_width)

let test_ci_coverage () =
  (* Frequentist check: ~95% of CIs on N(0,1)-ish samples should cover 0. *)
  let rng = Mmfair_prng.Xoshiro.create ~seed:77L () in
  let trials = 400 and n = 20 in
  let covered = ref 0 in
  for _ = 1 to trials do
    let xs =
      Array.init n (fun _ ->
          (* sum of 12 uniforms - 6 approximates a standard normal *)
          let s = ref 0.0 in
          for _ = 1 to 12 do
            s := !s +. Mmfair_prng.Xoshiro.float rng
          done;
          !s -. 6.0)
    in
    let ci = Ci.of_samples xs in
    if Float.abs ci.Ci.mean <= ci.Ci.half_width then incr covered
  done;
  let rate = float_of_int !covered /. float_of_int trials in
  Alcotest.(check bool) (Printf.sprintf "coverage %.3f in [0.90, 0.99]" rate) true
    (rate >= 0.90 && rate <= 0.99)

let test_log_histogram_basic () =
  let h = LH.create ~lo:1e-3 ~hi:10.0 ~bins:8 in
  List.iter (LH.add h) [ 1e-4; 0.0; 0.5; 2.0; 10.0; 50.0 ];
  Alcotest.(check int) "count" 6 (LH.count h);
  Alcotest.(check int) "underflow" 2 (LH.underflow h);
  Alcotest.(check int) "overflow" 2 (LH.overflow h);
  feq "max" 50.0 (LH.max_value h);
  feq ~eps:1e-9 "sum" 62.5001 (LH.sum h);
  feq "edge 0 = lo" 1e-3 (LH.edge h 0);
  feq ~eps:1e-12 "edge bins = hi" 10.0 (LH.edge h (LH.bins h));
  feq "hi" 10.0 (LH.hi h)

let test_log_histogram_geometric_edges () =
  (* lo 1, hi 16, 4 bins: edges 1, 2, 4, 8, 16 — exact powers. *)
  let h = LH.create ~lo:1.0 ~hi:16.0 ~bins:4 in
  List.iteri (fun i e -> feq ~eps:1e-12 (Printf.sprintf "edge %d" i) e (LH.edge h i))
    [ 1.0; 2.0; 4.0; 8.0; 16.0 ];
  LH.add h 3.0;
  Alcotest.(check int) "3.0 lands in [2,4)" 1 (LH.bin_count h 1);
  LH.add h 2.0;
  Alcotest.(check int) "left edge inclusive" 2 (LH.bin_count h 1)

let test_log_histogram_quantiles () =
  let h = LH.create ~lo:1.0 ~hi:16.0 ~bins:4 in
  (* 10 observations in [1,2), 10 in [8,16). *)
  for _ = 1 to 10 do LH.add h 1.5 done;
  for _ = 1 to 10 do LH.add h 9.0 done;
  feq "p50 upper edge of [1,2)" 2.0 (LH.quantile h 0.5);
  feq "p90 upper edge of [8,16)" 16.0 (LH.quantile h 0.9);
  let blo, bhi = LH.quantile_bounds h 0.9 in
  Alcotest.(check bool) "true p90 within bounds" true (blo <= 9.0 && 9.0 <= bhi);
  LH.add h 100.0;
  feq "overflow tail answers exact max" 100.0 (LH.quantile h 1.0)

let test_log_histogram_empty_and_invalid () =
  let h = LH.create ~lo:1.0 ~hi:2.0 ~bins:1 in
  Alcotest.(check bool) "empty quantile is nan" true (Float.is_nan (LH.quantile h 0.5));
  (let a, b = LH.quantile_bounds h 0.5 in
   Alcotest.(check bool) "empty bounds are nan" true (Float.is_nan a && Float.is_nan b));
  Alcotest.check_raises "lo = 0" (Invalid_argument "Log_histogram.create: need 0 < lo < hi")
    (fun () -> ignore (LH.create ~lo:0.0 ~hi:1.0 ~bins:4));
  Alcotest.check_raises "q > 1" (Invalid_argument "Log_histogram.quantile: need 0 <= q <= 1")
    (fun () -> ignore (LH.quantile h 1.5))

(* The bound guarantee the registry's p50/p90/p99 reporting rests on:
   for any sample set, the exact nearest-rank quantile lies inside
   [quantile_bounds], and [quantile] answers a point inside the same
   interval. *)
let qcheck_log_quantile_in_bounds =
  QCheck.Test.make ~name:"log histogram quantile bounds contain the exact quantile" ~count:300
    QCheck.(array_of_size Gen.(1 -- 200) (float_bound_inclusive 100.0))
    (fun xs ->
      let h = LH.create ~lo:0.01 ~hi:10.0 ~bins:24 in
      Array.iter (LH.add h) xs;
      let sorted = Array.copy xs in
      Array.sort compare sorted;
      let n = Array.length sorted in
      List.for_all
        (fun q ->
          let rank = Stdlib.max 1 (int_of_float (Float.ceil (q *. float_of_int n))) in
          let exact = sorted.(rank - 1) in
          let blo, bhi = LH.quantile_bounds h q in
          let est = LH.quantile h q in
          blo <= exact && exact <= bhi && blo <= est && est <= bhi)
        [ 0.5; 0.9; 0.99; 1.0 ])

let qcheck_quantile_monotone =
  QCheck.Test.make ~name:"quantiles are monotone in q" ~count:200
    QCheck.(array_of_size Gen.(2 -- 30) (float_bound_inclusive 100.0))
    (fun xs ->
      let q1 = D.quantile xs 0.25 and q2 = D.quantile xs 0.75 in
      q1 <= q2 +. 1e-9)

let qcheck_variance_nonneg =
  QCheck.Test.make ~name:"variance is non-negative" ~count:200
    QCheck.(array_of_size Gen.(2 -- 30) (float_bound_inclusive 100.0))
    (fun xs -> D.variance xs >= -1e-9)

let suite =
  [
    Alcotest.test_case "sum empty" `Quick test_sum_empty;
    Alcotest.test_case "kahan sum" `Slow test_sum_kahan;
    Alcotest.test_case "mean basic" `Quick test_mean_basic;
    Alcotest.test_case "mean empty" `Quick test_mean_empty;
    Alcotest.test_case "variance known" `Quick test_variance_known;
    Alcotest.test_case "variance constant" `Quick test_variance_constant;
    Alcotest.test_case "variance single" `Quick test_variance_single;
    Alcotest.test_case "min/max" `Quick test_minmax;
    Alcotest.test_case "min/max NaN propagation" `Quick test_minmax_nan;
    Alcotest.test_case "median odd" `Quick test_median_odd;
    Alcotest.test_case "median even" `Quick test_median_even;
    Alcotest.test_case "quantile bounds" `Quick test_quantile_bounds;
    Alcotest.test_case "quantile interpolation" `Quick test_quantile_interp;
    Alcotest.test_case "quantile invalid" `Quick test_quantile_invalid;
    Alcotest.test_case "t critical table" `Quick test_t_critical_table;
    Alcotest.test_case "t critical invalid" `Quick test_t_critical_invalid;
    Alcotest.test_case "ci of samples" `Quick test_ci_of_samples;
    Alcotest.test_case "ci coverage" `Slow test_ci_coverage;
    Alcotest.test_case "log histogram basic" `Quick test_log_histogram_basic;
    Alcotest.test_case "log histogram geometric edges" `Quick test_log_histogram_geometric_edges;
    Alcotest.test_case "log histogram quantiles" `Quick test_log_histogram_quantiles;
    Alcotest.test_case "log histogram empty/invalid" `Quick test_log_histogram_empty_and_invalid;
    QCheck_alcotest.to_alcotest qcheck_log_quantile_in_bounds;
    QCheck_alcotest.to_alcotest qcheck_quantile_monotone;
    QCheck_alcotest.to_alcotest qcheck_variance_nonneg;
  ]
