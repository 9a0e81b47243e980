type interval = { mean : float; half_width : float; level : float; n : int }

(* Two-sided critical values for Student's t.  Rows are degrees of
   freedom 1..30, then selected larger values; the final entry is the
   standard-normal limit. *)
let table_90 =
  [| 6.314; 2.920; 2.353; 2.132; 2.015; 1.943; 1.895; 1.860; 1.833; 1.812;
     1.796; 1.782; 1.771; 1.761; 1.753; 1.746; 1.740; 1.734; 1.729; 1.725;
     1.721; 1.717; 1.714; 1.711; 1.708; 1.706; 1.703; 1.701; 1.699; 1.697 |]

let table_95 =
  [| 12.706; 4.303; 3.182; 2.776; 2.571; 2.447; 2.365; 2.306; 2.262; 2.228;
     2.201; 2.179; 2.160; 2.145; 2.131; 2.120; 2.110; 2.101; 2.093; 2.086;
     2.080; 2.074; 2.069; 2.064; 2.060; 2.056; 2.052; 2.048; 2.045; 2.042 |]

let table_99 =
  [| 63.657; 9.925; 5.841; 4.604; 4.032; 3.707; 3.499; 3.355; 3.250; 3.169;
     3.106; 3.055; 3.012; 2.977; 2.947; 2.921; 2.898; 2.878; 2.861; 2.845;
     2.831; 2.819; 2.807; 2.797; 2.787; 2.779; 2.771; 2.763; 2.756; 2.750 |]

let normal_limit level =
  if level = 0.90 then 1.645 else if level = 0.95 then 1.960 else 2.576

let t_critical ~level ~df =
  if df <= 0 then invalid_arg "Ci.t_critical: df must be positive";
  let table =
    if level = 0.90 then table_90
    else if level = 0.95 then table_95
    else if level = 0.99 then table_99
    else invalid_arg "Ci.t_critical: supported levels are 0.90, 0.95, 0.99"
  in
  if df <= Array.length table then table.(df - 1)
  else if df <= 40 then table.(29) -. ((table.(29) -. normal_limit level) *. float_of_int (df - 30) /. 10.0)
  else normal_limit level

let of_samples ?(level = 0.95) xs =
  let n = Array.length xs in
  if n < 2 then invalid_arg "Ci.of_samples: need at least two samples";
  let mean = Descriptive.mean xs in
  let sd = Descriptive.stddev xs in
  let t = t_critical ~level ~df:(n - 1) in
  { mean; half_width = t *. sd /. sqrt (float_of_int n); level; n }

let pp fmt ci =
  Format.fprintf fmt "%.4f ± %.4f (%.0f%% CI, n=%d)" ci.mean ci.half_width (100.0 *. ci.level)
    ci.n
