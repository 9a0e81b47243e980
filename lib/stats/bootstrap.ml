let resample_into rng xs scratch =
  let n = Array.length xs in
  for i = 0 to n - 1 do
    scratch.(i) <- xs.(Mmfair_prng.Xoshiro.below rng n)
  done

let bootstrap_stats ~rng ~resamples ~stat xs =
  let n = Array.length xs in
  if n < 2 then invalid_arg "Bootstrap: need at least two samples";
  if resamples < 10 then invalid_arg "Bootstrap: need at least 10 resamples";
  let scratch = Array.make n 0.0 in
  Array.init resamples (fun _ ->
      resample_into rng xs scratch;
      stat scratch)

let mean_ci ~rng ?(resamples = 2000) ?(level = 0.95) xs =
  let stats = bootstrap_stats ~rng ~resamples ~stat:Descriptive.mean xs in
  let alpha = (1.0 -. level) /. 2.0 in
  let lo = Descriptive.quantile stats alpha in
  let hi = Descriptive.quantile stats (1.0 -. alpha) in
  {
    Ci.mean = Descriptive.mean xs;
    half_width = (hi -. lo) /. 2.0;
    level;
    n = Array.length xs;
  }
