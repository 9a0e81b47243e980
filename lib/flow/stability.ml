type verdict = Stable | Divergent | Inconclusive

let verdict_to_string = function
  | Stable -> "stable"
  | Divergent -> "divergent"
  | Inconclusive -> "inconclusive"

let schema_id = "mmfair.stability/v1"

type config = { growth_factor : float; growth_slack : float; min_arrivals : int }

let default = { growth_factor = 1.5; growth_slack = 3.0; min_arrivals = 20 }

type report = {
  verdict : verdict;
  offered_load : float;
  first_half_mean : float;
  second_half_mean : float;
  drift_per_time : float;
  max_population : int;
  time_avg_population : float;
  regenerations : int;
}

let check cfg =
  if not (Float.is_finite cfg.growth_factor && cfg.growth_factor >= 1.0) then
    invalid_arg "Stability: growth_factor must be finite and >= 1";
  if not (Float.is_finite cfg.growth_slack && cfg.growth_slack >= 0.0) then
    invalid_arg "Stability: growth_slack must be finite and >= 0";
  if cfg.min_arrivals < 1 then invalid_arg "Stability: min_arrivals must be >= 1"

let assess ?(config = default) (r : Sim.result) =
  check config;
  let m1 = r.Sim.first_half_mean and m2 = r.Sim.second_half_mean in
  (* A stable (positive-recurrent) population's time average converges:
     both halves estimate the same mean, so their ratio hovers near 1.
     Under sustained overload the population grows linearly, making the
     second half's average roughly triple the first's — far beyond the
     factor+slack band whatever the absolute scale.  The additive slack
     keeps near-empty systems (both means << 1) from tripping the ratio
     on noise. *)
  let verdict =
    if r.Sim.arrivals < config.min_arrivals then Inconclusive
    else if m2 > (m1 *. config.growth_factor) +. config.growth_slack then Divergent
    else Stable
  in
  {
    verdict;
    offered_load = r.Sim.offered_load;
    first_half_mean = m1;
    second_half_mean = m2;
    drift_per_time = (m2 -. m1) /. (r.Sim.horizon /. 2.0);
    max_population = r.Sim.max_population;
    time_avg_population = r.Sim.time_avg_population;
    regenerations = r.Sim.regenerations;
  }
