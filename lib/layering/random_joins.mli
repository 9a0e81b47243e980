(** Expected redundancy of a single layer under uncoordinated random
    joins — the paper's Appendix B and Figure 5.

    One layer transmits [λ] equally likely packets per quantum; each
    receiver [r_t] needing [a_t·Δt] packets picks them uniformly at
    random and independently of the other receivers.  The expected
    session link rate on a link shared by receivers with rates
    [{a_1…a_R}] is

    [E U = λ (1 − Π_t (1 − a_t/λ))],

    and the session's expected redundancy there is [E U / max_t a_t]
    (Definition 3).  {!simulate_redundancy} draws the same quantity by
    Monte Carlo over explicit random packet subsets, which tests use
    to validate the closed form. *)

val expected_link_rate : lambda:float -> rates:float array -> float
(** Appendix B's [E U_{i,j}].  Raises [Invalid_argument] unless
    [lambda > 0], every rate is in [[0, lambda]], and there is at
    least one rate. *)

val expected_redundancy : lambda:float -> rates:float array -> float
(** [expected_link_rate / max rates].  Raises [Invalid_argument] when
    all rates are zero. *)

val redundancy_upper_bound : lambda:float -> rates:float array -> float
(** The paper's bound: redundancy is at most [λ / max_t a_t] (the
    multiplicative inverse of the efficient-rate-to-transmission-rate
    ratio), approached as the number of receivers grows. *)

type figure5_config = {
  label : string;       (** Curve label as in the paper ("All 0.1", …). *)
  rate_of : int -> float;
      (** [rate_of t] is receiver [t]'s rate (0-based) as a fraction
          of [λ = 1]. *)
}
(** One Figure-5 curve configuration. *)

val figure5_configs : figure5_config list
(** The paper's five curves: All 0.1, All 0.5, 1st .5 rest .1,
    All 0.9, 1st .9 rest .1. *)

val figure5_point : figure5_config -> receivers:int -> float
(** Expected redundancy with the given receiver count ([λ = 1]). *)

val multi_layer_redundancy : scheme:Scheme.t -> rates:float array -> float
(** Expected redundancy when the session splits its stream over the
    scheme's layers instead of one fat layer (the technical report's
    Appendix E): the expected link rate over [max rates].  A receiver
    with target rate [a] subscribes fully to the layers its rate covers
    ([level_for_rate]) and picks a uniform random fraction of the next
    layer's packets to make up the remainder; subscriptions to full
    layers are deterministic, so only the topmost partial layer suffers
    Appendix-B union inflation:

    [E U = Σ_L λ_L (1 − Π_t (1 − p_{t,L}))]

    with [p_{t,L} = 1] when receiver [t] is fully subscribed to layer
    [L], the leftover fraction when [L] is its partial layer, and [0]
    above.  Rates must lie within [[0, top_rate scheme]].  The TR's
    Appendix-E finding, which tests assert: more layers never increase
    redundancy beyond the single-layer value and usually decrease it. *)

val simulate_redundancy :
  rng:Mmfair_prng.Xoshiro.t ->
  packets_per_quantum:int ->
  quanta:int ->
  rates:float array ->
  float
(** Monte-Carlo estimate: each quantum, receiver [t] selects
    [round (rates.(t) · packets)] distinct packets uniformly at random
    out of [packets_per_quantum] (rates are fractions of the layer
    rate); the link carries the union.  Returns measured link rate
    divided by the largest receiver rate. *)
