(* Aggregated test runner for the whole reproduction. *)

let () =
  Alcotest.run "mmfair"
    [
      ("prng", Test_prng.suite);
      ("stats", Test_stats.suite);
      ("numerics", Test_numerics.suite);
      ("topology", Test_topology.suite);
      ("network", Test_network.suite);
      ("pvec", Test_pvec.suite);
      ("allocation", Test_allocation.suite);
      ("allocator", Test_allocator.suite);
      ("properties", Test_properties.suite);
      ("ordering", Test_ordering.suite);
      ("layering", Test_layering.suite);
      ("sim", Test_sim.suite);
      ("protocols", Test_protocols.suite);
      ("markov", Test_markov.suite);
      ("workload", Test_workload.suite);
      ("experiments", Test_experiments.suite);
      ("extensions", Test_extensions.suite);
      ("transient", Test_transient.suite);
      ("single-rate-choice", Test_single_rate.suite);
      ("qsim", Test_qsim.suite);
      ("definitions", Test_definitions.suite);
      ("certify", Test_certify.suite);
      ("solver-errors", Test_solver_errors.suite);
      ("zoo", Test_zoo.suite);
      ("claims", Test_claims.suite);
      ("misc", Test_misc.suite);
      ("membership", Test_membership.suite);
      ("solve-engine", Test_solve_engine.suite);
      ("domain-pool", Test_domain_pool.suite);
      ("component", Test_component.suite);
      ("dynamic", Test_dynamic.suite);
      ("flow", Test_flow.suite);
      ("obs", Test_obs.suite);
      ("serve", Test_serve.suite);
      ("bench-gates", Test_bench_gates.suite);
    ]
