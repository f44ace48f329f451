(* Test entry point: one Alcotest run over all suites. *)

let suites =
  [
    ("bdd", Test_bdd.suite);
    ("bdd-laws", Test_bdd_laws.suite);
    ("bdd-engine", Test_bdd_engine.suite);
    ("logic", Test_logic.suite);
    ("pla", Test_pla.suite);
    ("store", Test_store.suite);
    ("ispec", Test_ispec.suite);
    ("matching", Test_matching.suite);
    ("sibling", Test_sibling.suite);
    ("level", Test_level.suite);
    ("graph", Test_graph.suite);
    ("exact+bounds", Test_exact_bounds.suite);
    ("schedule+registry", Test_schedule.suite);
    ("isop", Test_isop.suite);
    ("netlist", Test_netlist.suite);
    ("blif", Test_blif.suite);
    ("symbolic+image", Test_symbolic.suite);
    ("qsched", Test_qsched.suite);
    ("reach+equiv", Test_reach_equiv.suite);
    ("explicit", Test_explicit.suite);
    ("synth", Test_synth.suite);
    ("faults", Test_faults.suite);
    ("circuits", Test_circuits.suite);
    ("harness", Test_harness.suite);
    ("ablations", Test_ablations.suite);
    ("covers", Test_covers.suite);
    ("obs", Test_obs.suite);
    ("metrics+flight", Test_metrics.suite);
    ("exec", Test_exec.suite);
    ("parallel", Test_parallel.suite);
    ("budget", Test_budget.suite);
    ("serve", Test_serve.suite);
  ]

let () =
  Alcotest.run "bddmin" (suites @ [ ("claims", Test_claims.suite suites) ])
