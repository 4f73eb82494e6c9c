(* Test entry point: one Alcotest suite per library module group. *)

let () =
  Alcotest.run "ckptwf"
    [
      ("rng", Test_rng.suite);
      ("dist", Test_dist.suite);
      ("normal", Test_normal.suite);
      ("stats", Test_stats.suite);
      ("dag", Test_dag.suite);
      ("mspg", Test_mspg.suite);
      ("recognize", Test_recognize.suite);
      ("platform", Test_platform.suite);
      ("workflows", Test_workflows.suite);
      ("toueg", Test_toueg.suite);
      ("scheduling", Test_scheduling.suite);
      ("placement", Test_placement.suite);
      ("evaluation", Test_evaluation.suite);
      ("strategy", Test_strategy.suite);
      ("simulation", Test_simulation.suite);
      ("integration", Test_integration.suite);
      ("dax", Test_dax.suite);
      ("viz", Test_viz.suite);
      ("contention", Test_contention.suite);
      ("analysis", Test_analysis.suite);
      ("refine", Test_refine.suite);
      ("resilience", Test_resilience.suite);
      ("parallel", Test_parallel.suite);
      ("recovery", Test_recovery.suite);
      ("plan-equiv", Test_plan_equiv.suite);
      ("service", Test_service.suite);
      ("memo", Test_memo.suite);
      ("degrade-cache", Test_degrade_cache.suite);
      ("storage", Test_storage.suite);
      ("store", Test_store.suite);
      ("cloud", Test_cloud.suite);
      ("analytic", Test_analytic.suite);
      ("sim-golden", Test_sim_golden.suite);
      ("engine-oracle", Test_engine_oracle.suite);
      ("completion", Test_completion_digests.suite);
      ("metamorphic", Test_metamorphic.suite);
    ]
