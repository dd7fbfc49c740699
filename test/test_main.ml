let () =
  Alcotest.run "kernel_weaver"
    [
      ("gpu", Test_gpu.suite);
      ("relation", Test_relation.suite);
      ("qplan", Test_qplan.suite);
      ("reference-diff", Test_reference_diff.suite);
      ("optimizer", Test_optimizer.suite);
      ("expr-emit", Test_expr_emit.suite);
      ("ra", Test_ra.suite);
      ("weaver", Test_weaver.suite);
      ("weaver-internals", Test_weaver_internals.suite);
      ("datalog", Test_datalog.suite);
      ("tpch", Test_tpch.suite);
      ("property", Test_property.suite);
      ("analysis", Test_analysis.suite);
      ("analysis-diff", Test_analysis_diff.suite);
      ("rewrite", Test_rewrite.suite);
      ("harness", Test_harness.suite);
      ("runtime-paths", Test_runtime_paths.suite);
      ("parallel", Test_parallel.suite);
      ("interp-diff", Test_interp_diff.suite);
      ("regalloc", Test_regalloc.suite);
      ("certify-memo", Test_certify_memo.suite);
      ("faults", Test_faults.suite);
      ("integrity", Test_integrity.suite);
      ("service", Test_service.suite);
      ("obs", Test_obs.suite);
      ("attrib", Test_attrib.suite);
    ]
