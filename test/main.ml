let () =
  Alcotest.run "strategem"
    (Test_stats.suite @ Test_datalog.suite @ Test_infgraph.suite
   @ Test_strategy.suite @ Test_persist.suite @ Test_core.suite
   @ Test_trace.suite @ Test_workload.suite @ Test_serve.suite
   @ Test_cache.suite @ Test_obs.suite @ Test_store.suite @ Test_parser.suite)
