(* Aggregated test runner: every module's suites under one alcotest run. *)

let () =
  Alcotest.run "ephemeral-networks"
    (Test_prng.suites @ Test_stats.suites @ Test_sgraph.suites
   @ Test_temporal_core.suites @ Test_foremost.suites
   @ Test_reachability.suites @ Test_expansion.suites @ Test_opt.suites
   @ Test_por.suites @ Test_taxonomy.suites @ Test_connectivity.suites @ Test_ops.suites
   @ Test_models.suites @ Test_crosschecks.suites @ Test_phonecall.suites @ Test_sim.suites
   @ Test_obs.suites @ Test_exec.suites @ Test_store.suites @ Test_fault.suites
   @ Test_kernel.suites @ Test_batch.suites @ Test_implicit.suites @ Test_stream.suites @ Test_serve.suites)
