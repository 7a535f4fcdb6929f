(* The single alcotest entry point: every suite in test/ registers here.
   Individual files only export a [suite] value; shared helpers live in
   Testutil. *)
let () =
  Alcotest.run "repro"
    (Test_isa.suite @ Test_machine.suite @ Test_engine.suite @ Test_reorg.suite
    @ Test_compiler.suite @ Test_golden.suite @ Test_os.suite
    @ Test_analysis.suite @ Test_obs.suite @ Test_profile.suite
    @ Test_fault.suite @ Test_par.suite @ Test_resilience.suite
    @ Test_policy.suite @ Test_daemon.suite @ Test_chaos.suite)
