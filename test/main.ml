(* Fleet workers are this same binary re-exec'd with the worker
   marker in the environment (the fleet tests spawn them): divert
   before Alcotest ever runs. *)
let () = Ftqc.Svc.Fleet.run_if_worker ()

let () =
  Alcotest.run "ftqc"
    (Test_gf2.suites @ Test_qmath.suites @ Test_group.suites
   @ Test_pauli.suites @ Test_circuit.suites @ Test_statevec.suites
   @ Test_tableau.suites @ Test_codes.suites @ Test_ft.suites
   @ Test_identities.suites @ Test_css_logical.suites
   @ Test_conjugate.suites @ Test_pauli_frame.suites @ Test_frame.suites @ Test_extensions.suites @ Test_golay.suites @ Test_weight_enumerator.suites
   @ Test_exact.suites
   @ Test_threshold.suites
   @ Test_toric.suites @ Test_noisy_toric.suites @ Test_toric_table.suites
   @ Test_anyon.suites
   @ Test_synthesis.suites @ Test_more_properties.suites @ Test_mc.suites
   @ Test_obs.suites @ Test_campaign.suites @ Test_inject.suites
   @ Test_subset.suites @ Test_csskit.suites @ Test_decode_counts.suites
   @ Test_svc.suites
   @ Test_fleet.suites)
