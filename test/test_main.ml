let () =
  Alcotest.run "varbuf"
    [
      ("numeric", Test_numeric.suite);
      ("exec", Test_exec.suite);
      ("obs", Test_obs.suite);
      ("linform", Test_linform.suite);
      ("varmodel", Test_varmodel.suite);
      ("device", Test_device.suite);
      ("rctree", Test_rctree.suite);
      ("bufins", Test_bufins.suite);
      ("dominance", Test_dominance.suite);
      ("btypes", Test_btypes.suite);
      ("tape", Test_tape.suite);
      ("golden", Test_golden.suite);
      ("job", Test_job.suite);
      ("sta", Test_sta.suite);
      ("experiments", Test_experiments.suite);
      ("sample", Test_sample.suite);
      ("wire_formats", Test_wire_formats.suite);
      ("codec_bin", Test_codec_bin.suite);
      ("lru", Test_lru.suite);
      ("serve", Test_serve.suite);
      ("cluster", Test_cluster.suite);
    ]
