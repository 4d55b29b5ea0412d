(* Aggregated test runner for the Namer reproduction. *)

let run_suites () =
  Alcotest.run "namer"
    [
      ("util", Test_util.suite);
      ("telemetry", Test_telemetry.suite);
      ("obs", Test_obs.suite);
      ("parallel", Test_parallel.suite);
      ("tree", Test_tree.suite);
      ("pylang", Test_pylang.suite);
      ("javalang", Test_javalang.suite);
      ("lexer_golden", Test_lexer_golden.suite);
      ("analysis", Test_analysis.suite);
      ("namepath", Test_namepath.suite);
      ("pattern", Test_pattern.suite);
      ("mining", Test_mining.suite);
      ("ml", Test_ml.suite);
      ("nn", Test_nn.suite);
      ("classifier", Test_classifier.suite);
      ("corpus", Test_corpus.suite);
      ("baselines", Test_baselines.suite);
      ("userstudy", Test_userstudy.suite);
      ("core", Test_core.suite);
      ("streaming", Test_streaming.suite);
      ("model", Test_model.suite);
      ("stage_costs", Test_stage_costs.suite);
      ("partial_model", Test_partial_model.suite);
      ("fixer", Test_fixer.suite);
      ("fuzz", Test_fuzz.suite);
      ("serve", Test_serve.suite);
    ]

(* [model-pin LANG JOBS PATH] trains and saves the pinned model of LANG
   (Python or Java) in this fresh process (see
   [Test_model.test_model_hash_pin]); anything else runs the suites. *)
let () =
  match Sys.argv with
  | [| _; "model-pin"; lang; jobs; path |] ->
      let lang = if lang = "Java" then Namer_corpus.Corpus.Java else Namer_corpus.Corpus.Python in
      Test_model.pin_child ~lang ~jobs:(int_of_string jobs) ~path
  | _ -> run_suites ()
