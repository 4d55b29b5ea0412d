(* Streaming-frontend contract (DESIGN.md §12): batching and worker count
   are invisible — build and scan results are byte-identical for every
   [digest_batch] and [jobs] — disk-backed refs digest identically to
   in-memory files, sources never outlive their digest (the in-flight
   gauge), and a ref whose load fails degrades into a per-file skip
   instead of poisoning the run. *)

module Corpus = Namer_corpus.Corpus
module Namer = Namer_core.Namer
module Pattern = Namer_pattern.Pattern

let fingerprint (t : Namer.t) =
  Array.to_list t.Namer.violations
  |> List.map (fun (v : Namer.violation) ->
         Printf.sprintf "%s:%d:%s:%s"
           v.Namer.v_stmt.Namer.sctx.Namer_classifier.Features.file
           v.Namer.v_stmt.Namer.line v.Namer.v_info.Pattern.found
           v.Namer.v_info.Pattern.suggested)
  |> String.concat "\n"

let small_corpus () =
  Corpus.generate
    { (Corpus.default_config Corpus.Python) with Corpus.n_repos = 8; seed = 11 }

(* the CLI's self-mining shape: no oracle, no classifier *)
let base_cfg =
  { Namer.default_config with Namer.use_classifier = false }

let build_refs_with ~digest_batch ~jobs ?(cap_domains = true) refs =
  Namer.build_refs
    { base_cfg with Namer.digest_batch; jobs; cap_domains }
    ~lang:Corpus.Python refs

(* batching and parallelism must both be invisible: tiny odd batches, the
   default batch, and a multi-domain build all reproduce one result *)
let batch_and_jobs_invariant () =
  let corpus = small_corpus () in
  let refs = List.map Namer.ref_of_file corpus.Corpus.files in
  let t1 = build_refs_with ~digest_batch:1024 ~jobs:1 refs in
  let t2 = build_refs_with ~digest_batch:7 ~jobs:1 refs in
  let t3 = build_refs_with ~digest_batch:13 ~jobs:4 ~cap_domains:false refs in
  Alcotest.(check bool) "violations found" true (Array.length t1.Namer.violations > 0);
  Alcotest.(check int) "n_stmts batch=7" t1.Namer.n_stmts t2.Namer.n_stmts;
  Alcotest.(check string) "batch=7 identical" (fingerprint t1) (fingerprint t2);
  Alcotest.(check string) "batch=13 jobs=4 identical" (fingerprint t1) (fingerprint t3)

let with_tmpdir f =
  let tmp = Filename.temp_file "namer_streaming" "" in
  Sys.remove tmp;
  Unix.mkdir tmp 0o700;
  Fun.protect
    ~finally:(fun () ->
      ignore (Sys.command (Printf.sprintf "rm -rf %s" (Filename.quote tmp))))
    (fun () -> f tmp)

let render (r : Namer.report) =
  Printf.sprintf "%s:%d:%s:%s:%s:%s" r.Namer.r_file r.Namer.r_line r.Namer.r_prefix
    r.Namer.r_found r.Namer.r_suggested r.Namer.r_kind

let reports_str (sr : Namer.scan_result) =
  Array.to_list sr.Namer.sr_reports |> List.map render |> String.concat "\n"

(* a scan over disk-backed refs is byte-identical to the in-memory scan of
   the same sources *)
let disk_refs_equal_memory () =
  let corpus = small_corpus () in
  let t = Namer.build base_cfg corpus in
  let m = Namer.model_of t in
  with_tmpdir @@ fun tmp ->
  let refs =
    List.map
      (fun (f : Corpus.file) ->
        let full = Filename.concat tmp f.Corpus.path in
        Namer_util.Fs.mkdir_p (Filename.dirname full);
        let oc = open_out_bin full in
        output_string oc f.Corpus.source;
        close_out oc;
        Namer.ref_of_path ~repo:f.Corpus.repo ~path:f.Corpus.path ~file:full)
      corpus.Corpus.files
  in
  let in_mem = Namer.scan_with_model m corpus.Corpus.files in
  let on_disk = Namer.scan_refs m refs in
  Alcotest.(check bool) "reports found" true (Array.length in_mem.Namer.sr_reports > 0);
  Alcotest.(check string) "disk scan identical" (reports_str in_mem) (reports_str on_disk)

(* sequential streaming holds exactly one source at a time; a pool holds at
   most one per worker domain — never the corpus *)
let gauge_bounded () =
  let corpus = small_corpus () in
  let refs = List.map Namer.ref_of_file corpus.Corpus.files in
  Namer.reset_in_flight_peak ();
  ignore (build_refs_with ~digest_batch:8 ~jobs:1 refs);
  Alcotest.(check int) "sequential: one source in flight" 1
    (Namer.in_flight_sources_peak ());
  Namer.reset_in_flight_peak ();
  ignore (build_refs_with ~digest_batch:16 ~jobs:3 ~cap_domains:false refs);
  let peak = Namer.in_flight_sources_peak () in
  Alcotest.(check bool)
    (Printf.sprintf "pool: peak %d within [1, 3]" peak)
    true
    (peak >= 1 && peak <= 3)

(* per-file isolation across the load boundary: an unreadable ref is
   skipped (and would never be cached), the rest of the scan is intact *)
let failing_ref_skipped () =
  let corpus = small_corpus () in
  let t = Namer.build base_cfg corpus in
  let m = Namer.model_of t in
  let refs = List.map Namer.ref_of_file corpus.Corpus.files in
  let bad =
    { Namer.fr_repo = "repo000"; fr_path = "repo000/src/missing.py";
      fr_load = (fun () -> failwith "simulated I/O error") }
  in
  let clean = Namer.scan_refs m refs in
  let degraded = Namer.scan_refs m (bad :: refs) in
  Alcotest.(check int) "one skip" 1 (List.length degraded.Namer.sr_skipped);
  (match degraded.Namer.sr_skipped with
  | [ sk ] ->
      Alcotest.(check string) "skip names the file" "repo000/src/missing.py"
        sk.Namer.sk_file
  | _ -> Alcotest.fail "expected exactly one skip");
  Alcotest.(check string) "other reports intact" (reports_str clean)
    (reports_str degraded)

let suite =
  [
    Alcotest.test_case "batch and jobs invariant" `Quick batch_and_jobs_invariant;
    Alcotest.test_case "disk refs equal in-memory scan" `Quick disk_refs_equal_memory;
    Alcotest.test_case "in-flight gauge bounded" `Quick gauge_bounded;
    Alcotest.test_case "failing ref is skipped" `Quick failing_ref_skipped;
  ]
