(* Benchmark harness: regenerates every table and figure of the paper's
   evaluation (§5), plus Bechamel micro-benchmarks and a k-sweep ablation.

   Usage:
     dune exec bench/main.exe                 # all tables and figures
     dune exec bench/main.exe -- --quick      # smaller corpora (CI-sized)
     dune exec bench/main.exe -- --perf       # micro-benchmarks only
     dune exec bench/main.exe -- --no-nn      # skip the GGNN/Great baselines
     dune exec bench/main.exe -- --sweeps     # add feature/threshold ablations
     dune exec bench/main.exe -- --telemetry  # per-stage pipeline cost →
                                              # BENCH_pipeline.json

   Expected-vs-measured numbers are catalogued in EXPERIMENTS.md. *)

module Corpus = Namer_corpus.Corpus
module Namer = Namer_core.Namer
module Telemetry = Namer_telemetry.Telemetry

(* wall clock and program-wide allocation at start-up: the ledger record
   carries the whole run's *)
let run_start = (Unix.gettimeofday (), Telemetry.program_alloc_mb ())

(* Instrumented end-to-end build on a 15-repo Python corpus, once with
   jobs=1 and once with jobs=N (--jobs, default 4): prints the sequential
   per-stage cost table, verifies the two runs report identical violations,
   then drives an in-process serve-daemon load test, and writes both stage
   maps, the speedup, the snapshot save/load, scan-cache, serve,
   streaming-scale and incremental-merge measurements, and the interning
   micro-benchmarks to BENCH_pipeline.json (schema 7), the
   machine-readable trajectory file that perf PRs compare against. *)
let stage_wall name stages =
  match List.find_opt (fun s -> s.Telemetry.stage = name) stages with
  | Some s -> s.Telemetry.wall_ms
  | None -> infinity

let stage_count name stages =
  match List.find_opt (fun s -> s.Telemetry.stage = name) stages with
  | Some s -> s.Telemetry.s_count
  | None -> 0

(* Snapshot + cache instrumentation for the train-once / scan-many path:
   save the trained model, time [load_model] (best of 3), then scan the
   corpus files cold (empty cache) and warm (fully cached) and record what
   the warm scan skipped.  Returns the JSON object for the bench file. *)
let snapshot_bench (t : Namer.t) (corpus : Corpus.t) ~cold_build_ms =
  let module J = Namer_util.Json in
  let model_path = Filename.temp_file "namer_model" ".nmdl" in
  let cache_dir =
    let d = Filename.temp_file "namer_cache" "" in
    Sys.remove d;
    Unix.mkdir d 0o700;
    d
  in
  Fun.protect
    ~finally:(fun () ->
      ignore (Sys.command (Printf.sprintf "rm -rf %s %s" model_path cache_dir)))
  @@ fun () ->
  ignore (Namer.save_model t ~path:model_path);
  let model_bytes = (Unix.stat model_path).Unix.st_size in
  let timed f =
    Telemetry.reset ();
    Telemetry.set_sink Telemetry.Memory;
    let r = f () in
    (r, Telemetry.stages ())
  in
  let load_once () = timed (fun () -> Namer.load_model ~path:model_path) in
  (* best of 3, like the build measurement *)
  let m, load_ms =
    List.fold_left
      (fun (m, best) () ->
        let m', stages = load_once () in
        let ms = stage_wall "model:load" stages in
        if ms < best then (m', ms) else (m, best))
      (fst (load_once ()), infinity)
      [ (); (); () ]
  in
  let files = corpus.Corpus.files in
  let _cold, cold_stages =
    timed (fun () -> Namer.scan_with_model ~jobs:1 ~cache_dir m files)
  in
  let warm, warm_stages =
    timed (fun () -> Namer.scan_with_model ~jobs:1 ~cache_dir m files)
  in
  let nocache, _ = timed (fun () -> Namer.scan_with_model ~jobs:1 m files) in
  let reports_identical = warm.Namer.sr_reports = nocache.Namer.sr_reports in
  let load_speedup = if load_ms > 0.0 then cold_build_ms /. load_ms else 0.0 in
  Printf.printf
    "\nsnapshot: cold build %.0f ms vs load %.2f ms (%.0fx), model %d bytes\n"
    cold_build_ms load_ms load_speedup model_bytes;
  Printf.printf
    "scan cache: cold %.1f ms → warm %.1f ms (%d hits, %d misses, %d files parsed \
     warm), reports %s\n"
    (stage_wall "scan:model" cold_stages)
    (stage_wall "scan:model" warm_stages)
    warm.Namer.sr_cache_hits warm.Namer.sr_cache_misses
    (stage_count "parse" warm_stages)
    (if reports_identical then "identical" else "DIFFERENT");
  ( J.Obj
      [
        ("cold_build_ms", J.Float cold_build_ms);
        ("load_ms", J.Float load_ms);
        ("load_speedup", J.Float load_speedup);
        ("model_bytes", J.Int model_bytes);
      ],
    J.Obj
      [
        ("cold_scan_ms", J.Float (stage_wall "scan:model" cold_stages));
        ("warm_scan_ms", J.Float (stage_wall "scan:model" warm_stages));
        ("warm_hits", J.Int warm.Namer.sr_cache_hits);
        ("warm_misses", J.Int warm.Namer.sr_cache_misses);
        ("warm_parse_count", J.Int (stage_count "parse" warm_stages));
        ("warm_analyze_count", J.Int (stage_count "analyze" warm_stages));
        ("warm_namepaths_count", J.Int (stage_count "namepaths" warm_stages));
        ("reports_identical", J.Bool reports_identical);
      ],
    reports_identical )

(* In-process serve load test: write the corpus to disk, save the trained
   model, start the daemon on an ephemeral TCP port with a shared report
   cache, drive concurrent clients at it, then drain — the same shape as
   the serve-smoke CI job, but measured.  Returns the schema-5 [serve]
   object and whether every response came back ok and identical. *)
let serve_bench (t : Namer.t) (corpus : Corpus.t) ~jobs =
  let module J = Namer_util.Json in
  let module Serve = Namer_serve.Serve in
  let module Client = Namer_serve.Client in
  let tmp = Filename.temp_file "namer_servebench" "" in
  Sys.remove tmp;
  Unix.mkdir tmp 0o700;
  Fun.protect
    ~finally:(fun () ->
      ignore (Sys.command (Printf.sprintf "rm -rf %s" (Filename.quote tmp))))
  @@ fun () ->
  let dir = Filename.concat tmp "corpus" in
  let model_path = Filename.concat tmp "model.nmdl" in
  List.iter
    (fun (f : Corpus.file) ->
      let path = Filename.concat dir f.Corpus.path in
      Namer_util.Fs.mkdir_p (Filename.dirname path);
      let oc = open_out_bin path in
      output_string oc f.Corpus.source;
      close_out oc)
    corpus.Corpus.files;
  ignore (Namer.save_model t ~path:model_path);
  let sv =
    Serve.create
      {
        (Serve.default_config ~model_path (Serve.Tcp ("127.0.0.1", 0))) with
        Serve.sv_cache_dir = Some (Filename.concat tmp "cache");
        sv_jobs = jobs;
      }
  in
  let daemon = Thread.create Serve.serve_forever sv in
  let target =
    match Serve.endpoint sv with
    | Serve.Tcp (h, p) -> Client.Tcp (h, p)
    | Serve.Unix_path p -> Client.Unix_path p
  in
  let clients = 8 and requests = 50 in
  let spec =
    {
      (Client.Load.default_spec
         ~payload:(J.Obj [ ("op", J.String "scan"); ("dir", J.String dir) ]))
      with
      Client.Load.l_clients = clients;
      l_requests = requests;
    }
  in
  let r = Client.Load.run target spec in
  Serve.request_stop sv;
  Thread.join daemon;
  let ok =
    r.Client.Load.lr_failed = 0
    && r.Client.Load.lr_ok = requests
    && r.Client.Load.lr_responses_identical
    && r.Client.Load.lr_rps > 0.0
  in
  Printf.printf
    "serve: %d clients x %d requests → %.0f req/s, p50 %.2f ms, p99 %.2f ms, \
     responses %s\n"
    clients requests r.Client.Load.lr_rps r.Client.Load.lr_p50_ms
    r.Client.Load.lr_p99_ms
    (if r.Client.Load.lr_responses_identical then "identical" else "DIFFERENT");
  let json =
    match Client.Load.json_of_result r with
    | J.Obj fields -> J.Obj (("clients", J.Int clients) :: fields)
    | j -> j
  in
  (json, ok)

(* Paper-scale streaming gates (the schema-6 [scale] object), run FIRST in
   the process so the top-heap high-water marks below measure the streaming
   frontend, not the residue of earlier benches.  Generates an on-disk
   corpus with [Corpus.write_scale] (an N-file corpus is a byte-identical
   prefix of the 2N one), then:
   - trains a small in-memory model as the scan instrument;
   - scans the half corpus at jobs=1 and jobs=N: reports must be
     byte-identical, and the heap watermark after is the half-scan bound;
   - scans the full corpus timed (files/sec, per-stage walls): because the
     watermark is monotonic, the full/half watermark ratio is ~1 exactly
     when doubling the corpus did not grow peak memory — the streaming
     contract — and the in-flight source gauge must stay bounded by the
     worker count, never the corpus;
   - trains with [build_refs] on the half corpus then the full corpus and
     applies the same doubling-ratio argument to training. *)
let scale_bench ~jobs ~n_files () =
  let module J = Namer_util.Json in
  let lang = Corpus.Python in
  Printf.printf "### Scale: streaming frontend, %d generated files ###\n\n" n_files;
  let tmp = Filename.temp_file "namer_scale" "" in
  Sys.remove tmp;
  Unix.mkdir tmp 0o700;
  Fun.protect
    ~finally:(fun () ->
      ignore (Sys.command (Printf.sprintf "rm -rf %s" (Filename.quote tmp))))
  @@ fun () ->
  let t0 = Unix.gettimeofday () in
  let refs_rev = ref [] and last_dir = ref "" and corpus_bytes = ref 0 in
  Corpus.write_scale ~lang ~seed:42 ~files_per_repo:50 ~n_files
    (fun ~repo ~path ~source ->
      let full = Filename.concat tmp path in
      let dir = Filename.dirname full in
      if dir <> !last_dir then begin
        Namer_util.Fs.mkdir_p dir;
        last_dir := dir
      end;
      let oc = open_out_bin full in
      output_string oc source;
      close_out oc;
      corpus_bytes := !corpus_bytes + String.length source;
      refs_rev := Namer.ref_of_path ~repo ~path ~file:full :: !refs_rev);
  let gen_s = Unix.gettimeofday () -. t0 in
  let refs = List.rev !refs_rev in
  let n_half = n_files / 2 in
  let half = List.filteri (fun i _ -> i < n_half) refs in
  let corpus_bytes = !corpus_bytes in
  Printf.printf "generated %d files (%.0f MB) in %.1fs\n" (List.length refs)
    (float_of_int corpus_bytes /. 1e6)
    gen_s;
  let top_heap_mb () =
    float_of_int (Gc.quick_stat ()).Gc.top_heap_words
    *. float_of_int (Sys.word_size / 8) /. 1e6
  in
  (* the scan instrument: a model trained on a small in-memory corpus —
     its footprint is the baseline watermark the streaming scans must fit
     inside *)
  let t_instr =
    Namer.build
      { Namer.default_config with Namer.use_classifier = false; jobs }
      (Corpus.generate { (Corpus.default_config lang) with Corpus.n_repos = 10 })
  in
  let m = Namer.model_of t_instr in
  let seq = Namer.scan_refs ~jobs:1 m half in
  let par = Namer.scan_refs ~jobs m half in
  let scan_identical = seq.Namer.sr_reports = par.Namer.sr_reports in
  let scan_heap_half_mb = top_heap_mb () in
  Namer.reset_in_flight_peak ();
  Telemetry.reset ();
  Telemetry.set_sink Telemetry.Memory;
  let tf0 = Unix.gettimeofday () in
  let full_res = Namer.scan_refs ~jobs m refs in
  let scan_full_s = Unix.gettimeofday () -. tf0 in
  let scan_stages = Telemetry.stages () in
  Telemetry.reset ();
  let scan_heap_full_mb = top_heap_mb () in
  let in_flight_peak = Namer.in_flight_sources_peak () in
  let scan_mem_ratio = scan_heap_full_mb /. Float.max 1.0 scan_heap_half_mb in
  let files_per_sec = float_of_int n_files /. Float.max 1e-9 scan_full_s in
  Printf.printf
    "scan: %d files in %.1fs (%.0f files/s, %d reports), half→full top heap %.0f → \
     %.0f MB (ratio %.2f), %d sources in flight at peak, jobs=1 vs jobs=%d reports \
     %s\n"
    n_files scan_full_s files_per_sec
    (Array.length full_res.Namer.sr_reports)
    scan_heap_half_mb scan_heap_full_mb scan_mem_ratio in_flight_peak jobs
    (if scan_identical then "identical" else "DIFFERENT");
  (* train doubling: half then full, same watermark argument *)
  let train_cfg n =
    {
      Namer.default_config with
      Namer.use_classifier = false;
      jobs;
      miner =
        {
          Namer_mining.Miner.default_config with
          Namer_mining.Miner.min_support = max 5 (n / 20);
          min_path_freq = max 3 (n / 50);
        };
    }
  in
  let th0 = Unix.gettimeofday () in
  ignore (Namer.build_refs (train_cfg n_half) ~lang half);
  let train_half_s = Unix.gettimeofday () -. th0 in
  let train_heap_half_mb = top_heap_mb () in
  let tf0 = Unix.gettimeofday () in
  let t_full = Namer.build_refs (train_cfg n_files) ~lang refs in
  let train_full_s = Unix.gettimeofday () -. tf0 in
  let train_heap_full_mb = top_heap_mb () in
  let train_mem_ratio = train_heap_full_mb /. Float.max 1.0 train_heap_half_mb in
  Printf.printf
    "train: %d files %.1fs → %d files %.1fs (%d patterns), top heap %.0f → %.0f MB \
     (ratio %.2f)\n\n"
    n_half train_half_s n_files train_full_s
    (Namer_pattern.Pattern.Store.size t_full.Namer.store)
    train_heap_half_mb train_heap_full_mb train_mem_ratio;
  let ok = scan_identical && files_per_sec > 0.0 in
  let json =
    J.Obj
      [
        ("files", J.Int n_files);
        ("corpus_bytes", J.Int corpus_bytes);
        ("gen_s", J.Float gen_s);
        ("scan_full_s", J.Float scan_full_s);
        ("files_per_sec", J.Float files_per_sec);
        ("reports", J.Int (Array.length full_res.Namer.sr_reports));
        ("reports_identical", J.Bool scan_identical);
        ("scan_heap_half_mb", J.Float scan_heap_half_mb);
        ("scan_heap_full_mb", J.Float scan_heap_full_mb);
        ("scan_mem_ratio", J.Float scan_mem_ratio);
        ("train_half_s", J.Float train_half_s);
        ("train_full_s", J.Float train_full_s);
        ("train_heap_half_mb", J.Float train_heap_half_mb);
        ("train_heap_full_mb", J.Float train_heap_full_mb);
        ("train_mem_ratio", J.Float train_mem_ratio);
        ("in_flight_sources_peak", J.Int in_flight_peak);
        ("digest_batch", J.Int Namer.default_config.Namer.digest_batch);
        ("jobs", J.Int jobs);
        ("stages_scan", Telemetry.stages_to_json scan_stages);
      ]
  in
  (json, ok)

(* Incremental-training gates (the schema-7 [merge] object): generate a
   ~2k-file corpus (~40 repos), time the full classifier-free build, then
   train the two halves into partial models, merge and finalize them, and
   require the merged model to scan the corpus byte-identically to the
   direct build — the merge-algebra contract train(A+B) ≡ merge(train A,
   train B) at bench scale.  The update flow then measures what
   incrementality buys: folding one new repo into an existing partial
   (digest the delta, merge, save) must beat retraining from scratch by
   at least 5x — check_bench enforces the gate. *)
let merge_bench ~jobs ~n_files () =
  let module J = Namer_util.Json in
  let module Miner = Namer_mining.Miner in
  let files_per_repo = 50 in
  let n_repos = (n_files + files_per_repo - 1) / files_per_repo in
  Printf.printf "### Incremental training: %d repos x %d files ###\n\n" n_repos
    files_per_repo;
  let corpus =
    Corpus.generate
      {
        (Corpus.default_config Corpus.Python) with
        Corpus.n_repos = n_repos;
        files_per_repo = (files_per_repo, files_per_repo);
        seed = 42;
      }
  in
  let n_files = List.length corpus.Corpus.files in
  let cfg =
    {
      Namer.default_config with
      Namer.use_classifier = false;
      jobs;
      miner =
        {
          Miner.default_config with
          Miner.min_support = max 5 (n_files / 20);
          min_path_freq = max 3 (n_files / 50);
        };
    }
  in
  let time f =
    let t0 = Unix.gettimeofday () in
    let r = f () in
    (r, (Unix.gettimeofday () -. t0) *. 1000.0)
  in
  let t_full, full_ms = time (fun () -> Namer.build cfg corpus) in
  let slice files commits =
    { corpus with Corpus.files; injections = []; benigns = []; commits }
  in
  let split_at k xs =
    (List.filteri (fun i _ -> i < k) xs, List.filteri (fun i _ -> i >= k) xs)
  in
  let fa, fb = split_at (n_files / 2) corpus.Corpus.files in
  let ca, cb =
    split_at (List.length corpus.Corpus.commits / 2) corpus.Corpus.commits
  in
  let pa, half_a_ms = time (fun () -> Namer.Partial.of_corpus cfg (slice fa ca)) in
  let pb, half_b_ms = time (fun () -> Namer.Partial.of_corpus cfg (slice fb cb)) in
  let merged, merge_ms = time (fun () -> Namer.Partial.merge pa pb) in
  let t_merged, finalize_ms = time (fun () -> Namer.Partial.finalize cfg merged) in
  let render (r : Namer.scan_result) =
    Array.map
      (fun (x : Namer.report) ->
        Printf.sprintf "%s:%d:%s:%s:%s:%s" x.Namer.r_file x.Namer.r_line
          x.Namer.r_prefix x.Namer.r_found x.Namer.r_suggested x.Namer.r_kind)
      r.Namer.sr_reports
  in
  let r_full =
    render (Namer.scan_with_model ~jobs:1 (Namer.model_of t_full) corpus.Corpus.files)
  in
  let r_merged =
    render
      (Namer.scan_with_model ~jobs:1 (Namer.model_of t_merged) corpus.Corpus.files)
  in
  let reports_identical = r_full = r_merged in
  (* the update flow: every repo but the last is already trained into a
     partial (untimed — that work was paid long ago); folding the last
     repo in digests only its own files *)
  let last_repo =
    match List.rev corpus.Corpus.files with
    | [] -> ""
    | f :: _ -> f.Corpus.repo
  in
  let old_files, new_files =
    List.partition
      (fun (f : Corpus.file) -> f.Corpus.repo <> last_repo)
      corpus.Corpus.files
  in
  let p_old = Namer.Partial.of_corpus cfg (slice old_files corpus.Corpus.commits) in
  let path = Filename.temp_file "namer_partial" ".nprt" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
  @@ fun () ->
  let _, update_ms =
    time (fun () ->
        let delta = Namer.Partial.of_corpus cfg (slice new_files []) in
        ignore (Namer.Partial.save (Namer.Partial.merge p_old delta) ~path))
  in
  let update_speedup = if update_ms > 0.0 then full_ms /. update_ms else 0.0 in
  Printf.printf
    "full build %.0f ms; halves %.0f + %.0f ms, merge %.1f ms, finalize %.0f ms, \
     reports %s\n"
    full_ms half_a_ms half_b_ms merge_ms finalize_ms
    (if reports_identical then "identical" else "DIFFERENT");
  Printf.printf
    "update: fold %d new files into a %d-file partial in %.0f ms — %.1fx faster \
     than the %.0f ms retrain\n\n"
    (List.length new_files) (List.length old_files) update_ms update_speedup
    full_ms;
  let ok = reports_identical && update_speedup >= 5.0 in
  let json =
    J.Obj
      [
        ("files", J.Int n_files);
        ("repos", J.Int n_repos);
        ("jobs", J.Int jobs);
        ("full_build_ms", J.Float full_ms);
        ("partial_half_a_ms", J.Float half_a_ms);
        ("partial_half_b_ms", J.Float half_b_ms);
        ("merge_ms", J.Float merge_ms);
        ("finalize_ms", J.Float finalize_ms);
        ("reports", J.Int (Array.length r_full));
        ("reports_identical", J.Bool reports_identical);
        ("update_files", J.Int (List.length new_files));
        ("update_ms", J.Float update_ms);
        ("update_speedup", J.Float update_speedup);
      ]
  in
  (json, ok)

let telemetry_bench ~jobs_parallel ~scale:(scale_json, scale_ok)
    ~merge:(merge_json, merge_ok) () =
  print_endline "### Pipeline telemetry (15-repo Python corpus) ###\n";
  let corpus =
    Corpus.generate { (Corpus.default_config Corpus.Python) with Corpus.n_repos = 15 }
  in
  let fingerprint (t : Namer.t) =
    Array.to_list t.Namer.violations
    |> List.map (fun (v : Namer.violation) ->
           Printf.sprintf "%s:%d:%s:%s"
             v.Namer.v_stmt.Namer.sctx.Namer_classifier.Features.file
             v.Namer.v_stmt.Namer.line
             v.Namer.v_info.Namer_pattern.Pattern.found
             v.Namer.v_info.Namer_pattern.Pattern.suggested)
    |> String.concat "\n"
  in
  let run ~jobs =
    Telemetry.reset ();
    Telemetry.set_sink Telemetry.Memory;
    let t = Namer.build { Namer.default_config with Namer.jobs } corpus in
    (t, Telemetry.stages ())
  in
  let build_wall stages =
    match List.find_opt (fun s -> s.Telemetry.stage = "build") stages with
    | Some s -> s.Telemetry.wall_ms
    | None -> infinity
  in
  (* one untimed warmup build so every timed run sees warm caches and a
     grown heap, then interleaved best-of-3 per jobs setting: the min wall
     is the standard noise-free estimator, and interleaving keeps thermal /
     paging drift from favoring whichever setting runs last *)
  ignore (run ~jobs:1);
  let best ~jobs previous =
    let fresh = run ~jobs in
    match previous with
    | Some prev when build_wall (snd prev) <= build_wall (snd fresh) -> Some prev
    | _ -> Some fresh
  in
  let rec measure k seq par =
    if k = 0 then (Option.get seq, Option.get par)
    else measure (k - 1) (best ~jobs:1 seq) (best ~jobs:jobs_parallel par)
  in
  let (t, stages_seq), (t_par, stages_par) = measure 3 None None in
  Printf.printf "corpus: %d files → %d patterns, %d violations\n\n"
    (List.length corpus.Corpus.files)
    (Namer_pattern.Pattern.Store.size t.Namer.store)
    (Array.length t.Namer.violations);
  print_string (Telemetry.stage_table ~stages:stages_seq ());
  let reports_identical = String.equal (fingerprint t) (fingerprint t_par) in
  (* cap_domains clamps the worker count to the hardware; when that
     collapses jobs=N to the sequential path (a 1-core machine), the two
     timed configurations are the same program and their ratio is pure
     measurement noise — the honest speedup is 1.0 by construction *)
  let effective_jobs =
    if Namer.default_config.Namer.cap_domains then
      min jobs_parallel (Domain.recommended_domain_count ())
    else jobs_parallel
  in
  let speedup =
    let par = build_wall stages_par in
    if effective_jobs <= 1 then 1.0
    else if par > 0.0 && par < infinity then build_wall stages_seq /. par
    else 1.0
  in
  Printf.printf "\njobs=1 vs jobs=%d: build %.0f ms vs %.0f ms (%.2fx, best of 3%s), reports %s\n"
    jobs_parallel (build_wall stages_seq) (build_wall stages_par) speedup
    (if effective_jobs <= 1 then "; capped to 1 domain — same configuration, speedup 1.0 by construction"
     else "")
    (if reports_identical then "identical" else "DIFFERENT");
  let snapshot_json, cache_json, cache_identical =
    snapshot_bench t corpus ~cold_build_ms:(build_wall stages_seq)
  in
  let serve_json, serve_ok = serve_bench t corpus ~jobs:effective_jobs in
  let micro = Perf.micro_estimates () in
  List.iter (fun (name, ns) -> Printf.printf "micro %-32s %s\n" name (Perf.pretty_ns ns)) micro;
  let path = "BENCH_pipeline.json" in
  let module J = Namer_util.Json in
  let oc = open_out path in
  output_string oc
    (J.to_string ~indent:2
       (J.Obj
          [
            ("schema", J.Int 7);
            ("cores", J.Int (Domain.recommended_domain_count ()));
            ("cap_domains", J.Bool Namer.default_config.Namer.cap_domains);
            ("jobs_parallel", J.Int jobs_parallel);
            ("jobs_parallel_effective", J.Int effective_jobs);
            ("speedup", J.Float speedup);
            ("reports_identical", J.Bool reports_identical);
            ("snapshot", snapshot_json);
            ("scan_cache", cache_json);
            ("serve", serve_json);
            ("scale", scale_json);
            ("merge", merge_json);
            ("stages", Telemetry.stages_to_json stages_seq);
            ("stages_parallel", Telemetry.stages_to_json stages_par);
            ("micro", J.Obj (List.map (fun (name, ns) -> (name, J.Float ns)) micro));
          ]));
  output_char oc '\n';
  close_out oc;
  Printf.printf "wrote per-stage wall_ms/alloc_mb/count (jobs=1 and jobs=%d) + snapshot/cache to %s\n"
    jobs_parallel path;
  (* one bench record in the run ledger, so `namer report` trends bench
     runs alongside train/scan — best-effort, a read-only CI sandbox must
     not fail the bench *)
  (try
     let module Ledger = Namer_obs.Ledger in
     Ledger.append ~dir:(Ledger.default_dir ())
       (J.Obj
          [
            ("schema", J.Int Ledger.schema_version);
            ("ts", J.Float (Unix.gettimeofday ()));
            ("cmd", J.String "bench");
            ( "argv",
              J.List (List.map (fun a -> J.String a) (Array.to_list Sys.argv)) );
            ("git", J.String (Ledger.git_describe ()));
            ("wall_s", J.Float (Unix.gettimeofday () -. fst run_start));
            ("alloc_mb", J.Float (Telemetry.program_alloc_mb () -. snd run_start));
            ("stages", Telemetry.stages_to_json stages_seq);
            ("speedup", J.Float speedup);
            ("reports_identical", J.Bool reports_identical);
            ("peak_rss_kb", J.Int (Ledger.peak_rss_kb ()));
          ])
   with Sys_error _ | Unix.Unix_error _ -> ());
  if not (reports_identical && cache_identical && serve_ok && scale_ok && merge_ok)
  then exit 1

let usage =
  String.concat "\n"
    [
      "usage: main.exe [--quick] [--no-nn] [--sweeps]";
      "       main.exe --perf";
      "       main.exe --telemetry [--jobs N] [--scale-files N] [--merge-files N]";
      "";
      "  --quick          smaller corpora for the evaluation tables";
      "  --no-nn          skip the GGNN / Great comparison (Tables 10 and 11)";
      "  --sweeps         also run the feature ablation and mining sweeps";
      "  --perf           the speed micro-benchmarks instead of the tables";
      "  --telemetry      write BENCH_pipeline.json instead of the tables";
      "  --jobs N         domains of the parallel --telemetry build (default 4)";
      "  --scale-files N  files of the --telemetry scale corpus (default 20000)";
      "  --merge-files N  files of the --telemetry merge corpus (default 2000)";
      "";
    ]

let () =
  let args = List.tl (Array.to_list Sys.argv) in
  let rec check = function
    | [] -> ()
    | ("--quick" | "--no-nn" | "--sweeps" | "--perf" | "--telemetry") :: rest -> check rest
    | ("--jobs" | "--scale-files" | "--merge-files") :: n :: rest
      when Option.is_some (int_of_string_opt n) ->
        check rest
    | ("-h" | "-help" | "--help") :: _ ->
        print_string usage;
        exit 0
    | a :: _ ->
        Printf.eprintf "main.exe: bad argument %S\n%s%!" a usage;
        exit 2
  in
  check args;
  let flag f = List.mem f args in
  let opt_int name default =
    let rec find = function
      | a :: b :: _ when a = name -> int_of_string b
      | _ :: rest -> find rest
      | [] -> default
    in
    find args
  in
  let quick = flag "--quick" in
  let scale = if quick then Exp.Quick else Exp.Full in
  if flag "--telemetry" then begin
    let jobs_parallel = opt_int "--jobs" 4 in
    (* scale first: its heap high-water marks must not inherit the
       telemetry builds' footprint *)
    let scale = scale_bench ~jobs:jobs_parallel ~n_files:(opt_int "--scale-files" 20_000) () in
    let merge = merge_bench ~jobs:jobs_parallel ~n_files:(opt_int "--merge-files" 2_000) () in
    telemetry_bench ~jobs_parallel ~scale ~merge ();
    exit 0
  end;
  if flag "--perf" then begin
    Perf.run ();
    Perf.k_sweep ();
    exit 0
  end;
  let t_start = Unix.gettimeofday () in
  print_endline "==============================================================";
  print_endline " Namer reproduction — PLDI 2021 evaluation tables and figures";
  print_endline "==============================================================\n";

  (* ---------------- Python (§5.2) ---------------- *)
  print_endline "### Python evaluation (§5.2) ###\n";
  let py = Exp.build_lang ~scale Corpus.Python in
  print_newline ();
  let py_rows = Exp.precision_table py in
  Exp.print_precision_table
    ~caption:
      (Printf.sprintf
         "Table 2: precision on %d randomly selected violations (Python; paper: 70/46/59/40%%)"
         Exp.sample_n)
    py_rows;
  Exp.print_examples_table ~caption:"Table 3: example reports (Python)" py.Exp.namer;
  Exp.print_per_kind_table
    ~caption:"Table 4: 100 reports per pattern type with quality breakdown (Python)"
    py.Exp.namer;
  Exp.print_kind_distribution py.Exp.namer;
  Exp.print_stats py;

  (* ---------------- Java (§5.3) ---------------- *)
  print_endline "### Java evaluation (§5.3) ###\n";
  let java = Exp.build_lang ~scale Corpus.Java in
  print_newline ();
  let java_rows = Exp.precision_table java in
  Exp.print_precision_table
    ~caption:
      (Printf.sprintf
         "Table 5: precision on %d randomly selected violations (Java; paper: 68/31/48/29%%)"
         Exp.sample_n)
    java_rows;
  Exp.print_examples_table ~caption:"Table 6: example reports (Java)" java.Exp.namer;
  Exp.print_per_kind_table
    ~caption:"Table 4-analog for Java: 100 reports per pattern type"
    java.Exp.namer;
  Exp.print_kind_distribution java.Exp.namer;
  Exp.print_stats java;

  (* ---------------- user study (§5.4) ---------------- *)
  print_endline "### User study (§5.4, simulated) ###\n";
  Exp.print_userstudy py;

  (* ---------------- classifier insight (§5.5) ---------------- *)
  print_endline "### Understanding classifier decisions (§5.5) ###\n";
  Exp.print_table9 py java;

  (* ---------------- deep-learning comparison (§5.6) ---------------- *)
  if not (flag "--no-nn") then begin
    print_endline "### Comparison with deep-learning approaches (§5.6) ###\n";
    let namer_py = List.assoc "Namer" py_rows in
    let rows10 = Exp.baselines_table py ~namer_outcome:namer_py in
    print_newline ();
    Exp.print_baselines_table
      ~caption:"Table 10: GGNN / Great / Namer precision (Python; paper: 16% / 8% / 70%)"
      rows10 ~namer_outcome:namer_py;
    let namer_java = List.assoc "Namer" java_rows in
    let rows11 = Exp.baselines_table java ~namer_outcome:namer_java in
    print_newline ();
    Exp.print_baselines_table
      ~caption:"Table 11: GGNN / Great / Namer precision (Java; paper: 9% / 5% / 68%)"
      rows11 ~namer_outcome:namer_java
  end;
  print_newline ();

  (* ---------------- extra ablations (DESIGN.md §4) ---------------- *)
  if flag "--sweeps" then begin
    print_endline "### Extra ablations ###\n";
    Exp.print_feature_ablation py;
    Exp.print_mining_sweep ()
  end;

  (* ---------------- figures ---------------- *)
  print_endline "### Figures ###\n";
  Exp.print_figure2 py;
  Exp.print_figure3 ();

  Printf.printf "total wall-clock: %.0fs\n" (Unix.gettimeofday () -. t_start);
  print_endline "(run with --perf for the §5.1 speed micro-benchmarks)"
