(* The benchmark's phases.  [run.py] starts one process per phase, so every
   timed pass runs in a fresh process (as one CLI invocation would) and its
   peak RSS is that process's own.  Each phase prints one JSON object on
   stdout.

     bench.exe setup --workload scan20k|serve-java --seed N --dir D
     bench.exe scan --dir D                 one timed scan20k pass
     bench.exe train --seed N               set-up and one timed train1k pass
     bench.exe warm --socket P --seed N     cache the serve-java hot set
     bench.exe load --socket P --seed N --seconds S --dir D
     bench.exe trace-scan --dir D --out F
     bench.exe trace-train --seed N --out F
     bench.exe trace-serve --socket P --seed N --seconds S --dir D --out F *)

module J = Namer_util.Json
module Corpus = Namer_corpus.Corpus
module Namer = Namer_core.Namer
module Scan_cache = Namer_core.Scan_cache
module Telemetry = Namer_telemetry.Telemetry
module Client = Namer_serve.Client
module Pattern = Namer_pattern.Pattern
module Prng = Namer_util.Prng

let nproc = Fixtures.nproc
let now = Unix.gettimeofday

let timed f =
  let t0 = now () in
  let r = f () in
  (r, now () -. t0)

(* User plus system CPU time of the whole process, all domains included.
   CPU stolen by other tenants of a shared host is not charged to it. *)
let cpu_time () =
  let t = Unix.times () in
  t.tms_utime +. t.tms_stime

let cpu_timed f =
  let c0 = cpu_time () in
  let r, wall = timed f in
  (r, wall, cpu_time () -. c0)

(* The CLI's default run: the ledger is on, which turns the telemetry
   Memory sink on; every CLI invocation starts from an empty registry. *)
let telemetry_on () =
  Telemetry.reset ();
  Telemetry.set_sink Telemetry.Memory

let emit fields = print_endline (J.to_string (J.Obj fields))

(* JSON has no NaN: a statistic with no samples is null *)
let num x = if Float.is_finite x then J.Float x else J.Null
let model_path dir = Filename.concat dir "model.nmdl"
let corpus_dir dir = Filename.concat dir "corpus"

(* Reports name files relative to the corpus root, so their digest does
   not depend on where the checkout lives. *)
let corpus_files dir =
  let root = corpus_dir dir in
  let skip = String.length root + 1 in
  List.map
    (fun file -> (String.sub file skip (String.length file - skip), file))
    (Fixtures.list_files root)

let scan_refs dir =
  List.map
    (fun (path, file) -> Namer.ref_of_path ~repo:(Filename.dirname path) ~path ~file)
    (corpus_files dir)

let report_fields (result : Namer.scan_result) =
  let n, digest = Compose.reports_digest (Array.to_list result.sr_reports) in
  [
    ("reports", J.Int n);
    ("digest", J.String digest);
    ("skipped", J.Int (List.length result.sr_skipped));
  ]

(* ---------------- set-up ---------------- *)

(* Writing 20k small files is disk-bound and swings by an order of
   magnitude on a shared disk, so the time spent inside file writes is
   reported apart from [setup_s]; generating the corpus is in it.  With
   [write = false] the corpus is generated and dropped. *)
let setup ~workload ~seed ~dir ~write =
  telemetry_on ();
  let disk_s = ref 0.0 in
  let (), wall, cpu =
    cpu_timed (fun () ->
        Fixtures.mkdir_p dir;
        match workload with
        | "scan20k" ->
            let root = corpus_dir dir in
            Namer_corpus.Corpus.write_scale ~lang:Corpus.Python ~seed
              ~files_per_repo:Fixtures.files_per_repo ~n_files:Fixtures.scan_files
              (fun ~repo:_ ~path ~source ->
                if write then begin
                  let (), t = timed (fun () -> Fixtures.write_file (Filename.concat root path) source) in
                  disk_s := !disk_s +. t
                end);
            Fixtures.train_model
              (Fixtures.generated Corpus.Python ~repos:20 ~seed:(seed + 7919))
              ~path:(model_path dir);
            ignore (Namer.load_model ~path:(model_path dir))
        | "serve-java" ->
            Fixtures.train_model (Fixtures.java_training ~seed) ~path:(model_path dir);
            ignore (Namer.load_model ~path:(model_path dir))
        | w -> failwith ("setup: unknown workload " ^ w))
  in
  emit
    [
      ("setup_s", J.Float (wall -. !disk_s));
      ("setup_cpu_s", J.Float cpu);
      ("disk_write_s", J.Float !disk_s);
    ]

(* ---------------- scan20k ---------------- *)

let scan ~dir =
  let m, load_s = timed (fun () -> Namer.load_model ~path:(model_path dir)) in
  telemetry_on ();
  let (refs, result), wall, cpu =
    cpu_timed (fun () ->
        let refs = scan_refs dir in
        (refs, Namer.scan_refs ~jobs:nproc m refs))
  in
  emit
    ([
       ("wall_s", J.Float wall);
       ("cpu_s", J.Float cpu);
       ("load_s", J.Float load_s);
       ("files", J.Int (List.length refs));
     ]
    @ report_fields result)

(* ---------------- train1k ---------------- *)

let true_violations (t : Namer.t) =
  Array.fold_left
    (fun n v ->
      match Namer.grade t v with Corpus.Oracle.True_issue _ -> n + 1 | _ -> n)
    0 t.violations

(* Set-up is generating the corpus and its oracle; it is short, so it is
   repeated and the median reported. *)
let setup_reps = 5

let train ~seed =
  let setups =
    List.init setup_reps (fun _ ->
        cpu_timed (fun () ->
            let corpus = Fixtures.train_corpus ~seed in
            ignore (Corpus.Oracle.of_corpus corpus);
            corpus))
  in
  let corpus = match setups with (c, _, _) :: _ -> c | [] -> assert false in
  let median f = List.nth (List.sort compare (List.map f setups)) (setup_reps / 2) in
  telemetry_on ();
  let t, wall, cpu = cpu_timed (fun () -> Namer.build Fixtures.config corpus) in
  let outcome = Namer.evaluate t in
  emit
    [
      ("setup_s", J.Float (median (fun (_, w, _) -> w)));
      ("setup_cpu_s", J.Float (median (fun (_, _, c) -> c)));
      ("wall_s", J.Float wall);
      ("cpu_s", J.Float cpu);
      ("files", J.Int t.n_files);
      ("skipped", J.Int (List.length t.skipped));
      ("patterns", J.Int (Pattern.Store.size t.store));
      ("candidates", J.Int t.n_candidates);
      ("violations", J.Int (Array.length t.violations));
      ("true_violations", J.Int (true_violations t));
      ("injections", J.Int (List.length corpus.injections));
      ("reports", J.Int outcome.n_reports);
      ("precision", J.Float (Namer.precision outcome));
    ]

(* ---------------- serve-java ---------------- *)

let target socket = Client.Unix_path socket

(* Warm the daemon's scan cache with the hot set. *)
let warm ~socket ~seed =
  let pool = Fixtures.java_files ~seed ~n:Loadgen.hot_set in
  let conn = Client.connect ~retry_for:10.0 (target socket) in
  let ok =
    List.fold_left
      (fun ok (r : Loadgen.request) ->
        if Loadgen.is_ok (Client.request_raw conn r.line) then ok + 1 else ok)
      0 (Loadgen.warm_requests pool)
  in
  Client.close conn;
  emit [ ("warm_requests", J.Int (Loadgen.hot_set / Loadgen.files_per_request)); ("ok", J.Int ok) ]

(* The daemon's scan response as [scan --model --json] renders it, from an
   in-process scan of the same sources. *)
let expected_response (m : Namer.model) files =
  let result =
    Namer.scan_with_model ~jobs:1 m
      (List.map (fun (path, source) -> { Corpus.repo = "<inline>"; path; source }) files)
  in
  let line (r : Namer.report) =
    match
      List.nth_opt (String.split_on_char '\n' (List.assoc r.r_file files)) (r.r_line - 1)
    with
    | Some l -> String.trim l
    | None -> "<line out of range>"
  in
  J.Obj
    [
      ("files", J.Int (List.length files));
      ("model", J.String m.m_hash);
      ("patterns", J.Int (Pattern.Store.size m.m_store));
      ("violations", J.Int (Array.length result.sr_reports));
      ("files_skipped", J.Int (List.length result.sr_skipped));
      ( "skipped",
        J.List
          (List.map
             (fun (s : Namer.skipped) ->
               J.Obj [ ("file", J.String s.sk_file); ("reason", J.String s.sk_reason) ])
             result.sr_skipped) );
      ( "reports",
        J.List
          (Array.to_list result.sr_reports
          |> List.map (fun (r : Namer.report) ->
                 J.Obj
                   [
                     ("file", J.String r.r_file);
                     ("line", J.Int r.r_line);
                     ("statement", J.String (line r));
                     ("found", J.String r.r_found);
                     ("suggested", J.String r.r_suggested);
                     ("pattern", J.String r.r_kind);
                   ])) );
    ]

(* A seeded sample of ok responses must equal the in-process scan of the
   same sources, cache counters aside.  Returns (checked, mismatched). *)
let check_sample ~seed ~model (reqs : Loadgen.request array) responses =
  let m = Namer.load_model ~path:model in
  let prng = Prng.create (seed + 29) in
  let candidates =
    List.filter_map
      (fun (i, r) -> match r with Ok line when Loadgen.is_ok r -> Some (i, line) | _ -> None)
      responses
  in
  let sample = Prng.sample prng 16 candidates in
  let bad =
    List.filter
      (fun (i, line) ->
        match J.parse line with
        | Error _ -> true
        | Ok got ->
            Client.scan_fingerprint got
            <> Client.scan_fingerprint (expected_response m reqs.(i).Loadgen.files))
      sample
  in
  (List.length sample, List.length bad)

let load ~socket ~seed ~seconds ~dir =
  let sizes =
    Array.mapi
      (fun k (rate, _) -> int_of_float (rate *. Loadgen.rung_seconds ~seconds k))
      Loadgen.ladder
  in
  let total = Array.fold_left ( + ) 0 sizes + Loadgen.saturation_requests in
  let pool = Fixtures.java_files ~seed ~n:(Loadgen.pool_size total) in
  let reqs = Loadgen.make_requests ~seed pool ~n:total in
  let responses = ref [] in
  let rec go k first acc =
    if k = Array.length Loadgen.ladder then List.rev acc
    else
      let n = sizes.(k) in
      let results =
        Loadgen.run_rung (target socket) ~conns:nproc ~rate:(Loadgen.rate k) ~reqs ~first ~n
      in
      Array.iteri
        (fun i -> Option.iter (fun (o : Loadgen.outcome) ->
             responses := (first + i, o.response) :: !responses))
        results;
      let r = Loadgen.summarize ~rate:(Loadgen.rate k) results in
      (* past a rung the generator could not keep up with, higher rates
         only queue deeper *)
      if r.unsent > 0 then List.rev (r :: acc) else go (k + 1) (first + n) (r :: acc)
  in
  let rungs = go 0 0 [] in
  let saturation =
    let n = Loadgen.saturation_requests and first = total - Loadgen.saturation_requests in
    let rate = Loadgen.saturation_rate in
    let results = Loadgen.run_rung ~give_up:false (target socket) ~conns:nproc ~rate ~reqs ~first ~n in
    Array.iteri
      (fun i -> Option.iter (fun (o : Loadgen.outcome) ->
           responses := (first + i, o.response) :: !responses))
      results;
    Loadgen.summarize ~rate results
  in
  let checked, mismatched = check_sample ~seed ~model:(model_path dir) reqs !responses in
  let max_rung =
    List.fold_left
      (fun best (r : Loadgen.rung) -> if r.passed then Some r else best)
      None rungs
  in
  let mid = List.nth_opt rungs Loadgen.mid in
  let get f = function Some r -> f r | None -> nan in
  let sum f = List.fold_left (fun n r -> n + f r) 0 (saturation :: rungs) in
  emit
    [
      ("rungs", J.List (List.map Loadgen.rung_json rungs));
      ("saturation", Loadgen.rung_json saturation);
      ("saturation_rps", J.Float saturation.achieved_rps);
      ("mid_window_p99_ms", num (get (fun r -> r.Loadgen.window_p99_ms) mid));
      ("mid_p50_ms", num (get (fun r -> r.Loadgen.p50_ms) mid));
      ("mid_p90_ms", num (get (fun r -> r.Loadgen.p90_ms) mid));
      ("mid_p99_ms", num (get (fun r -> r.Loadgen.p99_ms) mid));
      ("mid_samples", J.Int (match mid with Some r -> r.scheduled | None -> 0));
      ("max_rps", num (get (fun r -> r.Loadgen.achieved_rps) max_rung));
      ("max_rate", num (get (fun r -> r.Loadgen.rate) max_rung));
      ("ok", J.Int (sum (fun r -> r.ok)));
      ("attempted", J.Int (sum (fun r -> r.scheduled)));
      ("failed", J.Int (sum (fun r -> r.failed + r.overloaded)));
      ("sample_checked", J.Int checked);
      ("sample_mismatched", J.Int mismatched);
    ]

(* ---------------- traced runs ---------------- *)

let us = 1e6
let ms = 1e3

(* Every per-layer metric the traced composition measured, from the span
   self times and the counts taken at the same boundaries.  Layers a
   workload does not exercise read 0. *)
let layer_metrics () =
  let tbl = Trace.self_by_name () in
  let s = Trace.self_s tbl and b = Trace.self_bytes tbl and c = Trace.counter in
  let per x n = if n > 0.0 then x /. n else 0.0 in
  let lang lib =
    let files = c (lib ^ ".files") and bytes = c (lib ^ ".src_bytes") in
    let lex = s (lib ^ ".lex") in
    [
      (lib ^ ".lex_us_per_file", per (lex *. us) files);
      (lib ^ ".parse_us_per_file", per ((s (lib ^ ".parse") -. lex) *. us) files);
      (lib ^ ".lower_us_per_file", per (s (lib ^ ".lower") *. us) files);
      (* the parse span includes the parser's own lexing; the probe is not
         program work *)
      ( lib ^ ".alloc_per_src_byte",
        per (b (lib ^ ".parse") +. b (lib ^ ".lower")) bytes );
    ]
  in
  let files = c "pylang.files" +. c "javalang.files" in
  let bytes = c "pylang.src_bytes" +. c "javalang.src_bytes" in
  let core =
    Hashtbl.fold
      (fun name (t, _) acc -> if String.starts_with ~prefix:"core." name then acc +. t else acc)
      tbl 0.0
  in
  lang "pylang" @ lang "javalang"
  @ [
      ("analysis.us_per_file", per (s "analysis" *. us) files);
      ("analysis.alloc_per_src_byte", per (b "analysis") bytes);
      ("namepath.astplus_us_per_file", per (s "namepath.astplus" *. us) files);
      ("namepath.extract_us_per_file", per (s "namepath.extract" *. us) files);
      ( "namepath.alloc_per_src_byte",
        per (b "namepath.astplus" +. b "namepath.extract") bytes );
      ("namepath.paths_per_stmt", per (c "namepath.paths") (c "namepath.stmts"));
      ("pattern.match_us_per_stmt", per (s "pattern.match" *. us) (c "pattern.stmts"));
      ("pattern.candidates_per_stmt", per (c "pattern.candidates") (c "pattern.stmts"));
      ("pattern.violation_ratio", per (c "pattern.violations") (c "pattern.checks"));
      ("mining.pairs_ms", s "mining.pairs" *. ms);
      ("mining.consistency_ms", s "mining.consistency" *. ms);
      ("mining.confusing_ms", s "mining.confusing" *. ms);
      ("mining.ordering_ms", s "mining.ordering" *. ms);
      ("mining.kept_ratio", per (c "mining.kept") (c "mining.candidates"));
      ("classifier.features_ms", s "classifier.features" *. ms);
      ("ml.select_train_ms", s "ml.select_train" *. ms);
      ("scan_cache.find_us", per (s "scan_cache.find" *. us) (c "scan_cache.finds"));
      ("scan_cache.store_us", per (s "scan_cache.store" *. us) (c "scan_cache.stores"));
      ("scan_cache.hit_ratio", per (c "scan_cache.hits") (c "scan_cache.finds"));
      ("model.load_ms", s "model.load" *. ms);
      ("core.other_ms", core *. ms);
    ]

(* Layer cost per file beside the paper's §5.1 figures. *)
let paper_ms = function Corpus.Python -> 39.0 | Corpus.Java -> 20.0

let per_file_ms () =
  let tbl = Trace.self_by_name () in
  let files = Trace.counter "pylang.files" +. Trace.counter "javalang.files" in
  let total =
    Hashtbl.fold
      (fun name (t, _) acc ->
        if
          List.exists
            (fun p -> String.starts_with ~prefix:p name)
            [ "pylang."; "javalang."; "analysis"; "namepath."; "pattern." ]
        then acc +. t
        else acc)
      tbl 0.0
  in
  if files > 0.0 then total *. ms /. files else 0.0

let traced_result ~lang ~wall ~untraced ~out extra =
  Trace.write_chrome ~path:out;
  let metrics = layer_metrics () in
  let core = List.assoc "core.other_ms" metrics /. ms in
  emit
    ([
       ("layers", J.Obj (List.map (fun (k, v) -> (k, J.Float v)) metrics));
       ("traced_wall_s", J.Float wall);
       ("untraced_wall_s", J.Float untraced);
       ("coverage", J.Float (if wall > 0.0 then 1.0 -. (core /. wall) else 0.0));
       ("per_file_ms", J.Float (per_file_ms ()));
       ("paper_per_file_ms", J.Float (paper_ms lang));
       ("trace_file", J.String out);
     ]
    @ extra)

let load_model_traced path = Trace.span "model.load" (fun () -> Namer.load_model ~path)

let trace_scan ~dir ~out =
  let m = load_model_traced (model_path dir) in
  telemetry_on ();
  let files = corpus_files dir in
  let reports, wall =
    timed (fun () ->
        Trace.span "core.run" (fun () ->
            List.concat_map
              (fun (path, file) ->
                Trace.span ~id:path "core.file" (fun () ->
                    match Compose.scan_source m ~path (Fixtures.read_file file) with
                    | Some entries -> Compose.reports_of_entries ~path entries
                    | None -> []))
              files))
  in
  let traced = Compose.reports_digest (Compose.sort_reports reports) in
  let refs = scan_refs dir in
  let r1, wall1 = timed (fun () -> Namer.scan_refs ~jobs:1 m refs) in
  let rn, walln = timed (fun () -> Namer.scan_refs ~jobs:nproc m refs) in
  let identity (r : Namer.scan_result) = Compose.reports_digest (Array.to_list r.sr_reports) in
  let n, digest = identity rn in
  traced_result ~lang:Corpus.Python ~wall ~untraced:wall1 ~out
    [
      ("reports", J.Int n);
      ("digest", J.String digest);
      ("composition_matches", J.Bool (traced = (n, digest)));
      ("jobs_match", J.Bool (identity r1 = (n, digest)));
      ("parallel_speedup", J.Float (wall1 /. walln));
    ]

let trace_train ~seed ~out =
  let corpus = Fixtures.train_corpus ~seed in
  telemetry_on ();
  let cfg1 = { Fixtures.config with jobs = 1 } in
  let traced, wall = timed (fun () -> Trace.span "core.run" (fun () -> Compose.build cfg1 corpus)) in
  let t, untraced = timed (fun () -> Namer.build cfg1 corpus) in
  let e2e = (Pattern.Store.size t.store, Array.length t.violations, t.n_candidates) in
  let refs = List.map Namer.ref_of_file corpus.files in
  let digest jobs =
    snd (timed (fun () -> Namer.Partial.of_refs { cfg1 with jobs } ~lang:corpus.lang refs))
  in
  let d1 = digest 1 in
  let dn = digest nproc in
  let patterns, violations, _ = e2e in
  traced_result ~lang:Corpus.Python ~wall ~untraced ~out
    [
      ("patterns", J.Int patterns);
      ("violations", J.Int violations);
      ("composition_matches", J.Bool (traced = e2e));
      ("parallel_speedup", J.Float (d1 /. dn));
    ]

(* Replay the mid rung's requests through the layers in-process, against
   a scan cache warmed with the same hot set the daemon's was. *)
let replay (m : Namer.model) ~cache (reqs : Loadgen.request array) =
  Array.map
    (fun (r : Loadgen.request) ->
      let reports =
        List.concat_map
          (fun (path, source) ->
            let d, hit =
              Trace.span ~id:path "scan_cache.find" (fun () ->
                  let d = Scan_cache.src_digest source in
                  (d, Scan_cache.find ~dir:cache ~model_hash:m.m_hash ~src_digest:d))
            in
            Trace.count "scan_cache.finds";
            let entries =
              match hit with
              | Some entries ->
                  Trace.count "scan_cache.hits";
                  entries
              | None -> (
                  match Compose.scan_source m ~path source with
                  | Some entries ->
                      Trace.span ~id:path "scan_cache.store" (fun () ->
                          Scan_cache.store ~dir:cache ~model_hash:m.m_hash ~src_digest:d entries);
                      Trace.count "scan_cache.stores";
                      entries
                  | None -> [])
            in
            Compose.reports_of_entries ~path entries)
          r.files
      in
      List.length reports)
    reqs

let trace_serve ~socket ~seed ~seconds ~dir ~out =
  let rate = Loadgen.rate Loadgen.mid in
  let n = int_of_float (rate *. seconds) in
  let pool = Fixtures.java_files ~seed ~n:(Loadgen.pool_size n) in
  let reqs = Loadgen.make_requests ~seed pool ~n in
  let results = Loadgen.run_rung (target socket) ~conns:nproc ~rate ~reqs ~first:0 ~n in
  let rung = Loadgen.summarize ~rate results in
  Array.iteri
    (fun i ->
      Option.iter (fun (o : Loadgen.outcome) ->
          let id = string_of_int i in
          Trace.record ~id "serve.lateness" ~t0:o.due ~t1:o.sent;
          Trace.record ~id "serve.request" ~t0:o.sent ~t1:o.replied))
    results;
  let sent = Array.to_list results |> List.filter_map Fun.id in
  let mean f =
    match sent with
    | [] -> 0.0
    | _ -> List.fold_left (fun a o -> a +. f o) 0.0 sent /. float_of_int (List.length sent)
  in
  let daemon_counts =
    Array.map
      (function
        | Some { Loadgen.response = Ok line; _ } -> (
            match J.parse line with
            | Ok (J.Obj fs) -> (
                match List.assoc_opt "violations" fs with Some (J.Int v) -> v | _ -> -1)
            | _ -> -1)
        | _ -> -1)
      results
  in
  let m = load_model_traced (model_path dir) in
  telemetry_on ();
  let warmed name =
    let cache = Filename.concat dir name in
    ignore
      (Namer.scan_with_model ~jobs:1 ~cache_dir:cache m
         (List.map
            (fun (path, source) -> { Corpus.repo = "<inline>"; path; source })
            (Array.to_list (Array.sub pool 0 Loadgen.hot_set))));
    cache
  in
  let traced_cache = warmed "replay-cache" and plain_cache = warmed "plain-cache" in
  let counts, wall =
    timed (fun () -> Trace.span "core.run" (fun () -> replay m ~cache:traced_cache reqs))
  in
  let (), untraced =
    timed (fun () ->
        Array.iter
          (fun (r : Loadgen.request) ->
            ignore
              (Namer.scan_with_model ~jobs:1 ~cache_dir:plain_cache m
                 (List.map
                    (fun (path, source) -> { Corpus.repo = "<inline>"; path; source })
                    r.files)))
          reqs)
  in
  let compared = ref 0 and mismatched = ref 0 in
  Array.iteri
    (fun i d ->
      if d >= 0 then begin
        incr compared;
        if d <> counts.(i) then incr mismatched
      end)
    daemon_counts;
  let reqs_bytes =
    Array.fold_left (fun a (r : Loadgen.request) -> a + String.length r.line) 0 reqs
  in
  traced_result ~lang:Corpus.Java ~wall ~untraced ~out
    [
      ( "serve",
        J.Obj
          [
            ("service_ms", J.Float (mean (fun o -> o.replied -. o.sent) *. ms));
            ("lateness_ms", J.Float (mean (fun o -> o.sent -. o.due) *. ms));
            ("overloaded", J.Int rung.overloaded);
            ("request_bytes", J.Float (float_of_int reqs_bytes /. float_of_int (max 1 n)));
          ] );
      ("rung", Loadgen.rung_json rung);
      ("compared", J.Int !compared);
      ("composition_matches", J.Bool (!mismatched = 0 && !compared = rung.ok));
      ("attempted", J.Int n);
      ("failed", J.Int (rung.failed + rung.overloaded));
    ]

(* ---------------- command line ---------------- *)

let () =
  let args = Array.to_list Sys.argv |> List.tl in
  let phase, opts =
    match args with p :: rest -> (p, rest) | [] -> failwith "usage: bench.exe PHASE [--opt v]..."
  in
  let rec pairs = function
    | k :: v :: rest when String.starts_with ~prefix:"--" k ->
        (String.sub k 2 (String.length k - 2), v) :: pairs rest
    | [] -> []
    | a :: _ -> failwith ("bench.exe: bad argument " ^ a)
  in
  let opts = pairs opts in
  let opt k =
    match List.assoc_opt k opts with Some v -> v | None -> failwith ("missing --" ^ k)
  in
  let seed () = int_of_string (opt "seed") and seconds () = float_of_string (opt "seconds") in
  match phase with
  | "setup" ->
      setup ~workload:(opt "workload") ~seed:(seed ()) ~dir:(opt "dir")
        ~write:(List.assoc_opt "write" opts = Some "1")
  | "scan" -> scan ~dir:(opt "dir")
  | "train" -> train ~seed:(seed ())
  | "warm" -> warm ~socket:(opt "socket") ~seed:(seed ())
  | "load" -> load ~socket:(opt "socket") ~seed:(seed ()) ~seconds:(seconds ()) ~dir:(opt "dir")
  | "trace-scan" -> trace_scan ~dir:(opt "dir") ~out:(opt "out")
  | "trace-train" -> trace_train ~seed:(seed ()) ~out:(opt "out")
  | "trace-serve" ->
      trace_serve ~socket:(opt "socket") ~seed:(seed ()) ~seconds:(seconds ()) ~dir:(opt "dir")
        ~out:(opt "out")
  | p -> failwith ("bench.exe: unknown phase " ^ p)
