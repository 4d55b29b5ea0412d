(* The namer command-line tool.

   Subcommands:
   - [namer corpus]    write a synthetic Big Code corpus to disk;
   - [namer train]     mine patterns from a directory and save the trained
                       model as a binary snapshot (train once…);
   - [namer scan]      report naming issues in a directory: either
                       self-mining (mine and scan the same directory — the
                       paper's "w/o C" pipeline, since real directories
                       carry no labeled data), or against a [--model]
                       snapshot, optionally through a [--cache-dir]
                       per-file report cache (…scan many);
   - [namer demo]      one-paragraph end-to-end demonstration;
   - [namer stats]     dump the metric registry persisted by the last
                       run as JSON (or OpenMetrics exposition text);
   - [namer report]    aggregate the run ledger into trend tables and a
                       history-based regression gate.

   Reports go to stdout; progress and telemetry go to stderr, so stdout
   stays machine-parseable (e.g. [namer scan --json ... | jq]).

   Observability: every train/scan/demo/fuzz run appends one record to the
   run ledger (disable with --no-ledger), can stream structured JSONL
   events with --log-json, and can export the metric registry as an
   OpenMetrics textfile with --metrics-out.

   Example:
     namer corpus --files 2000 --out /tmp/bigcode
     namer train --lang python --model bigcode.nmdl /tmp/bigcode
     namer scan --model bigcode.nmdl --cache-dir ~/.cache/namer /tmp/project
     namer report --check *)

open Cmdliner
module Corpus = Namer_corpus.Corpus
module Namer = Namer_core.Namer
module Pattern = Namer_pattern.Pattern
module Telemetry = Namer_telemetry.Telemetry
module Ledger = Namer_obs.Ledger
module Serve = Namer_serve.Serve
module Openmetrics = Namer_obs.Openmetrics
module Trend = Namer_obs.Trend
module J = Namer_util.Json

(* ---------------- progress through the event log ---------------- *)

(* Progress always lands in the structured event log (when a sink is
   live); the human line on stderr is suppressed by --quiet.  Errors
   ignore --quiet: a run must never fail silently. *)
let quiet_flag = ref false

let progress fmt =
  Printf.ksprintf
    (fun msg ->
      Telemetry.emit ~fields:[ ("msg", J.String msg) ] Telemetry.Info "cli.progress";
      if not !quiet_flag then Telemetry.progressf "%s" msg)
    fmt

let progress_err fmt =
  Printf.ksprintf
    (fun msg ->
      Telemetry.emit ~fields:[ ("msg", J.String msg) ] Telemetry.Error "cli.error";
      Telemetry.progressf "%s" msg)
    fmt

(* ---------------- observability plumbing ---------------- *)

type obs = {
  o_metrics : bool;  (** print the stage/counter tables to stderr *)
  o_trace : string option;  (** Chrome trace path *)
  o_metrics_out : string option;  (** OpenMetrics textfile path *)
  o_log_json : string option;  (** event log: file path or "-" = stderr *)
  o_ledger : string option;  (** ledger dir; [None] = ledger disabled *)
  o_quiet : bool;
}

let metrics_arg =
  Arg.(value & flag & info [ "metrics" ]
         ~doc:"Print the per-stage cost table, counters and histogram \
               percentiles to stderr after the run.")

let trace_arg =
  Arg.(value & opt (some string) None & info [ "trace" ] ~docv:"FILE.json"
         ~doc:"Write a Chrome trace_event JSON timeline to $(docv) (load it \
               in chrome://tracing or Perfetto).")

let metrics_out_arg =
  Arg.(value & opt (some string) None & info [ "metrics-out" ] ~docv:"FILE"
         ~doc:"Write the metric registry as OpenMetrics/Prometheus text \
               exposition to $(docv) (atomic rename, suitable for a \
               node-exporter textfile collector).")

let log_json_arg =
  Arg.(value & opt (some string) None & info [ "log-json" ] ~docv:"FILE"
         ~doc:"Stream structured JSONL events (leveled, with trace/span ids \
               propagated across worker domains) to $(docv); use '-' for \
               stderr.  Turns telemetry recording on for the run.")

let ledger_dir_arg =
  Arg.(value & opt (some string) None & info [ "ledger" ] ~docv:"DIR"
         ~doc:"Append this run's ledger record under $(docv) instead of the \
               default state directory.")

let no_ledger_arg =
  Arg.(value & flag & info [ "no-ledger" ]
         ~doc:"Do not append a record to the run ledger.")

let quiet_arg =
  Arg.(value & flag & info [ "quiet"; "q" ]
         ~doc:"Suppress progress lines on stderr (they still reach the \
               --log-json event log).  Errors always print.")

let obs_term =
  let mk metrics trace metrics_out log_json ledger no_ledger quiet =
    {
      o_metrics = metrics;
      o_trace = trace;
      o_metrics_out = metrics_out;
      o_log_json = log_json;
      o_ledger =
        (if no_ledger then None
         else Some (Option.value ledger ~default:(Ledger.default_dir ())));
      o_quiet = quiet;
    }
  in
  Term.(const mk $ metrics_arg $ trace_arg $ metrics_out_arg $ log_json_arg
        $ ledger_dir_arg $ no_ledger_arg $ quiet_arg)

(** Where [namer stats] finds the last run's metric registry. *)
let default_stats_path () =
  Filename.concat (Ledger.default_dir ()) "last_metrics.json"

(** Switch the telemetry and event sinks on and return the finalizer to
    run once the pipeline is done.  The finalizer prints the stage and
    histogram tables (with --metrics), writes the Chrome trace and the
    OpenMetrics textfile, persists the metric registry for [namer stats],
    and appends one self-contained record to the run ledger —
    [extra] gives the per-subcommand fields (corpus digest, model hash,
    cache hits/misses, fuzz campaign summary, …).  It is called only when
    a record is written: the corpus digest re-reads every input. *)
let obs_setup ~cmd obs =
  quiet_flag := obs.o_quiet;
  (match obs.o_log_json with
  | Some dest -> (
      try Telemetry.open_log (if dest = "-" then `Stderr else `File dest)
      with Sys_error e ->
        progress_err "error: cannot open event log: %s" e;
        exit 1)
  | None -> ());
  (* the ledger and the exporter both read the metric registry, so any of
     them switches telemetry on *)
  let telemetry_on =
    obs.o_metrics || obs.o_trace <> None || obs.o_metrics_out <> None
    || obs.o_ledger <> None
  in
  if telemetry_on then begin
    Telemetry.reset ();
    (* closed spans are kept only for the Chrome trace *)
    Telemetry.set_sink (if obs.o_trace <> None then Telemetry.Trace else Telemetry.Memory)
  end;
  let argv = Array.to_list Sys.argv in
  let t_start = Unix.gettimeofday () and alloc_start = Telemetry.program_alloc_mb () in
  Telemetry.emit
    ~fields:[ ("cmd", J.String cmd); ("argv", J.List (List.map (fun a -> J.String a) argv)) ]
    Telemetry.Info "cli.start";
  fun ?(extra = fun () -> []) () ->
    if telemetry_on then begin
      if obs.o_metrics then begin
        prerr_newline ();
        prerr_string (Telemetry.stage_table ());
        prerr_newline ();
        List.iter
          (fun (k, v) -> Printf.eprintf "  %-28s %d\n" k v)
          (Telemetry.counters ());
        if Telemetry.histograms () <> [] then begin
          prerr_newline ();
          prerr_string (Telemetry.histogram_table ())
        end;
        flush stderr
      end;
      (match obs.o_trace with
      | Some path -> (
          try
            Telemetry.write_chrome_trace ~path;
            progress "wrote Chrome trace to %s" path
          with Sys_error e ->
            progress_err "error: cannot write Chrome trace: %s" e;
            exit 1)
      | None -> ());
      (match obs.o_metrics_out with
      | Some path -> (
          match Openmetrics.of_metrics_json (Telemetry.metrics_json ()) with
          | Ok metrics -> (
              try
                Openmetrics.write ~path metrics;
                progress "wrote OpenMetrics exposition to %s" path
              with Sys_error e ->
                progress_err "error: cannot write OpenMetrics file: %s" e;
                exit 1)
          | Error e ->
              progress_err "error: cannot render OpenMetrics: %s" e;
              exit 1)
      | None -> ());
      let stats_path = default_stats_path () in
      (try
         Namer_util.Fs.mkdir_p (Filename.dirname stats_path);
         Telemetry.write_metrics ~path:stats_path
       with Sys_error _ -> ());
      (match obs.o_ledger with
      | Some dir -> (
          let record =
            J.Obj
              ([
                 ("schema", J.Int Ledger.schema_version);
                 ("ts", J.Float t_start);
                 ("wall_s", J.Float (Unix.gettimeofday () -. t_start));
                 ("alloc_mb", J.Float (Telemetry.program_alloc_mb () -. alloc_start));
                 ("cmd", J.String cmd);
                 ("argv", J.List (List.map (fun a -> J.String a) argv));
                 ("git", J.String (Ledger.git_describe ()));
                 ("trace", J.String Telemetry.trace_id);
                 ("stages", Telemetry.stages_json ());
                 ("counters", Telemetry.counters_json ());
                 ("peak_rss_kb", J.Int (Ledger.peak_rss_kb ()));
               ]
              @ extra ())
          in
          try Ledger.append ~dir record
          with Sys_error e | Unix.Unix_error (_, e, _) ->
            progress_err "warning: cannot append to run ledger: %s" e)
      | None -> ())
    end;
    Telemetry.emit ~fields:[ ("cmd", J.String cmd) ] Telemetry.Info "cli.finish";
    Telemetry.close_log ()

let lang_conv =
  let parse = function
    | "python" | "py" -> Ok Corpus.Python
    | "java" -> Ok Corpus.Java
    | s -> Error (`Msg (Printf.sprintf "unknown language %S (python|java)" s))
  in
  let print fmt l = Format.pp_print_string fmt (String.lowercase_ascii (Corpus.lang_name l)) in
  Arg.conv (parse, print)

let lang_arg =
  Arg.(value & opt lang_conv Corpus.Python & info [ "lang" ] ~docv:"LANG"
         ~doc:"Language: python or java.")

let jobs_arg =
  Arg.(value & opt int (Domain.recommended_domain_count ())
       & info [ "jobs"; "j" ] ~docv:"N"
           ~doc:"Domains to run on, the calling one included (default: the \
                 machine's recommended domain count).  Any value produces \
                 byte-identical reports; 1 disables parallelism.")

(* common ledger fields for a run over a concrete file set; sources are
   hashed one at a time through the refs, never held together *)
let refs_fields ~jobs (refs : Namer.file_ref list) =
  [
    ("jobs", J.Int jobs);
    ("domains", J.Int (min jobs (Domain.recommended_domain_count ())));
    ("files", J.Int (List.length refs));
    ( "corpus_digest",
      J.String
        (Ledger.source_digest_refs
           (List.map (fun (r : Namer.file_ref) -> (r.Namer.fr_path, r.Namer.fr_load)) refs))
    );
  ]

(* ---------------- corpus (paper scale, streaming) ---------------- *)

let corpus_gen lang files files_per_repo seed out =
  let t0 = Unix.gettimeofday () in
  let n = ref 0 and last_dir = ref "" in
  Corpus.write_scale ~lang ~seed ~files_per_repo ~n_files:files
    (fun ~repo:_ ~path ~source ->
      let full = Filename.concat out path in
      let dir = Filename.dirname full in
      if dir <> !last_dir then begin
        Namer_util.Fs.mkdir_p dir;
        last_dir := dir
      end;
      let oc = open_out_bin full in
      output_string oc source;
      close_out oc;
      incr n;
      if !n mod 10_000 = 0 then progress "  …%d files" !n);
  progress "wrote %d %s files under %s in %.1fs" !n (Corpus.lang_name lang) out
    (Unix.gettimeofday () -. t0)

let corpus_cmd =
  let files =
    Arg.(value & opt int 20_000 & info [ "files" ] ~docv:"N"
           ~doc:"Number of files to generate.")
  in
  let files_per_repo =
    Arg.(value & opt int 50 & info [ "files-per-repo" ] ~docv:"N"
           ~doc:"Files per synthetic repository.")
  in
  let seed = Arg.(value & opt int 42 & info [ "seed" ] ~docv:"SEED" ~doc:"PRNG seed.") in
  let out =
    Arg.(required & opt (some string) None & info [ "out"; "o" ] ~docv:"DIR"
           ~doc:"Output directory.")
  in
  Cmd.v
    (Cmd.info "corpus"
       ~doc:"Generate a paper-scale corpus on disk, streaming one file at a \
             time: an N-file corpus is a byte-identical prefix of a larger \
             one with the same seed, and generation never holds the corpus \
             in memory.")
    Term.(const corpus_gen $ lang_arg $ files $ files_per_repo $ seed $ out)

(* ---------------- train / scan ---------------- *)

(* Streaming collection: name the files, don't read them — the pipeline
   loads each one on a worker domain when its batch is digested. *)
let collect_refs lang dir =
  match Namer.refs_of_dir ~lang dir with
  | [] ->
      progress_err "no %s files under %s" (Corpus.lang_ext lang) dir;
      exit 1
  | refs -> refs

(* Per-file failure isolation surfaced to the operator: a scan or train
   that dropped files still succeeded, but degraded — say so, per file,
   on stderr (stdout stays machine-parseable). *)
let report_skipped (skipped : Namer.skipped list) =
  match skipped with
  | [] -> ()
  | sk ->
      progress "degraded: skipped %d files (per-file isolation)" (List.length sk);
      List.iter
        (fun (s : Namer.skipped) ->
          progress "  skipped %s: %s" s.Namer.sk_file s.Namer.sk_reason)
        sk

(* [train] and the mine-and-scan path share this so a saved model scans
   exactly like a same-directory self-mining run. *)
let self_mining_config ~n_files ~jobs =
  { (Namer.self_mining_config ~n_files) with Namer.jobs }

(* ---------------- train ---------------- *)

let usage_error fmt =
  Printf.ksprintf
    (fun s ->
      progress_err "error: %s" s;
      exit 1)
    fmt

let partial_skipped (p : Namer.Partial.t) =
  Array.to_list p.Namer_model.Partial_model.pm_skipped
  |> List.map (fun (i, reason) ->
         {
           Namer.sk_file = snd p.Namer_model.Partial_model.pm_files.(i);
           sk_reason = reason;
         })

(* Write whichever trained artifacts were asked for and return their
   ledger fields: a finalized scan model (--model), a mergeable partial
   (--partial), or both. *)
let emit_outputs ~model_path ~partial_out (t : Namer.t option Lazy.t)
    (p : Namer.Partial.t option) =
  let model_fields =
    match model_path with
    | None -> []
    | Some path ->
        let t =
          match Lazy.force t with
          | Some t -> t
          | None -> usage_error "internal: no build to save"
        in
        let m = Namer.save_model t ~path in
        progress "saved model %s (%d patterns, %d bytes) to %s" m.Namer.m_hash
          (Namer_pattern.Pattern.Store.size m.Namer.m_store)
          (try (Unix.stat path).Unix.st_size with Unix.Unix_error _ -> 0)
          path;
        [ ("model_hash", J.String m.Namer.m_hash) ]
  in
  let partial_fields =
    match (partial_out, p) with
    | None, _ | _, None -> []
    | Some path, Some p ->
        let hash = Namer.Partial.save p ~path in
        progress "saved partial %s (%d files, %d stmts) to %s" hash
          (Namer.Partial.n_files p) (Namer.Partial.n_stmts p) path;
        [ ("partial_hash", J.String hash) ]
  in
  model_fields @ partial_fields

(* train DIR: mine a directory into a model snapshot (--model), a
   mergeable partial (--partial), or both. *)
let train_fresh lang dir jobs model_path partial_out obs =
  let finish = obs_setup ~cmd:"train" obs in
  let refs = collect_refs lang dir in
  progress "mining %d files…" (List.length refs);
  let cfg = self_mining_config ~n_files:(List.length refs) ~jobs in
  let extra =
    match partial_out with
    | Some _ ->
        let p = Namer.Partial.of_refs cfg ~lang refs in
        report_skipped (partial_skipped p);
        emit_outputs ~model_path:None ~partial_out (lazy None) (Some p)
        @ [ ("skipped", J.Int (Array.length p.Namer_model.Partial_model.pm_skipped)) ]
        @
        (match model_path with
        | None -> []
        | Some _ ->
            (* both outputs: finalize the partial rather than train twice *)
            emit_outputs ~model_path ~partial_out:None
              (lazy (Some (Namer.Partial.finalize cfg p)))
              None)
    | None ->
        let t = Namer.build_refs cfg ~lang refs in
        report_skipped t.Namer.skipped;
        emit_outputs ~model_path ~partial_out:None (lazy (Some t)) None
        @ [ ("skipped", J.Int (List.length t.Namer.skipped)) ]
  in
  finish ~extra:(fun () -> refs_fields ~jobs refs @ extra) ()

let load_partial path =
  try Namer.Partial.load ~path
  with Namer_model.Snapshot.Error msg ->
    progress_err "error: %s" msg;
    exit 1

(* train --merge P1 P2 …: combine saved partials into a bigger partial
   (--partial) and/or a finalized scan model (--model). *)
let train_merge paths jobs model_path partial_out obs =
  let finish = obs_setup ~cmd:"merge" obs in
  let parts = List.map (fun p -> (p, load_partial p)) paths in
  let merged =
    try Namer.Partial.merge_all (List.map (fun (_, (p, _)) -> p) parts)
    with Namer_model.Partial_model.Merge_error msg ->
      progress_err "error: %s" msg;
      exit 1
  in
  progress "merged %d partials: %d files, %d statements, %d repos"
    (List.length parts)
    (Namer.Partial.n_files merged)
    (Namer.Partial.n_stmts merged)
    (Namer.Partial.n_repos merged);
  let cfg = self_mining_config ~n_files:(Namer.Partial.n_files merged) ~jobs in
  let extra =
    emit_outputs ~model_path ~partial_out
      (lazy (Some (Namer.Partial.finalize cfg merged)))
      (Some merged)
  in
  finish
    ~extra:(fun () ->
      [
         ("jobs", J.Int jobs);
         ("partials_in", J.Int (List.length parts));
         ( "partials",
           J.List (List.map (fun (_, (_, hash)) -> J.String hash) parts) );
         ("files", J.Int (Namer.Partial.n_files merged));
         ("skipped", J.Int (Array.length merged.Namer_model.Partial_model.pm_skipped));
       ]
      @ extra)
    ()

(* train --update P --add DIR: digest only the new slice, merge it into
   the saved partial, and rewrite the partial in place — the incremental
   path that never re-digests the already-trained corpus. *)
let train_update lang update_path add_dir jobs model_path partial_out obs =
  let finish = obs_setup ~cmd:"merge" obs in
  let p, p_hash = load_partial update_path in
  let plang = Namer.Partial.lang_of p in
  if Namer.Partial.n_files p > 0 && plang <> lang && lang <> Corpus.Python then
    usage_error "--lang %s conflicts with the partial's language %s"
      (String.lowercase_ascii (Corpus.lang_name lang))
      (String.lowercase_ascii (Corpus.lang_name plang));
  let lang = if Namer.Partial.n_files p > 0 then plang else lang in
  let refs = collect_refs lang add_dir in
  progress "digesting %d new files…" (List.length refs);
  let cfg =
    Namer.Partial.align_config
      (self_mining_config ~n_files:(List.length refs) ~jobs)
      p
  in
  let delta = Namer.Partial.of_refs cfg ~lang refs in
  report_skipped (partial_skipped delta);
  let merged =
    try Namer.Partial.merge p delta
    with Namer_model.Partial_model.Merge_error msg ->
      progress_err "error: %s" msg;
      exit 1
  in
  let out = Option.value partial_out ~default:update_path in
  let cfg = self_mining_config ~n_files:(Namer.Partial.n_files merged) ~jobs in
  let extra =
    emit_outputs ~model_path ~partial_out:(Some out)
      (lazy (Some (Namer.Partial.finalize cfg merged)))
      (Some merged)
  in
  finish
    ~extra:(fun () ->
      refs_fields ~jobs refs
      @ [
          ("partials_in", J.Int 1);
          ("partials", J.List [ J.String p_hash ]);
          ("skipped", J.Int (Array.length delta.Namer_model.Partial_model.pm_skipped));
        ]
      @ extra)
    ()

let train lang inputs jobs model_path partial_out merge_flag update_path add_dir
    obs =
  match (merge_flag, update_path, add_dir) with
  | true, Some _, _ -> usage_error "--merge and --update are mutually exclusive"
  | true, None, _ ->
      if inputs = [] then
        usage_error "--merge needs at least one saved partial (train --merge P1 P2 …)";
      if model_path = None && partial_out = None then
        usage_error "--merge needs an output: --model FILE and/or --partial FILE";
      List.iter
        (fun p ->
          if not (Sys.file_exists p) then usage_error "no such partial: %s" p)
        inputs;
      train_merge inputs jobs model_path partial_out obs
  | false, Some up, Some add ->
      if inputs <> [] then
        usage_error "--update takes no positional arguments (use --add DIR)";
      train_update lang up add jobs model_path partial_out obs
  | false, Some _, None -> usage_error "--update needs --add DIR (the new files)"
  | false, None, Some _ -> usage_error "--add only makes sense with --update PARTIAL"
  | false, None, None -> (
      match inputs with
      | [ dir ] when Sys.file_exists dir && Sys.is_directory dir ->
          if model_path = None && partial_out = None then
            usage_error "train needs an output: --model FILE and/or --partial FILE";
          train_fresh lang dir jobs model_path partial_out obs
      | [ dir ] -> usage_error "no such directory: %s" dir
      | [] -> usage_error "train needs a directory of source files"
      | _ :: _ :: _ ->
          usage_error "train takes one directory (did you mean --merge?)")

let train_cmd =
  let inputs =
    Arg.(value & pos_all string [] & info [] ~docv:"DIR|PARTIAL"
           ~doc:"Directory of source files to mine (default mode), or saved \
                 partial models to combine (with $(b,--merge)).")
  in
  let model =
    Arg.(value & opt (some string) None & info [ "model"; "o" ] ~docv:"FILE"
           ~doc:"Write the trained model snapshot to $(docv).")
  in
  let partial =
    Arg.(value & opt (some string) None & info [ "partial" ] ~docv:"FILE"
           ~doc:"Write a mergeable partial model to $(docv) instead of (or \
                 besides) a finalized snapshot.  Partials from disjoint \
                 corpus slices combine with $(b,--merge) into exactly the \
                 model a single train over everything would produce.")
  in
  let merge =
    Arg.(value & flag & info [ "merge" ]
           ~doc:"Treat the positional arguments as saved partial models and \
                 merge them (associatively, any order) into $(b,--partial) \
                 and/or finalize them into $(b,--model).")
  in
  let update =
    Arg.(value & opt (some string) None & info [ "update" ] ~docv:"PARTIAL"
           ~doc:"Incremental training: digest only $(b,--add)'s files, merge \
                 them into $(docv), and rewrite it in place — never \
                 re-digesting the corpus already trained into $(docv).")
  in
  let add =
    Arg.(value & opt (some dir) None & info [ "add" ] ~docv:"DIR"
           ~doc:"With $(b,--update): directory of new source files to fold in.")
  in
  Cmd.v
    (Cmd.info "train"
       ~doc:"Mine name patterns from a directory and save the trained model \
             as a binary snapshot for later `namer scan --model` runs — or \
             train incrementally: save mergeable partial models per corpus \
             slice ($(b,--partial)), combine them ($(b,--merge)), and fold \
             new slices into an existing partial ($(b,--update)/$(b,--add)).")
    Term.(
      const train $ lang_arg $ inputs $ jobs_arg $ model $ partial $ merge
      $ update $ add $ obs_term)

(* ---------------- scan ---------------- *)

(* Print reports as text, or as one JSON object with the fields
   [json_fields statement] — either way through the shared renderers.
   Listings re-read files on demand, once per distinct file. *)
let print_reports ~json ~max_reports ~refs ~reports json_fields =
  let statement = Namer.statement_lookup refs in
  if json then print_endline (J.to_string ~indent:2 (J.Obj (json_fields statement)))
  else
    Array.iteri
      (fun i r ->
        if i < max_reports then print_string (Namer.report_text ~statement:(statement r) r))
      reports

(* Scan against a saved model: no mining, no corpus re-digest — load the
   snapshot, digest only the target files, and optionally replay unchanged
   files from the per-file report cache.  Returns the ledger fields of the
   run, as {!obs_setup}'s finalizer takes them. *)
let scan_with_model ~model_path ~cache_dir ~dir ~jobs ~max_reports ~json =
  let m =
    try Namer.load_model ~path:model_path
    with Namer_model.Snapshot.Error msg ->
      progress_err "error: %s" msg;
      exit 1
  in
  let refs = collect_refs m.Namer.m_lang dir in
  progress "scanning %d files against model %s…" (List.length refs) m.Namer.m_hash;
  let result = Namer.scan_refs ~jobs ?cache_dir m refs in
  (match cache_dir with
  | Some _ ->
      let total = result.Namer.sr_cache_hits + result.Namer.sr_cache_misses in
      progress "cache: %d hits, %d misses (%.1f%% hit rate)" result.Namer.sr_cache_hits
        result.Namer.sr_cache_misses
        (if total = 0 then 0.0
         else 100.0 *. float_of_int result.Namer.sr_cache_hits /. float_of_int total)
  | None -> ());
  progress "%d potential naming issues" (Array.length result.Namer.sr_reports);
  report_skipped result.Namer.sr_skipped;
  print_reports ~json ~max_reports ~refs ~reports:result.Namer.sr_reports (fun statement ->
      Namer.scan_json_fields m ~files:(List.length refs) ~statement ~max_reports result);
  fun () ->
    refs_fields ~jobs refs
    @ [
        ("model_hash", J.String m.Namer.m_hash);
        ( "cache",
          J.Obj
            [
              ("hits", J.Int result.Namer.sr_cache_hits);
              ("misses", J.Int result.Namer.sr_cache_misses);
            ] );
        ("reports", J.Int (Array.length result.Namer.sr_reports));
        ("skipped", J.Int (List.length result.Namer.sr_skipped));
      ]

let scan lang dir jobs max_reports model_path cache_dir apply_fixes json obs =
  let finish = obs_setup ~cmd:"scan" obs in
  match model_path with
  | Some model_path ->
      if apply_fixes then begin
        progress_err "error: --fix requires the self-mining scan (omit --model)";
        exit 1
      end;
      let extra = scan_with_model ~model_path ~cache_dir ~dir ~jobs ~max_reports ~json in
      finish ~extra ()
  | None ->
  if cache_dir <> None then begin
    progress_err "error: --cache-dir requires --model (cached reports are keyed by model hash)";
    exit 1
  end;
  let refs = collect_refs lang dir in
  (* progress goes to stderr so --json leaves stdout machine-readable *)
  progress "scanning %d files…" (List.length refs);
  let cfg = self_mining_config ~n_files:(List.length refs) ~jobs in
  let t = Namer.build_refs cfg ~lang refs in
  progress "mined %d patterns; %d potential naming issues"
    (Pattern.Store.size t.Namer.store)
    (Array.length t.Namer.violations);
  report_skipped t.Namer.skipped;
  let reports = Array.map Namer.report_of_violation t.Namer.violations in
  print_reports ~json ~max_reports ~refs ~reports (fun statement ->
      [
        ("files", J.Int (List.length refs));
        ("patterns", J.Int (Pattern.Store.size t.Namer.store));
        ("violations", J.Int (Array.length reports));
        ("files_skipped", J.Int (List.length t.Namer.skipped));
        ("skipped", Namer.skipped_json t.Namer.skipped);
        ("reports", Namer.reports_json ~statement ~max_reports reports);
      ]);
  if apply_fixes then begin
    (* group fixes per file, rewrite each file atomically *)
    let by_file = Hashtbl.create 16 in
    Array.iter
      (fun (r : Namer.report) ->
        let fix = (r.Namer.r_line, r.Namer.r_found, r.Namer.r_suggested) in
        Hashtbl.replace by_file r.Namer.r_file
          (fix :: Option.value (Hashtbl.find_opt by_file r.Namer.r_file) ~default:[]))
      reports;
    let applied = ref 0 and skipped = ref 0 in
    Hashtbl.iter
      (fun path fixes ->
        List.iter
          (fun (_, _, _, r) ->
            match r with
            | Namer_core.Fixer.Applied _ -> incr applied
            | _ -> incr skipped)
          (Namer_core.Fixer.fix_file ~path (List.rev fixes)))
      by_file;
    progress "applied %d fixes in place (%d skipped as ambiguous)" !applied !skipped
  end;
  finish
    ~extra:(fun () ->
      refs_fields ~jobs refs
      @ [
          ("patterns", J.Int (Pattern.Store.size t.Namer.store));
          ("reports", J.Int (Array.length reports));
          ("skipped", J.Int (List.length t.Namer.skipped));
        ])
    ()

let scan_cmd =
  let dir =
    Arg.(required & pos 0 (some dir) None & info [] ~docv:"DIR"
           ~doc:"Directory of source files.")
  in
  let max_reports =
    Arg.(value & opt int 25 & info [ "max-reports"; "n" ] ~docv:"N"
           ~doc:"Maximum number of reports to print.")
  in
  let model =
    Arg.(value & opt (some string) None & info [ "model" ] ~docv:"FILE"
           ~doc:"Skip mining entirely and scan against the model snapshot in \
                 $(docv) (written by `namer train`).  The model's language \
                 overrides --lang.")
  in
  let cache_dir =
    Arg.(value & opt (some string) None & info [ "cache-dir" ] ~docv:"DIR"
           ~doc:"With --model: cache per-file reports under $(docv), keyed by \
                 (model hash, file content digest), so re-scans of unchanged \
                 files skip parsing entirely and replay byte-identically.")
  in
  let apply_fixes =
    Arg.(value & flag & info [ "fix" ] ~doc:"Rewrite the suggested fixes in place.")
  in
  let json =
    Arg.(value & flag & info [ "json" ] ~doc:"Emit reports as JSON on stdout.")
  in
  Cmd.v
    (Cmd.info "scan"
       ~doc:"Report naming issues in a source directory: mine patterns from \
             the directory itself, or scan against a trained --model snapshot.")
    Term.(const scan $ lang_arg $ dir $ jobs_arg $ max_reports $ model $ cache_dir
          $ apply_fixes $ json $ obs_term)

(* ---------------- serve ---------------- *)

(* Resident scan daemon: load the model once, answer newline-delimited
   JSON scan/status/reload/shutdown requests until SIGTERM/SIGINT, then
   drain and land one ledger row for the whole daemon lifetime. *)
let serve model_path socket_path host port jobs cache_dir max_concurrent timeout_ms obs =
  let finish = obs_setup ~cmd:"serve" obs in
  (* A daemon's peak heap is what it costs its host: hold the major heap
     nearer its live size than OCaml's default 120% overhead.  On the
     serve-java benchmark, 80 cut the daemon's top heap by a fifth at the
     same files per CPU-second. *)
  Gc.set { (Gc.get ()) with Gc.space_overhead = 80 };
  let endpoint =
    match socket_path with
    | Some path -> Serve.Unix_path path
    | None -> Serve.Tcp (host, port)
  in
  let cfg =
    {
      (Serve.default_config ~model_path endpoint) with
      Serve.sv_cache_dir = cache_dir;
      sv_jobs = jobs;
      sv_max_concurrent = max_concurrent;
      sv_timeout_ms = timeout_ms;
    }
  in
  let t =
    try Serve.create cfg with
    | Namer_model.Snapshot.Error msg | Failure msg ->
        progress_err "error: %s" msg;
        exit 1
    | Unix.Unix_error (e, fn, arg) ->
        progress_err "error: cannot bind endpoint: %s (%s %s)"
          (Unix.error_message e) fn arg;
        exit 1
  in
  List.iter
    (fun s ->
      try Sys.set_signal s (Sys.Signal_handle (fun _ -> Serve.request_stop t))
      with Invalid_argument _ | Sys_error _ -> ())
    [ Sys.sigterm; Sys.sigint ];
  (match Serve.endpoint t with
  | Serve.Unix_path path ->
      progress "serving model %s on unix socket %s (jobs=%d)" (Serve.model_hash t)
        path jobs
  | Serve.Tcp (h, p) ->
      progress "serving model %s on tcp %s:%d (jobs=%d)" (Serve.model_hash t) h p jobs;
      (* scripts bind --port 0 and read the resolved port from stdout *)
      if port = 0 then Printf.printf "%d\n%!" p);
  Serve.serve_forever t;
  let c = Telemetry.counter in
  progress "drained: %d requests (%d scans, %d reloads) over %d connections"
    (c "serve.requests") (c "serve.scans") (c "serve.reloads") (c "serve.connections");
  finish
    ~extra:(fun () ->
      [
        ("jobs", J.Int jobs);
        ("model_hash", J.String (Serve.model_hash t));
        ("serve", Serve.ledger_json t);
      ])
    ()

let serve_cmd =
  let model =
    Arg.(required & opt (some string) None & info [ "model" ] ~docv:"FILE"
           ~doc:"Model snapshot to serve (written by `namer train`).")
  in
  let socket =
    Arg.(value & opt (some string) None & info [ "socket" ] ~docv:"PATH"
           ~doc:"Listen on a Unix domain socket at $(docv) (replaces a stale \
                 socket file; refuses one with a live daemon behind it).")
  in
  let host =
    Arg.(value & opt string "127.0.0.1" & info [ "host" ] ~docv:"HOST"
           ~doc:"TCP listen address (ignored with --socket).")
  in
  let port =
    Arg.(value & opt int 0 & info [ "port" ] ~docv:"PORT"
           ~doc:"TCP listen port; 0 (the default) binds an ephemeral port \
                 and prints it on stdout.")
  in
  let cache_dir =
    Arg.(value & opt (some string) None & info [ "cache-dir" ] ~docv:"DIR"
           ~doc:"Per-file report cache shared across requests (and with \
                 concurrent `namer scan --cache-dir` runs), keyed by (model \
                 hash, file content digest).")
  in
  let max_concurrent =
    Arg.(value & opt int 64 & info [ "max-concurrent" ] ~docv:"N"
           ~doc:"Scans admitted at once; excess scan requests are refused \
                 immediately with code \"overloaded\".")
  in
  let timeout_ms =
    Arg.(value & opt int 30_000 & info [ "timeout-ms" ] ~docv:"MS"
           ~doc:"Per-connection stall budget: a partial request line with no \
                 progress for $(docv) ms is answered with code \"timeout\" \
                 and the connection closed.")
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:"Run a resident scan daemon: load a trained model once and \
             answer newline-delimited JSON scan/status/reload/shutdown \
             requests over a Unix or TCP socket until SIGTERM, with \
             graceful drain and model hot-swap.")
    Term.(const serve $ model $ socket $ host $ port $ jobs_arg $ cache_dir
          $ max_concurrent $ timeout_ms $ obs_term)

(* ---------------- demo ---------------- *)

let demo repos jobs obs =
  let finish = obs_setup ~cmd:"demo" obs in
  let corpus =
    Corpus.generate
      { (Corpus.default_config Corpus.Python) with Corpus.n_repos = repos }
  in
  let t = Namer.build { Namer.default_config with Namer.jobs } corpus in
  let o = Namer.evaluate ~n:300 t in
  Printf.printf
    "Namer on a synthetic Python corpus: %d patterns, %d violations;\n\
     of 300 sampled violations the classifier reported %d — %d semantic defects,\n\
     %d code-quality issues, %d false positives (precision %s; paper: ~70%%).\n"
    (Pattern.Store.size t.Namer.store)
    (Array.length t.Namer.violations)
    o.Namer.n_reports o.Namer.semantic o.Namer.quality o.Namer.false_pos
    (Namer_util.Tablefmt.pct (Namer.precision o));
  finish
    ~extra:(fun () ->
      [
        ("jobs", J.Int jobs);
        ("repos", J.Int repos);
        ("reports", J.Int (Array.length t.Namer.violations));
        ("skipped", J.Int (List.length t.Namer.skipped));
      ])
    ()

let demo_cmd =
  let repos =
    Arg.(value & opt int 25 & info [ "repos" ] ~docv:"N"
           ~doc:"Number of synthetic repositories to generate.")
  in
  Cmd.v (Cmd.info "demo" ~doc:"End-to-end demonstration on a synthetic corpus.")
    Term.(const demo $ repos $ jobs_arg $ obs_term)

(* ---------------- fuzz ---------------- *)

let fuzz lang seed iters out jobs repos bomb_depth obs =
  let finish = obs_setup ~cmd:"fuzz" obs in
  let module Fuzz = Namer_fuzz.Fuzz in
  let cfg =
    {
      (Fuzz.default_config lang) with
      Fuzz.f_seed = seed;
      f_iters = iters;
      f_out = out;
      f_jobs = jobs;
      f_repos = repos;
      f_bomb_depth = bomb_depth;
    }
  in
  let s = Fuzz.run ~progress:(fun msg -> progress "%s" msg) cfg in
  Format.printf "%a@?" Fuzz.pp_summary s;
  finish
    ~extra:(fun () ->
      [
        ("jobs", J.Int jobs);
        ("seed", J.Int seed);
        ("campaign", Fuzz.summary_json s);
        ("skipped", J.Int s.Fuzz.s_skipped);
      ])
    ();
  if not (Fuzz.ok s) then exit 1

let fuzz_cmd =
  let seed = Arg.(value & opt int 42 & info [ "seed" ] ~docv:"SEED" ~doc:"PRNG seed; the whole campaign is a pure function of it.") in
  let iters =
    Arg.(value & opt int 200 & info [ "iters" ] ~docv:"N"
           ~doc:"Mutation iterations to run against the scan pipeline.")
  in
  let out =
    Arg.(value & opt (some string) None & info [ "out"; "o" ] ~docv:"DIR"
           ~doc:"Write minimized crash reproducers under $(docv)/<bucket>/.")
  in
  let repos =
    Arg.(value & opt int 6 & info [ "repos" ] ~docv:"N"
           ~doc:"Synthetic repositories in the fuzzed corpus (small: fuzzing \
                 wants iteration cycles, not corpus breadth).")
  in
  let bomb_depth =
    Arg.(value & opt int Namer_fuzz.Mutate.default_bomb_depth
         & info [ "bomb-depth" ] ~docv:"N"
             ~doc:"Nesting depth of the resource-bomb mutation.")
  in
  Cmd.v
    (Cmd.info "fuzz"
       ~doc:"Fuzz the scan pipeline: seed-driven mutations of a synthetic \
             corpus, crash triage with minimized reproducers, and four \
             metamorphic oracles (fix/re-inject, alpha-renaming, \
             permutation determinism, build/model agreement).  Exits \
             non-zero on any crash or oracle violation.")
    Term.(const fuzz $ lang_arg $ seed $ iters $ out $ jobs_arg $ repos
          $ bomb_depth $ obs_term)

(* ---------------- stats ---------------- *)

let stats file openmetrics =
  let path = Option.value file ~default:(default_stats_path ()) in
  if not (Sys.file_exists path) then begin
    progress_err
      "no metric registry at %s — run `namer scan --metrics` or `namer demo \
       --metrics` first"
      path;
    exit 1
  end;
  let content = Namer_util.Fs.read_file path in
  (* validate before echoing, so downstream tooling can trust the output *)
  match J.parse content with
  | Ok json ->
      if openmetrics then begin
        match Openmetrics.of_metrics_json json with
        | Ok metrics -> print_string (Openmetrics.render metrics)
        | Error msg ->
            progress_err "cannot render %s as OpenMetrics: %s" path msg;
            exit 1
      end
      else print_string content
  | Error msg ->
      progress_err "corrupt metric registry %s: %s" path msg;
      exit 1

let stats_cmd =
  let file =
    Arg.(value & opt (some string) None & info [ "file" ] ~docv:"FILE"
           ~doc:"Read the metric registry from $(docv) instead of the default \
                 state path.")
  in
  let openmetrics =
    Arg.(value & flag & info [ "openmetrics" ]
           ~doc:"Render the registry as OpenMetrics/Prometheus text \
                 exposition instead of JSON.")
  in
  Cmd.v
    (Cmd.info "stats"
       ~doc:"Dump the last run's metric registry as JSON (or OpenMetrics).")
    Term.(const stats $ file $ openmetrics)

(* ---------------- report ---------------- *)

let report dir_opt last check wall_pct alloc_pct hit_drop =
  let dir = Option.value dir_opt ~default:(Ledger.default_dir ()) in
  let { Ledger.records; dropped } = Ledger.read ~dir in
  let rows = Trend.rows_of_records records in
  if rows = [] then begin
    progress_err "no ledger records under %s — run any namer subcommand first" dir;
    exit 1
  end;
  if dropped > 0 then
    progress "ledger: skipped %d torn/corrupt lines during recovery" dropped;
  print_string (Trend.table ~last rows);
  if check then begin
    let thresholds =
      { Trend.wall_pct; alloc_pct; hit_rate_drop = hit_drop }
    in
    match Trend.check ~last ~thresholds rows with
    | Ok () -> progress "report: no regressions vs the last %d runs" last
    | Error msgs ->
        List.iter (fun m -> Printf.eprintf "regression: %s\n" m) msgs;
        flush stderr;
        exit 1
  end

let report_cmd =
  let dir =
    Arg.(value & opt (some string) None & info [ "dir" ] ~docv:"DIR"
           ~doc:"Read the ledger from $(docv) instead of the default state \
                 directory.")
  in
  let last =
    Arg.(value & opt int 10 & info [ "last" ] ~docv:"N"
           ~doc:"Rows to show / baseline runs to gate against.")
  in
  let check =
    Arg.(value & flag & info [ "check" ]
           ~doc:"Exit non-zero if the latest run of any subcommand regressed \
                 past the thresholds vs the mean of its previous runs.")
  in
  let wall_pct =
    Arg.(value & opt float Trend.default_thresholds.Trend.wall_pct
         & info [ "max-wall-pct" ] ~docv:"PCT"
             ~doc:"Wall-clock regression threshold, percent over baseline.")
  in
  let alloc_pct =
    Arg.(value & opt float Trend.default_thresholds.Trend.alloc_pct
         & info [ "max-alloc-pct" ] ~docv:"PCT"
             ~doc:"Allocation regression threshold, percent over baseline.")
  in
  let hit_drop =
    Arg.(value & opt float Trend.default_thresholds.Trend.hit_rate_drop
         & info [ "max-hit-drop" ] ~docv:"POINTS"
             ~doc:"Cache hit-rate drop threshold, percentage points below \
                   baseline.")
  in
  Cmd.v
    (Cmd.info "report"
       ~doc:"Aggregate the run ledger into a trend table (wall clock, \
             allocation, cache hit rate vs previous runs) and optionally \
             gate on regressions (--check).")
    Term.(const report $ dir $ last $ check $ wall_pct $ alloc_pct $ hit_drop)

let () =
  (* fault injection reaches the released binary through the environment:
     NAMER_FAULTS="frontend.parse:3,pool.task" arms the named points *)
  (match Sys.getenv_opt "NAMER_FAULTS" with
  | Some spec when spec <> "" ->
      Namer_util.Fault.arm_from_spec spec;
      progress "fault injection armed: %s" spec
  | _ -> ());
  let info =
    Cmd.info "namer" ~version:"1.0.0"
      ~doc:"Finding naming issues with Big Code and small supervision (PLDI 2021 reproduction)"
  in
  exit
    (Cmd.eval
       (Cmd.group info
          [
            corpus_cmd; train_cmd; scan_cmd; serve_cmd; demo_cmd;
            fuzz_cmd; stats_cmd; report_cmd;
          ]))
