(* Traced compositions: the program's per-file scan and its training build
   re-assembled from each library's public functions, with a benchmark span
   around every layer call.  A traced run checks that these compositions
   reproduce the untraced program's report and pattern counts, so the
   spans measure the program and not a re-implementation.

   Span names are [<library>.<layer>]; [core.*] spans group one file or
   request and their self time is orchestration, reported as
   [core.other_ms]. *)

module Corpus = Namer_corpus.Corpus
module Namer = Namer_core.Namer
module Frontend = Namer_core.Frontend
module Scan_cache = Namer_core.Scan_cache
module Pattern = Namer_pattern.Pattern
module Namepath = Namer_namepath.Namepath
module Astplus = Namer_namepath.Astplus
module Origins = Namer_namepath.Origins
module Features = Namer_classifier.Features
module Miner = Namer_mining.Miner
module Confusing_pairs = Namer_mining.Confusing_pairs
module Tree = Namer_tree.Tree
module Interner = Namer_util.Interner
module Prng = Namer_util.Prng

let lib_of = function Corpus.Python -> "pylang" | Corpus.Java -> "javalang"

(* Lex, parse, lower and analyse one file.  The parsers lex internally, so
   the tokenize call is a probe: its time is subtracted from the parse
   span when the parse-only cost is reported. *)
let frontend lang ~use_analysis ~id source : Frontend.parsed_file =
  let lib = lib_of lang in
  Trace.count (lib ^ ".files");
  Trace.count ~by:(float_of_int (String.length source)) (lib ^ ".src_bytes");
  let span name f = Trace.span ~id (lib ^ "." ^ name) f in
  let stmt tree line cls fn = { Frontend.tree; line; cls; fn } in
  let no_origins ~cls:_ ~fn:_ = Origins.none in
  match lang with
  | Corpus.Python ->
      let open Namer_pylang in
      ignore (span "lex" (fun () -> Py_lexer.tokenize source));
      let m = span "parse" (fun () -> Py_parser.parse_module source) in
      let stmts =
        span "lower" (fun () ->
            List.map
              (fun (s : Py_lower.stmt_info) ->
                stmt s.tree s.line s.enclosing_class s.enclosing_function)
              (Py_lower.lower_stmts m))
      in
      let origins =
        if use_analysis then
          let a =
            Trace.span ~id "analysis" (fun () -> Namer_analysis.Py_analysis.analyze m)
          in
          fun ~cls ~fn -> Namer_analysis.Py_analysis.origins_for a ~cls ~fn
        else no_origins
      in
      { Frontend.stmts; origins }
  | Corpus.Java ->
      let open Namer_javalang in
      ignore (span "lex" (fun () -> Java_lexer.tokenize source));
      let u = span "parse" (fun () -> Java_parser.parse_compilation_unit source) in
      let stmts =
        span "lower" (fun () ->
            List.map
              (fun (s : Java_lower.stmt_info) ->
                stmt s.tree s.line s.enclosing_class s.enclosing_function)
              (Java_lower.lower_unit u))
      in
      let origins =
        if use_analysis then
          let a =
            Trace.span ~id "analysis" (fun () -> Namer_analysis.Java_analysis.analyze u)
          in
          fun ~cls ~fn -> Namer_analysis.Java_analysis.origins_for a ~cls ~fn
        else no_origins
      in
      { Frontend.stmts; origins }

(* AST+ and name-path extraction of one parsed file. *)
let name_paths ~limit ~id ~repo ~path (parsed : Frontend.parsed_file) :
    Namer.scanned_stmt list =
  let plus =
    Trace.span ~id "namepath.astplus" (fun () ->
        List.map
          (fun (s : Frontend.stmt) ->
            (s, Astplus.transform ~origins:(parsed.origins ~cls:s.cls ~fn:s.fn) s.tree))
          parsed.stmts)
  in
  let stmts =
    Trace.span ~id "namepath.extract" (fun () ->
        List.map
          (fun ((s : Frontend.stmt), tree) ->
            let digest = Pattern.Stmt_paths.of_tree ~limit tree in
            {
              Namer.sctx =
                {
                  Features.file = path;
                  repo;
                  file_id = -1;
                  repo_id = -1;
                  tree_hash = Tree.hash s.tree;
                  n_paths = digest.Pattern.Stmt_paths.n_paths;
                };
              line = s.line;
              digest;
            })
          plus)
  in
  Trace.count ~by:(float_of_int (List.length stmts)) "namepath.stmts";
  List.iter
    (fun (s : Namer.scanned_stmt) ->
      Trace.count ~by:(float_of_int s.digest.Pattern.Stmt_paths.n_paths) "namepath.paths")
    stmts;
  stmts

(* Candidates and checks of one statement; [on_outcome] sees every check. *)
let check_stmt ?(on_outcome = fun _ _ -> ()) store (s : Namer.scanned_stmt) =
  let cands = Pattern.Store.candidates store s.digest in
  Trace.count "pattern.stmts";
  Trace.count ~by:(float_of_int (List.length cands)) "pattern.candidates";
  List.filter_map
    (fun (p : Pattern.t) ->
      let rel = Pattern.check p s.digest in
      on_outcome p rel;
      Trace.count "pattern.checks";
      match rel with
      | Pattern.Violated info ->
          Trace.count "pattern.violations";
          Some (s, p, info)
      | _ -> None)
    cands

(* The scan's per-file dedup rule: one report per (line, offending name,
   suggestion, pattern kind), keeping the most specific condition. *)
let dedup_entries raw : Scan_cache.entry list =
  let tbl = Hashtbl.create 16 in
  List.iter
    (fun (((s : Namer.scanned_stmt), (p : Pattern.t), (info : Pattern.violation_info)) as v) ->
      let key = (s.line, info.offending_prefix, info.suggested, Namer.kind_name p.kind) in
      match Hashtbl.find_opt tbl key with
      | Some (_, (prev : Pattern.t), _)
        when List.length prev.condition >= List.length p.condition ->
          ()
      | _ -> Hashtbl.replace tbl key v)
    raw;
  Hashtbl.fold
    (fun _ ((s : Namer.scanned_stmt), (p : Pattern.t), (info : Pattern.violation_info)) acc ->
      {
        Scan_cache.e_line = s.line;
        e_prefix = info.offending_prefix;
        e_found = info.found;
        e_suggested = info.suggested;
        e_kind = Namer.kind_name p.kind;
      }
      :: acc)
    tbl []
  |> List.sort compare

(** Digest and match one file against a model; [None] when the file is
    skipped, as the program's per-file isolation would skip it. *)
let scan_source (m : Namer.model) ~path source =
  match
    let parsed = frontend m.m_lang ~use_analysis:m.m_use_analysis ~id:path source in
    name_paths ~limit:m.m_max_stmt_paths ~id:path ~repo:"" ~path parsed
  with
  | stmts ->
      let raw =
        Trace.span ~id:path "pattern.match" (fun () ->
            List.concat_map (check_stmt m.m_store) stmts)
      in
      Some (dedup_entries raw)
  | exception Out_of_memory -> raise Out_of_memory
  | exception _ ->
      Trace.count "core.skipped";
      None

let reports_of_entries ~path entries =
  List.map
    (fun (e : Scan_cache.entry) ->
      {
        Namer.r_file = path;
        r_line = e.e_line;
        r_prefix = e.e_prefix;
        r_found = e.e_found;
        r_suggested = e.e_suggested;
        r_kind = e.e_kind;
      })
    entries

(** The scan result's order: (file, line, prefix, suggested, found, kind). *)
let sort_reports reports =
  List.sort
    (fun (a : Namer.report) (b : Namer.report) ->
      compare
        (a.r_file, a.r_line, a.r_prefix, a.r_suggested, a.r_found, a.r_kind)
        (b.r_file, b.r_line, b.r_prefix, b.r_suggested, b.r_found, b.r_kind))
    reports

(** Count and MD5 of a sorted report list — the scan's output identity. *)
let reports_digest (reports : Namer.report list) =
  let buf = Buffer.create (1 lsl 16) in
  List.iter
    (fun (r : Namer.report) ->
      Printf.bprintf buf "%s\t%d\t%s\t%s\t%s\t%s\n" r.r_file r.r_line r.r_prefix r.r_found
        r.r_suggested r.r_kind)
    reports;
  (List.length reports, Digest.to_hex (Digest.string (Buffer.contents buf)))

(** [Namer.build] at [jobs = 1], layer by layer.  Returns (patterns kept,
    deduplicated violations, pattern candidates). *)
let build (cfg : Namer.config) (corpus : Corpus.t) =
  let lang = corpus.lang in
  let limit = cfg.miner.Miner.max_stmt_paths in
  let stmts =
    List.concat_map
      (fun (f : Corpus.file) ->
        let id = f.path in
        Trace.span ~id "core.file" (fun () ->
            match frontend lang ~use_analysis:cfg.use_analysis ~id f.source with
            | parsed -> name_paths ~limit ~id ~repo:f.repo ~path:f.path parsed
            | exception Out_of_memory -> raise Out_of_memory
            | exception _ ->
                Trace.count "core.skipped";
                []))
      corpus.files
  in
  let file_ids = Interner.create () and repo_ids = Interner.create () in
  List.iter
    (fun (s : Namer.scanned_stmt) ->
      s.sctx.file_id <- Interner.intern file_ids s.sctx.file;
      s.sctx.repo_id <- Interner.intern repo_ids s.sctx.repo)
    stmts;
  Namepath.Interned.freeze ();
  Fun.protect ~finally:Namepath.Interned.thaw @@ fun () ->
  let pairs =
    Trace.span "mining.pairs" (fun () ->
        let pairs = Confusing_pairs.create () in
        if corpus.commits = [] then begin
          List.iter
            (Confusing_pairs.add_pair ~count:cfg.pair_min_count pairs)
            (Namer.builtin_pairs lang);
          pairs
        end
        else begin
          List.iter
            (fun (before, after) ->
              match (Frontend.whole_tree lang before, Frontend.whole_tree lang after) with
              | Some before, Some after -> Confusing_pairs.add_commit pairs ~before ~after
              | _ -> ())
            corpus.commits;
          Confusing_pairs.prune pairs ~min_count:cfg.pair_min_count
        end)
  in
  let digests = List.map (fun (s : Namer.scanned_stmt) -> s.digest) stmts in
  let mine name kind =
    Trace.span ("mining." ^ name) (fun () ->
        Miner.mine ~config:cfg.miner ~kind ~pairs digests)
  in
  let results =
    [
      mine "consistency" `Consistency;
      mine "confusing" `Confusing;
      mine "ordering" (`Ordering cfg.ordering_vocab);
    ]
  in
  let store = Pattern.Store.create () in
  List.iter
    (fun (r : Miner.result) ->
      Pattern.Store.iter (fun p -> ignore (Pattern.Store.add store { p with id = -1 })) r.store)
    results;
  let n_candidates =
    List.fold_left (fun n (r : Miner.result) -> n + r.n_candidates) 0 results
  in
  Trace.count ~by:(float_of_int n_candidates) "mining.candidates";
  Trace.count ~by:(float_of_int (Pattern.Store.size store)) "mining.kept";
  let agg = Features.Agg.create () in
  let raw =
    Trace.span "pattern.match" (fun () ->
        List.concat_map
          (fun (s : Namer.scanned_stmt) ->
            Features.Agg.add_stmt agg s.sctx;
            check_stmt store s ~on_outcome:(fun (p : Pattern.t) rel ->
                Features.Agg.add_outcome agg s.sctx ~pattern_id:p.id rel))
          stmts)
  in
  (* the build's dedup: one violation per (file, line, offending name,
     suggestion, kind), most specific condition first *)
  let dedup = Hashtbl.create 1024 in
  List.iter
    (fun ((s : Namer.scanned_stmt), (p : Pattern.t), info) ->
      let v = { Namer.v_stmt = s; v_pattern = p; v_info = info; v_features = [||] } in
      let key =
        (s.sctx.file, s.line, info.Pattern.offending_prefix, info.suggested, Namer.kind_name p.kind)
      in
      match Hashtbl.find_opt dedup key with
      | Some (prev : Namer.violation)
        when List.length prev.v_pattern.condition >= List.length p.condition ->
          ()
      | _ -> Hashtbl.replace dedup key v)
    raw;
  let violations =
    Hashtbl.fold (fun _ v acc -> v :: acc) dedup []
    |> List.sort (fun (a : Namer.violation) (b : Namer.violation) ->
           compare
             (a.v_stmt.sctx.file, a.v_stmt.line, a.v_info.offending_prefix)
             (b.v_stmt.sctx.file, b.v_stmt.line, b.v_info.offending_prefix))
    |> Array.of_list
  in
  Trace.span "classifier.features" (fun () ->
      Array.iter
        (fun (v : Namer.violation) ->
          v.v_features <- Features.extract agg pairs v.v_stmt.sctx v.v_pattern v.v_info)
        violations);
  if cfg.use_classifier then
    Trace.span "ml.select_train" (fun () ->
        let oracle = Corpus.Oracle.of_corpus corpus in
        let is_issue (v : Namer.violation) =
          match
            Corpus.Oracle.grade oracle ~file:v.v_stmt.sctx.file ~line:v.v_stmt.line
              ~found:v.v_info.found ~suggested:v.v_info.suggested
              ~symmetric:(v.v_pattern.kind = Pattern.Consistency)
          with
          | Corpus.Oracle.True_issue _ -> true
          | _ -> false
        in
        (* the build's balanced labeled sample with simulated label noise *)
        let prng = Prng.create cfg.seed in
        let idx = Array.init (Array.length violations) Fun.id in
        Prng.shuffle prng idx;
        let half = cfg.n_labeled / 2 in
        let pos = ref [] and neg = ref [] in
        Array.iter
          (fun i ->
            let issue = is_issue violations.(i) in
            if issue && List.length !pos < half then pos := i :: !pos
            else if (not issue) && List.length !neg < half then neg := i :: !neg)
          idx;
        let chosen = !pos @ !neg in
        let x = Array.of_list (List.map (fun i -> violations.(i).v_features) chosen) in
        let y =
          Array.of_list
            (List.map
               (fun i ->
                 let label = is_issue violations.(i) in
                 if Prng.bool prng ~p:cfg.label_noise then not label else label)
               chosen)
        in
        if Array.length x >= 10 then begin
          let algo =
            match cfg.algo with
            | Some a ->
                ignore (Namer_ml.Pipeline.cross_validate ~prng ~algo:a x y);
                a
            | None -> fst (Namer_ml.Pipeline.select_model ~prng x y)
          in
          ignore (Namer_ml.Pipeline.train ~algo ~prng x y)
        end);
  (Pattern.Store.size store, Array.length violations, n_candidates)
