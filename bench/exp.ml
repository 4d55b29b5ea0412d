(* Experiment implementations: one function per table/figure of the paper's
   evaluation (§5).  See DESIGN.md for the per-experiment index and
   EXPERIMENTS.md for paper-vs-measured numbers. *)

module Corpus = Namer_corpus.Corpus
module Issue = Namer_corpus.Issue
module Namer = Namer_core.Namer
module Pattern = Namer_pattern.Pattern
module Miner = Namer_mining.Miner
module Features = Namer_classifier.Features
module Confusing_pairs = Namer_mining.Confusing_pairs
module Tablefmt = Namer_util.Tablefmt
module Prng = Namer_util.Prng

let sample_seed = 123
let sample_n = 300

(* ------------------------------------------------------------------ *)
(* Corpus + system construction for one language                       *)
(* ------------------------------------------------------------------ *)

type scale = Full | Quick

type lang_run = {
  lang : Corpus.lang;
  corpus : Corpus.t;
  namer : Namer.t;  (** full system (with analyses, with classifier) *)
  namer_no_a : Namer.t;  (** analyses ablated *)
}

let corpus_config ?(scale = Full) lang =
  let n_repos, files = match scale with Full -> (60, (10, 20)) | Quick -> (40, (8, 14)) in
  (* Java files roll the issue/benign dice less often per file than Python
     ones, so its rates are higher to yield comparable violation pools *)
  let issue_rate, benign_rate =
    match lang with Corpus.Python -> (0.03, 0.045) | Corpus.Java -> (0.05, 0.08)
  in
  {
    (Corpus.default_config lang) with
    Corpus.n_repos;
    files_per_repo = files;
    issue_rate;
    benign_rate;
    n_commit_files = 150;
  }

let namer_config =
  {
    Namer.default_config with
    (* cross-validated model selection, as in §5.1 *)
    Namer.algo = None;
  }

let build_lang ?(scale = Full) lang : lang_run =
  let corpus = Corpus.generate (corpus_config ~scale lang) in
  Printf.printf "[%s] corpus: %d files, %d injected issues, %d benign anomalies\n%!"
    (Corpus.lang_name lang)
    (List.length corpus.Corpus.files)
    (List.length corpus.Corpus.injections)
    (List.length corpus.Corpus.benigns);
  let t0 = Unix.gettimeofday () in
  let namer = Namer.build namer_config corpus in
  Printf.printf "[%s] Namer built in %.1fs (%d patterns, %d violations)\n%!"
    (Corpus.lang_name lang)
    (Unix.gettimeofday () -. t0)
    (Pattern.Store.size namer.Namer.store)
    (Array.length namer.Namer.violations);
  let namer_no_a =
    Namer.build { namer_config with Namer.use_analysis = false } corpus
  in
  Printf.printf "[%s] w/o A variant built (%d violations)\n%!"
    (Corpus.lang_name lang)
    (Array.length namer_no_a.Namer.violations);
  { lang; corpus; namer; namer_no_a }

(* ------------------------------------------------------------------ *)
(* Tables 2 and 5: precision of Namer and ablation baselines           *)
(* ------------------------------------------------------------------ *)

(* One evaluation row, averaged over several supervision draws (the
   single-draw variance of a 120-sample training set is large; the paper
   smooths its classifier metrics over 30 CV splits in the same spirit). *)
let n_retrain_draws = 5

let ablation_row (t : Namer.t) ~use_classifier : Namer.outcome =
  if not use_classifier then begin
    let sampled = Namer.sample_violations t ~n:sample_n ~seed:sample_seed in
    Namer.grade_reports t sampled
  end
  else begin
    let outcomes =
      List.init n_retrain_draws (fun k ->
          let t = Namer.retrain t ~seed:(1000 + (7919 * k)) in
          let sampled = Namer.sample_violations t ~n:sample_n ~seed:sample_seed in
          Namer.grade_reports t (List.filter (Namer.classify t) sampled))
    in
    let n = List.length outcomes in
    let avg f = List.fold_left (fun a o -> a + f o) 0 outcomes / n in
    {
      Namer.n_reports = avg (fun o -> o.Namer.n_reports);
      semantic = avg (fun o -> o.Namer.semantic);
      quality = avg (fun o -> o.Namer.quality);
      false_pos = avg (fun o -> o.Namer.false_pos);
    }
  end

(** The four rows of Table 2 (Python) / Table 5 (Java). *)
let precision_table (r : lang_run) =
  [
    ("Namer", ablation_row r.namer ~use_classifier:true);
    ("w/o C", ablation_row r.namer ~use_classifier:false);
    ("w/o A", ablation_row r.namer_no_a ~use_classifier:true);
    ("w/o C & A", ablation_row r.namer_no_a ~use_classifier:false);
  ]

let print_precision_table ~caption rows =
  Tablefmt.print ~caption
    ~header:[ "Baseline"; "Report"; "Semantic"; "Quality"; "FalsePos"; "Precision" ]
    (List.map
       (fun (name, (o : Namer.outcome)) ->
         [
           name;
           string_of_int o.Namer.n_reports;
           string_of_int o.Namer.semantic;
           string_of_int o.Namer.quality;
           string_of_int o.Namer.false_pos;
           Tablefmt.pct (Namer.precision o);
         ])
       rows)

(* ------------------------------------------------------------------ *)
(* Tables 3 and 6: example reports                                     *)
(* ------------------------------------------------------------------ *)

let print_examples_table ~caption (t : Namer.t) =
  let sampled = Namer.sample_violations t ~n:500 ~seed:(sample_seed + 1) in
  let reports = List.filter (Namer.classify t) sampled in
  let pick verdict_name n =
    List.filter
      (fun v ->
        let name =
          match Namer.grade t v with
          | Corpus.Oracle.True_issue Issue.Semantic_defect -> "semantic"
          | Corpus.Oracle.True_issue (Issue.Code_quality _) -> "quality"
          | _ -> "fp"
        in
        name = verdict_name)
      reports
    |> List.filteri (fun i _ -> i < n)
  in
  let row section v =
    [ section; Namer.source_line t v; Namer.describe_fix v ]
  in
  let rows =
    List.map (row "semantic defect") (pick "semantic" 3)
    @ List.map (row "code quality") (pick "quality" 3)
    @ List.map (row "false positive") (pick "fp" 2)
  in
  Tablefmt.print ~caption
    ~header:[ "Kind"; "Reported statement"; "Suggested fix" ]
    ~align:[ Tablefmt.Left; Tablefmt.Left; Tablefmt.Left ]
    rows

(* ------------------------------------------------------------------ *)
(* Table 4: per-pattern-type precision with quality breakdown          *)
(* ------------------------------------------------------------------ *)

let quality_breakdown (t : Namer.t) (vs : Namer.violation list) =
  let counts = Hashtbl.create 8 in
  let bump k = Hashtbl.replace counts k (1 + Option.value (Hashtbl.find_opt counts k) ~default:0) in
  List.iter
    (fun v ->
      match Namer.grade t v with
      | Corpus.Oracle.True_issue Issue.Semantic_defect -> bump `Semantic
      | Corpus.Oracle.True_issue (Issue.Code_quality q) -> bump (`Quality q)
      | _ -> bump `Fp)
    vs;
  fun k -> Option.value (Hashtbl.find_opt counts k) ~default:0

let per_kind_reports (t : Namer.t) kind ~n =
  let of_kind (v : Namer.violation) =
    match (v.Namer.v_pattern.Pattern.kind, kind) with
    | Pattern.Consistency, `Consistency -> true
    | (Pattern.Confusing_word _ | Pattern.Ordering _), `Confusing -> true
    | _ -> false
  in
  Namer.sample_violations ~filter:of_kind t ~n:2000 ~seed:(sample_seed + 2)
  |> List.filter (Namer.classify t)
  |> List.filteri (fun i _ -> i < n)

let print_per_kind_table ~caption (t : Namer.t) =
  let cons = per_kind_reports t `Consistency ~n:100 in
  let conf = per_kind_reports t `Confusing ~n:100 in
  let c1 = quality_breakdown t cons and c2 = quality_breakdown t conf in
  let open Issue in
  let rows =
    [
      ("Semantic defect", `Semantic);
      ("Code quality issue", `QualityTotal);
      ("False positive", `Fp);
      ("-- confusing name", `Quality Confusing_name);
      ("-- indescriptive name", `Quality Indescriptive_name);
      ("-- inconsistent name", `Quality Inconsistent_name);
      ("-- minor issue", `Quality Minor_issue);
      ("-- typo", `Quality Typo);
    ]
  in
  let value c = function
    | `QualityTotal ->
        List.fold_left
          (fun acc q -> acc + c (`Quality q))
          0
          [ Confusing_name; Indescriptive_name; Inconsistent_name; Minor_issue; Typo ]
    | k -> c k
  in
  Tablefmt.print ~caption
    ~header:[ "Inspection outcome"; "Consistency"; "Confusing word" ]
    (List.map
       (fun (label, k) ->
         [ label; string_of_int (value c1 k); string_of_int (value c2 k) ])
       rows);
  Printf.printf "  (reports inspected: %d consistency, %d confusing-word)\n\n"
    (List.length cons) (List.length conf)

(** Report-source distribution (§5.2/§5.3: share per pattern type, overlap). *)
let print_kind_distribution (t : Namer.t) =
  let sampled = Namer.sample_violations t ~n:1000 ~seed:(sample_seed + 3) in
  let reports = List.filter (Namer.classify t) sampled in
  let key (v : Namer.violation) =
    (v.Namer.v_stmt.Namer.sctx.Features.file, v.Namer.v_stmt.Namer.line)
  in
  let cons = Hashtbl.create 64 and conf = Hashtbl.create 64 in
  List.iter
    (fun v ->
      match v.Namer.v_pattern.Pattern.kind with
      | Pattern.Consistency -> Hashtbl.replace cons (key v) ()
      | Pattern.Confusing_word _ | Pattern.Ordering _ -> Hashtbl.replace conf (key v) ())
    reports;
  let locations = Hashtbl.create 64 in
  List.iter (fun v -> Hashtbl.replace locations (key v) ()) reports;
  let n_loc = max 1 (Hashtbl.length locations) in
  let both =
    Hashtbl.fold (fun k () acc -> if Hashtbl.mem conf k then acc + 1 else acc) cons 0
  in
  Printf.printf
    "report distribution: %s from consistency patterns, %s from confusing-word patterns, %s detected by both\n\n"
    (Tablefmt.pct (float_of_int (Hashtbl.length cons) /. float_of_int n_loc))
    (Tablefmt.pct (float_of_int (Hashtbl.length conf) /. float_of_int n_loc))
    (Tablefmt.pct (float_of_int both /. float_of_int n_loc))

(* ------------------------------------------------------------------ *)
(* Mining / classifier statistics (§5.2, §5.3)                          *)
(* ------------------------------------------------------------------ *)

let print_stats (r : lang_run) =
  let t = r.namer in
  Printf.printf "mining statistics (%s):\n" (Corpus.lang_name r.lang);
  Printf.printf "  name patterns mined: %d (from %d candidates)\n"
    (Pattern.Store.size t.Namer.store)
    t.Namer.n_candidates;
  Printf.printf "  confusing word pairs: %d\n" (Confusing_pairs.total_pairs t.Namer.pairs);
  Printf.printf "  statements scanned: %d\n" t.Namer.n_stmts;
  Printf.printf "  violations triggered: %d\n" (Array.length t.Namer.violations);
  Printf.printf "  files with ≥1 violation: %d of %d (%s)\n" t.Namer.n_files_violating
    t.Namer.n_files
    (Tablefmt.pct (float_of_int t.Namer.n_files_violating /. float_of_int t.Namer.n_files));
  Printf.printf "  repos with ≥1 violation: %d of %d (%s)\n" t.Namer.n_repos_violating
    t.Namer.n_repos
    (Tablefmt.pct (float_of_int t.Namer.n_repos_violating /. float_of_int t.Namer.n_repos));
  Printf.printf "  classifier cross-validation (30×, 80/20 splits):\n";
  List.iter
    (fun (algo, (r : Namer_ml.Pipeline.cv_report)) ->
      Printf.printf "    %-7s acc=%s precision=%s recall=%s f1=%s\n"
        (Namer_ml.Pipeline.algo_name algo)
        (Tablefmt.pct r.Namer_ml.Pipeline.accuracy)
        (Tablefmt.pct r.Namer_ml.Pipeline.precision)
        (Tablefmt.pct r.Namer_ml.Pipeline.recall)
        (Tablefmt.pct r.Namer_ml.Pipeline.f1))
    t.Namer.cv_reports;
  print_newline ()

(* ------------------------------------------------------------------ *)
(* Table 9: classifier feature weights                                 *)
(* ------------------------------------------------------------------ *)

let print_table9 (py : lang_run) (java : lang_run) =
  let wp = Namer.feature_weights py.namer and wj = Namer.feature_weights java.namer in
  if Array.length wp = 0 || Array.length wj = 0 then
    print_endline "table 9 unavailable (classifier disabled)"
  else begin
    let avg i = (wp.(i) +. wj.(i)) /. 2.0 in
    let f x = Printf.sprintf "%+.3f" x in
    Tablefmt.print
      ~caption:
        "Table 9: feature weights of the learned classifier (averaged over Python and Java)"
      ~header:[ "Feature"; "File level"; "Repo level"; "Entire dataset" ]
      [
        [ "Identical statement"; f (avg 1); f (avg 2); "-" ];
        [ "Satisfaction rate"; f (avg 3); f (avg 4); f (avg 5) ];
        [ "Violation count"; f (avg 6); f (avg 7); f (avg 8) ];
        [ "Satisfaction count"; f (avg 9); f (avg 10); f (avg 11) ];
      ];
    print_endline
      "  (paper's observation: the same feature family can carry opposite signs at\n\
      \   different levels — compare the file/repo columns with the dataset column)";
    print_newline ()
  end

(* ------------------------------------------------------------------ *)
(* Tables 10 and 11: deep-learning baseline comparison                 *)
(* ------------------------------------------------------------------ *)

let baselines_table (r : lang_run) ~(namer_outcome : Namer.outcome) =
  let module B = Namer_baselines.Pipeline in
  let module S = Namer_baselines.Sample in
  let prng = Prng.create 2718 in
  let samples = S.harvest ~prng ~max_samples:6000 r.corpus in
  let n = List.length samples in
  let n_train = min 3000 (2 * n / 3) in
  let train = List.filteri (fun i _ -> i < n_train) samples in
  let held_out = List.filteri (fun i _ -> i >= n_train) samples in
  Printf.printf "[%s] baselines: %d samples (%d train, %d held out)\n%!"
    (Corpus.lang_name r.lang) n n_train (List.length held_out);
  let oracle = Corpus.Oracle.of_corpus r.corpus in
  (* the paper tunes confidence so baselines report ~5× fewer than Namer *)
  let budget = max 10 (namer_outcome.Namer.n_reports / 5) in
  List.map
    (fun which ->
      let t0 = Unix.gettimeofday () in
      let m = B.train ~which ~prng ~epochs:2 train in
      let acc = B.synthetic_accuracy ~prng m held_out in
      Printf.printf "  %s: trained %.0fs; synthetic classification=%s repair=%s\n%!"
        m.B.model_name
        (Unix.gettimeofday () -. t0)
        (Tablefmt.pct acc.B.classification)
        (Tablefmt.pct acc.B.repair);
      let reports = B.scan m samples |> List.filteri (fun i _ -> i < budget) in
      let sem, qual, fp = B.grade_reports oracle reports in
      (m.B.model_name, acc, sem, qual, fp))
    [ `Ggnn; `Great ]

let print_baselines_table ~caption rows ~(namer_outcome : Namer.outcome) =
  let module B = Namer_baselines.Pipeline in
  let baseline_rows =
    List.map
      (fun (name, (_ : B.synthetic_accuracy), sem, qual, fp) ->
        let total = sem + qual + fp in
        [
          name;
          string_of_int sem;
          string_of_int qual;
          string_of_int fp;
          Tablefmt.pct
            (if total = 0 then 0.0 else float_of_int (sem + qual) /. float_of_int total);
        ])
      rows
  in
  let namer_row =
    [
      "Namer";
      string_of_int namer_outcome.Namer.semantic;
      string_of_int namer_outcome.Namer.quality;
      string_of_int namer_outcome.Namer.false_pos;
      Tablefmt.pct (Namer.precision namer_outcome);
    ]
  in
  Tablefmt.print ~caption
    ~header:[ "System"; "Semantic"; "Quality"; "FalsePos"; "Precision" ]
    (baseline_rows @ [ namer_row ])

(* ------------------------------------------------------------------ *)
(* Figure 3: the FP-tree mining example                                *)
(* ------------------------------------------------------------------ *)

let print_figure3 () =
  let module Fptree = Namer_mining.Fptree in
  let t = Fptree.create () in
  (* the tree holds interned ids; render id [i] as "NP<i>" for the table *)
  let label i = Printf.sprintf "NP%d" i in
  let ins items n =
    let items = Array.of_list items in
    for _ = 1 to n do
      Fptree.insert t items (Array.length items)
    done
  in
  ins [ 1; 2 ] 33;
  ins [ 1; 3; 5 ] 15;
  ins [ 1; 3; 4 ] 14;
  ins [ 1; 3; 4; 6 ] 13;
  let rows =
    Fptree.fold_last_nodes t
      ~f:(fun acc ~path_items ~support ->
        let rev = List.rev path_items in
        let deduction = List.hd rev and cond = List.rev (List.tl rev) in
        [ String.concat ", " (List.map label cond); label deduction; string_of_int support ]
        :: acc)
      []
    |> List.sort compare
  in
  Tablefmt.print
    ~caption:"Figure 3(b): name patterns extracted from the Figure 3(a) FP-tree"
    ~header:[ "Condition"; "Deduction"; "Count" ]
    rows;
  print_endline
    "  (counts follow standard FP-tree semantics — prefixes accumulate pass-through\n\
    \   insertions, hence NP4's 27 vs the paper's illustrative 14; see EXPERIMENTS.md)";
  print_newline ()

(* ------------------------------------------------------------------ *)
(* Figure 2: end-to-end detection of the running example               *)
(* ------------------------------------------------------------------ *)

let figure2_file =
  "import os\nfrom unittest import TestCase\n\nclass TestPicture(TestCase):\n    def test_angle_picture(self):\n        rotated_picture_name = \"IMG_2259.jpg\"\n        picture = self.slide.pictures\n        self.assertTrue(picture.rotate_angle, 90)\n"

let print_figure2 (py : lang_run) =
  let parsed =
    Namer_core.Frontend.parse_file Corpus.Python ~use_analysis:true figure2_file
  in
  let detected = ref None in
  List.iter
    (fun (s : Namer_core.Frontend.stmt) ->
      let origins =
        parsed.Namer_core.Frontend.origins ~cls:s.Namer_core.Frontend.cls
          ~fn:s.Namer_core.Frontend.fn
      in
      let plus = Namer_namepath.Astplus.transform ~origins s.Namer_core.Frontend.tree in
      let digest = Pattern.Stmt_paths.of_tree plus in
      Pattern.Store.candidates py.namer.Namer.store digest
      |> List.iter (fun p ->
             match Pattern.check p digest with
             | Pattern.Violated info
               when info.Pattern.found = "True" && info.Pattern.suggested = "Equal" ->
                 detected := Some p
             | _ -> ()))
    parsed.Namer_core.Frontend.stmts;
  (match !detected with
  | Some _ ->
      print_endline
        "Figure 2: the assertTrue(picture.rotate_angle, 90) bug is detected by the\n\
         mined patterns with suggested fix True → Equal (assertTrue → assertEqual).  ✓"
  | None ->
      print_endline "Figure 2: NOT DETECTED — mined pattern set missing the idiom!  ✗");
  print_newline ()

(* ------------------------------------------------------------------ *)
(* Tables 7 and 8: the (simulated) user study                          *)
(* ------------------------------------------------------------------ *)

let print_userstudy (py : lang_run) =
  let module U = Namer_userstudy.Userstudy in
  let t = py.namer in
  (* Table 7: one classifier-accepted report per quality category. *)
  let sampled = Namer.sample_violations t ~n:2000 ~seed:(sample_seed + 4) in
  let reports = List.filter (Namer.classify t) sampled in
  let example_for cat =
    List.find_opt
      (fun v ->
        match Namer.grade t v with
        | Corpus.Oracle.True_issue (Issue.Code_quality q) -> q = cat
        | _ -> false)
      reports
  in
  let rows =
    List.filter_map
      (fun cat ->
        match example_for cat with
        | Some v ->
            Some
              [
                Issue.category_name (Issue.Code_quality cat);
                Namer.source_line t v;
                Namer.describe_fix v;
              ]
        | None ->
            Some [ Issue.category_name (Issue.Code_quality cat); "(no report drawn)"; "-" ])
      U.categories
  in
  Tablefmt.print ~caption:"Table 7: code quality issues selected for the user study"
    ~header:[ "Issue category"; "Original code"; "Detected issue & fix" ]
    ~align:[ Tablefmt.Left; Tablefmt.Left; Tablefmt.Left ]
    rows;
  (* Table 8: the simulated seven-developer panel. *)
  let rows =
    List.mapi
      (fun i cat ->
        let tally = U.run ~seed:(9000 + i) cat in
        [
          Issue.category_name (Issue.Code_quality cat);
          string_of_int tally.U.not_accepted;
          string_of_int tally.U.with_ide;
          string_of_int tally.U.with_pr;
          string_of_int tally.U.manually;
        ])
      U.categories
  in
  Tablefmt.print
    ~caption:
      "Table 8: simulated developer responses (archetype panel; see DESIGN.md §1)"
    ~header:[ "Issue category"; "NotAccepted"; "IDE plugin"; "Pull request"; "Fix manually" ]
    rows;
  print_newline ()

(* ------------------------------------------------------------------ *)
(* Extra ablations (DESIGN.md §4)                                      *)
(* ------------------------------------------------------------------ *)

(** Feature-level ablation supporting §5.5's "multi-level features matter":
    cross-validate the classifier with the repo-level and/or dataset-level
    copies of features 2–12 zeroed out. *)
let print_feature_ablation (r : lang_run) =
  let t = r.namer in
  let prng = Prng.create 515 in
  (* balanced labeled set, as in training *)
  let labeled =
    Array.to_list t.Namer.violations
    |> List.map (fun v ->
           ( v.Namer.v_features,
             match Namer.grade t v with
             | Corpus.Oracle.True_issue _ -> true
             | _ -> false ))
  in
  let pos = List.filter snd labeled and neg = List.filter (fun (_, l) -> not l) labeled in
  let n = min 150 (min (List.length pos) (List.length neg)) in
  let take k l = List.filteri (fun i _ -> i < k) l in
  let chosen = take n pos @ take n neg in
  let x = Array.of_list (List.map fst chosen) in
  let y = Array.of_list (List.map snd chosen) in
  (* feature index groups (0-based): repo level = {2,4,7,10}, dataset level =
     {5,8,11} *)
  let mask drop row = Array.mapi (fun i v -> if List.mem i drop then 0.0 else v) row in
  let cv drop =
    let x' = Array.map (mask drop) x in
    (Namer_ml.Pipeline.cross_validate ~repeats:15 ~prng ~algo:Namer_ml.Pipeline.Svm x' y)
      .Namer_ml.Pipeline.accuracy
  in
  Tablefmt.print
    ~caption:
      (Printf.sprintf
         "Feature-level ablation (%s): SVM cross-validation accuracy"
         (Corpus.lang_name r.lang))
    ~header:[ "feature set"; "CV accuracy" ]
    [
      [ "all 17 features"; Tablefmt.pct (cv []) ];
      [ "w/o dataset-level copies"; Tablefmt.pct (cv [ 5; 8; 11 ]) ];
      [ "w/o repo-level copies"; Tablefmt.pct (cv [ 2; 4; 7; 10 ]) ];
      [ "file-level only"; Tablefmt.pct (cv [ 2; 4; 5; 7; 8; 10; 11 ]) ];
    ];
  print_newline ()

(** Mining-threshold sweep (min support × satisfaction ratio): pattern
    yield and raw-violation precision, on a small Python corpus. *)
let print_mining_sweep () =
  let corpus =
    Corpus.generate
      {
        (corpus_config ~scale:Quick Corpus.Python) with
        Corpus.n_repos = 25;
        files_per_repo = (8, 12);
      }
  in
  let rows =
    List.concat_map
      (fun min_support ->
        List.map
          (fun ratio ->
            let cfg =
              {
                namer_config with
                Namer.use_classifier = false;
                miner =
                  {
                    Miner.default_config with
                    min_support;
                    min_satisfaction_ratio = ratio;
                  };
              }
            in
            let t = Namer.build cfg corpus in
            let o =
              Namer.grade_reports t
                (Namer.sample_violations t ~n:400 ~seed:sample_seed)
            in
            [
              string_of_int min_support;
              Printf.sprintf "%.2f" ratio;
              string_of_int (Pattern.Store.size t.Namer.store);
              string_of_int (Array.length t.Namer.violations);
              Tablefmt.pct (Namer.precision o);
            ])
          [ 0.7; 0.8; 0.9 ])
      [ 10; 25; 50 ]
  in
  Tablefmt.print
    ~caption:
      "Mining-threshold sweep (Python, small corpus): raw-violation precision \
       (the paper uses support ≥ 100-at-GitHub-scale and ratio 0.8)"
    ~header:[ "min support"; "sat ratio"; "patterns"; "violations"; "w/o C precision" ]
    rows;
  print_newline ()
