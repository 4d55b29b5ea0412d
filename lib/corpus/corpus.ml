(** Synthetic Big Code corpora: repositories of generated source files, the
    commit histories confusing-word pairs are mined from, and the grading
    oracle replacing the paper's manual inspection.

    Determinism: the whole corpus is a pure function of [config.seed]; every
    repo and file draws from split PRNGs, so adding files to one repo never
    changes another. *)

module Prng = Namer_util.Prng

type lang = Python | Java

let lang_name = function Python -> "Python" | Java -> "Java"
let lang_ext = function Python -> ".py" | Java -> ".java"

type file = { repo : string; path : string; source : string }

type t = {
  lang : lang;
  files : file list;
  injections : Issue.injection list;
  benigns : Issue.benign list;
  commits : (string * string) list;  (** (before, after) source pairs *)
}

type config = {
  lang : lang;
  n_repos : int;
  files_per_repo : int * int;  (** inclusive min/max *)
  issue_rate : float;
  benign_rate : float;
  n_commit_files : int;  (** history files diffed for confusing pairs *)
  seed : int;
}

let default_config lang =
  {
    lang;
    n_repos = 40;
    files_per_repo = (8, 20);
    issue_rate = 0.02;
    benign_rate = 0.05;
    n_commit_files = 150;
    seed = 42;
  }

(* ------------------------------------------------------------------ *)
(* Fix application (for commit "after" versions)                       *)
(* ------------------------------------------------------------------ *)

let is_ident_char c =
  (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || (c >= '0' && c <= '9') || c = '_'

(* Replace the first word-boundary occurrence of [needle] in [hay]. *)
let replace_word hay ~needle ~with_ =
  let n = String.length hay and m = String.length needle in
  let rec find i =
    if i + m > n then None
    else if
      String.sub hay i m = needle
      && (i = 0 || not (is_ident_char hay.[i - 1]))
      && (i + m = n || not (is_ident_char hay.[i + m]))
    then Some i
    else find (i + 1)
  in
  match find 0 with
  | Some i -> String.sub hay 0 i ^ with_ ^ String.sub hay (i + m) (n - i - m)
  | None -> hay

(** Apply the fixes of [injections] to [text] (line-targeted, word-boundary
    replacement of the wrong identifier by the fixed one). *)
let apply_fixes text (injections : Issue.injection list) =
  let lines = String.split_on_char '\n' text in
  let by_line = Hashtbl.create 8 in
  List.iter
    (fun (inj : Issue.injection) ->
      Hashtbl.replace by_line inj.line
        (inj :: Option.value (Hashtbl.find_opt by_line inj.line) ~default:[]))
    injections;
  lines
  |> List.mapi (fun i line ->
         match Hashtbl.find_opt by_line (i + 1) with
         | Some injs ->
             List.fold_left
               (fun l (inj : Issue.injection) ->
                 replace_word l ~needle:inj.Issue.wrong_ident
                   ~with_:inj.Issue.fixed_ident)
               line injs
         | None -> line)
  |> String.concat "\n"

(* ------------------------------------------------------------------ *)
(* Extra commit templates                                              *)
(*                                                                     *)
(* Renames that real histories contain but our issue catalog does not  *)
(* inject (fixed *before* the present corpus snapshot) — they seed     *)
(* confusing pairs like ⟨isfile, exists⟩ whose patterns then fire on   *)
(* benign anomalies, the paper's main false-positive source.           *)
(* ------------------------------------------------------------------ *)

let py_commit_templates =
  [
    ("self.assertTrue(os.path.isfile(path))", "self.assertTrue(os.path.exists(path))");
    ("value = lookup(name)", "value = lookup(key)");
    ("total = compute(x)", "total = compute(y)");
    ("low = series.min()", "low = series.max()");
    ("result = items[n]", "result = items[i]");
    ("result = items[k]", "result = items[i]");
    ("self.assertTrue(os.path.islink(path))", "self.assertTrue(os.path.exists(path))");
    ("handle = registry.get(key, options)", "handle = registry.get(key, kwargs)");
  ]

let java_commit_templates =
  [
    ("        sink.put(name);", "        sink.put(key);");
    ("        int low = series.min();", "        int low = series.max();");
    ("        int value = items[j];", "        int value = items[i];");
    ("        sink.put(ex);", "        sink.put(e);");
  ]

let py_commit_file ~idx (before_stmt, after_stmt) =
  let render stmt =
    Printf.sprintf
      "import os\nfrom unittest import TestCase\n\nclass TestHistory%d(TestCase):\n    def test_change_%d(self):\n        %s\n"
      idx idx stmt
  in
  (render before_stmt, render after_stmt)

let java_commit_file ~idx (before_stmt, after_stmt) =
  let render stmt =
    Printf.sprintf
      "package com.example.history;\n\npublic class History%d {\n    public void change%d() {\n%s\n    }\n}\n"
      idx idx stmt
  in
  (render before_stmt, render after_stmt)

(* ------------------------------------------------------------------ *)
(* Generation                                                          *)
(* ------------------------------------------------------------------ *)

let generate (cfg : config) : t =
  let master = Prng.create cfg.seed in
  let rates = { Py_gen.issue = cfg.issue_rate; benign = cfg.benign_rate } in
  let gen_one ~rng ~vocab ~file =
    match cfg.lang with
    | Python -> Py_gen.gen_file ~rng ~vocab ~rates ~file
    | Java -> Java_gen.gen_file ~rng ~vocab ~rates ~file
  in
  let ext = lang_ext cfg.lang in
  let files = ref [] and injections = ref [] and benigns = ref [] in
  for r = 0 to cfg.n_repos - 1 do
    let repo_rng = Prng.split master in
    let repo = Printf.sprintf "repo%03d" r in
    let vocab = Vocab.make_slice ~seed:(cfg.seed + (r * 977)) in
    let lo, hi = cfg.files_per_repo in
    let n_files = lo + Prng.int repo_rng (hi - lo + 1) in
    for f = 0 to n_files - 1 do
      let file_rng = Prng.split repo_rng in
      let path = Printf.sprintf "%s/src/file%03d%s" repo f ext in
      let em = gen_one ~rng:file_rng ~vocab ~file:path in
      files := { repo; path; source = Emitter.contents em } :: !files;
      injections := Emitter.injections em @ !injections;
      benigns := Emitter.benigns em @ !benigns
    done
  done;
  (* Commit history: dedicated files generated with a high issue rate whose
     "after" version applies the recorded fixes — these never enter the scan
     corpus, mirroring the paper's use of *past* history. *)
  let commits = ref [] in
  let history_rng = Prng.split master in
  let history_rates = { Py_gen.issue = 0.6; benign = 0.0 } in
  for c = 0 to cfg.n_commit_files - 1 do
    let rng = Prng.split history_rng in
    let vocab = Vocab.make_slice ~seed:(cfg.seed + 100_000 + (c * 131)) in
    let path = Printf.sprintf "history/file%04d%s" c ext in
    let em =
      match cfg.lang with
      | Python -> Py_gen.gen_file ~rng ~vocab ~rates:history_rates ~file:path
      | Java -> Java_gen.gen_file ~rng ~vocab ~rates:history_rates ~file:path
    in
    let before = Emitter.contents em in
    let injs = Emitter.injections em in
    if injs <> [] then commits := (before, apply_fixes before injs) :: !commits
  done;
  (* Template commits, several instances each so the pairs pass pruning. *)
  let templates =
    match cfg.lang with Python -> py_commit_templates | Java -> java_commit_templates
  in
  List.iteri
    (fun ti tpl ->
      for k = 0 to 5 do
        let mk = match cfg.lang with
          | Python -> py_commit_file
          | Java -> java_commit_file
        in
        commits := mk ~idx:((ti * 10) + k) tpl :: !commits
      done)
    templates;
  {
    lang = cfg.lang;
    files = List.rev !files;
    injections = !injections;
    benigns = !benigns;
    commits = !commits;
  }

(* ------------------------------------------------------------------ *)
(* Paper-scale streaming generation                                    *)
(* ------------------------------------------------------------------ *)

let write_scale ~lang ~seed ~files_per_repo ~n_files emit =
  let files_per_repo = max 1 files_per_repo in
  let rates = { Py_gen.issue = 0.02; benign = 0.05 } in
  let ext = lang_ext lang in
  let emitted = ref 0 and r = ref 0 in
  while !emitted < n_files do
    let repo = Printf.sprintf "repo%05d" !r in
    (* each repo draws from its own PRNG seeded by (seed, repo index) —
       independent of [n_files] and of every other repo, which is what
       makes smaller corpora prefixes of larger ones *)
    let repo_rng = Prng.create (seed + 1 + (!r * 9176)) in
    let vocab = Vocab.make_slice ~seed:(seed + (!r * 977)) in
    let f = ref 0 in
    while !f < files_per_repo && !emitted < n_files do
      let file_rng = Prng.split repo_rng in
      let path = Printf.sprintf "%s/src/file%03d%s" repo !f ext in
      let em =
        match lang with
        | Python -> Py_gen.gen_file ~rng:file_rng ~vocab ~rates ~file:path
        | Java -> Java_gen.gen_file ~rng:file_rng ~vocab ~rates ~file:path
      in
      emit ~repo ~path ~source:(Emitter.contents em);
      incr emitted;
      incr f
    done;
    incr r
  done

(* ------------------------------------------------------------------ *)
(* The grading oracle                                                  *)
(* ------------------------------------------------------------------ *)

type corpus = t

module Oracle = struct
  type verdict =
    | True_issue of Issue.category
    | False_positive
    | Known_benign  (** false positive that hit a recorded benign anomaly *)

  type t = {
    injections_at : (string * int, Issue.injection list) Hashtbl.t;
    benigns_at : (string * int, unit) Hashtbl.t;
  }

  let of_corpus (c : corpus) =
    let injections_at = Hashtbl.create 512 and benigns_at = Hashtbl.create 512 in
    List.iter
      (fun (inj : Issue.injection) ->
        let key = (inj.file, inj.line) in
        Hashtbl.replace injections_at key
          (inj :: Option.value (Hashtbl.find_opt injections_at key) ~default:[]))
      c.injections;
    List.iter
      (fun (b : Issue.benign) -> Hashtbl.replace benigns_at (b.bfile, b.bline) ())
      c.benigns;
    { injections_at; benigns_at }

  let norm = String.lowercase_ascii

  (** Grade one report.  [symmetric] relaxes the found/suggested direction —
      consistency violations are inherently bidirectional (renaming either
      name satisfies the pattern). *)
  let grade t ~file ~line ~found ~suggested ~symmetric =
    match Hashtbl.find_opt t.injections_at (file, line) with
    | Some injs ->
        let hit (inj : Issue.injection) =
          (norm inj.wrong = norm found && norm inj.expected = norm suggested)
          || symmetric
             && norm inj.wrong = norm suggested
             && norm inj.expected = norm found
        in
        (match List.find_opt hit injs with
        | Some inj -> True_issue inj.category
        | None -> False_positive)
    | None ->
        if Hashtbl.mem t.benigns_at (file, line) then Known_benign else False_positive
end
