(** Metamorphic oracles.  See the interface for the four properties. *)

module Namer = Namer_core.Namer
module Fixer = Namer_core.Fixer
module Corpus = Namer_corpus.Corpus
module Pattern = Namer_pattern.Pattern
module Confusing_pairs = Namer_mining.Confusing_pairs
module Prng = Namer_util.Prng
module Subtoken = Namer_util.Subtoken

type result = { o_name : string; o_pass : bool; o_detail : string }

let scan1 m file = Namer.scan_with_model ~jobs:1 m [ file ]

let has_report (sr : Namer.scan_result) ~line ~found ~suggested =
  Array.exists
    (fun (r : Namer.report) ->
      r.Namer.r_line = line && r.Namer.r_found = found && r.Namer.r_suggested = suggested)
    sr.Namer.sr_reports

(* ------------------------------------------------------------------ *)
(* Oracle 1: fix / re-inject                                           *)
(* ------------------------------------------------------------------ *)

let fix_reinject ~rng (m : Namer.model) files =
  let name = "fix-reinject" in
  let by_path = Hashtbl.create 64 in
  List.iter (fun (f : Corpus.file) -> Hashtbl.replace by_path f.Corpus.path f) files;
  let scan = Namer.scan_with_model ~jobs:1 m files in
  (* reports whose suggested fix the style-preserving fixer can actually
     apply, unambiguously, to the blamed line *)
  let applicable =
    Array.to_list scan.Namer.sr_reports
    |> List.filter_map (fun (r : Namer.report) ->
           match Hashtbl.find_opt by_path r.Namer.r_file with
           | None -> None
           | Some f -> (
               let fixed, outcomes =
                 Fixer.fix_source f.Corpus.source
                   [ (r.Namer.r_line, r.Namer.r_found, r.Namer.r_suggested) ]
               in
               match outcomes with
               | [ (_, _, _, Fixer.Applied _) ] when fixed <> f.Corpus.source ->
                   Some (r, f, fixed)
               | _ -> None))
  in
  if applicable = [] then
    { o_name = name; o_pass = false;
      o_detail = Printf.sprintf "no applicable report among %d"
          (Array.length scan.Namer.sr_reports) }
  else
    let tries = Prng.sample rng 3 applicable in
    let failures =
      List.filter_map
        (fun ((r : Namer.report), (f : Corpus.file), fixed) ->
          let line = r.Namer.r_line
          and found = r.Namer.r_found
          and suggested = r.Namer.r_suggested in
          let after_fix = scan1 m { f with Corpus.source = fixed } in
          let after_reinject = scan1 m f in
          if has_report after_fix ~line ~found ~suggested then
            Some (Printf.sprintf "%s:%d %s->%s survived its own fix"
                    r.Namer.r_file line found suggested)
          else if not (has_report after_reinject ~line ~found ~suggested) then
            Some (Printf.sprintf "%s:%d %s->%s not re-reported after re-injection"
                    r.Namer.r_file line found suggested)
          else None)
        tries
    in
    (match failures with
    | [] ->
        { o_name = name; o_pass = true;
          o_detail = Printf.sprintf "%d fixes applied and re-injected" (List.length tries) }
    | first :: _ -> { o_name = name; o_pass = false; o_detail = first })

(* ------------------------------------------------------------------ *)
(* Oracle 2: vocabulary-disjoint alpha-renaming                        *)
(* ------------------------------------------------------------------ *)

let keywords =
  [
    (* python *)
    "False"; "None"; "True"; "and"; "as"; "assert"; "async"; "await"; "break";
    "class"; "continue"; "def"; "del"; "elif"; "else"; "except"; "finally";
    "for"; "from"; "global"; "if"; "import"; "in"; "is"; "lambda"; "nonlocal";
    "not"; "or"; "pass"; "raise"; "return"; "try"; "while"; "with"; "yield";
    "self"; "cls"; "print"; "len"; "range"; "str"; "int"; "float"; "list";
    "dict"; "set"; "super"; "object"; "isinstance"; "type";
    (* java *)
    "abstract"; "boolean"; "byte"; "case"; "catch"; "char"; "const"; "default";
    "do"; "double"; "enum"; "extends"; "final"; "goto"; "implements";
    "instanceof"; "interface"; "long"; "native"; "new"; "null"; "package";
    "private"; "protected"; "public"; "short"; "static"; "strictfp"; "switch";
    "synchronized"; "this"; "throw"; "throws"; "transient"; "void"; "volatile";
    "String"; "Object"; "System"; "Override";
  ]

(* Every word the model could possibly be sensitive to: mined pair words,
   every word of every pattern's path texts and kind payloads, keywords.
   All lowercased subtokens — candidates are screened subtoken-wise. *)
let model_vocab (m : Namer.model) =
  let vocab = Hashtbl.create 512 in
  let add w = List.iter (fun s -> Hashtbl.replace vocab s ()) (Subtoken.split_lower w) in
  List.iter add keywords;
  List.iter
    (fun ((a, b), _) -> add a; add b)
    (Confusing_pairs.bindings m.Namer.m_pairs);
  Pattern.Store.iter
    (fun (p : Pattern.t) ->
      (match p.Pattern.kind with
      | Pattern.Consistency -> ()
      | Pattern.Confusing_word { correct } -> add correct
      | Pattern.Ordering { first; second } -> add first; add second);
      List.iter
        (fun path ->
          List.iter (fun (_, w) -> add w)
            (Mutate.ident_tokens (Pattern.Namepath.to_string path)))
        (p.Pattern.condition @ p.Pattern.deduction))
    m.Namer.m_store;
  vocab

let fresh_word = "qzfuzz"

(* The patterns live in subtoken space: [self._limit = limit] is one
   agreement family even though [_limit] and [limit] are distinct
   identifiers.  A behavior-preserving alpha-renaming therefore renames a
   {e subtoken} consistently across every identifier that carries it —
   renaming just one spelling would (correctly!) create a fresh
   inconsistency. *)
let rename_candidates vocab (f : Corpus.file) =
  if
    (* never reuse a file that already mentions the fresh word *)
    let low = String.lowercase_ascii f.Corpus.source in
    let n = String.length low and m = String.length fresh_word in
    let rec mem i = i + m <= n && (String.sub low i m = fresh_word || mem (i + 1)) in
    mem 0
  then []
  else
    Mutate.ident_tokens f.Corpus.source
    |> List.concat_map (fun (_, w) -> Subtoken.split_lower w)
    |> List.sort_uniq compare
    |> List.filter (fun s -> String.length s >= 3 && not (Hashtbl.mem vocab s))

(* Case-mirror the replacement so [replace_subtoken] keeps the
   identifier's style: [Limit] -> [Qzfuzz], [LIMIT] -> [QZFUZZ]. *)
let mirror_case part =
  if String.uppercase_ascii part = part && String.lowercase_ascii part <> part
  then String.uppercase_ascii fresh_word
  else if part <> "" && part.[0] >= 'A' && part.[0] <= 'Z' then
    String.capitalize_ascii fresh_word
  else fresh_word

let rename_word_family src ~word =
  let renames =
    Mutate.ident_tokens src |> List.map snd |> List.sort_uniq compare
    |> List.filter_map (fun ident ->
           let parts = Subtoken.split ident in
           if not (List.exists (fun p -> String.lowercase_ascii p = word) parts)
           then None
           else
             let _, renamed =
               List.fold_left
                 (fun (i, cur) p ->
                   let cur =
                     if String.lowercase_ascii p = word then
                       Subtoken.replace_subtoken cur ~index:i
                         ~with_:(mirror_case p)
                     else cur
                   in
                   (i + 1, cur))
                 (0, ident) parts
             in
             if renamed = ident then None else Some (ident, renamed))
  in
  List.fold_left
    (fun src (old_name, new_name) -> Mutate.rename_ident src ~old_name ~new_name)
    src renames

let alpha_rename ~rng (m : Namer.model) files =
  let name = "alpha-rename" in
  let vocab = model_vocab m in
  let candidates =
    List.concat_map
      (fun (f : Corpus.file) ->
        List.map (fun w -> (f, w)) (rename_candidates vocab f))
      files
  in
  if candidates = [] then
    { o_name = name; o_pass = false;
      o_detail = "no vocabulary-disjoint subtoken in the corpus" }
  else
    let tries = Prng.sample rng 3 candidates in
    let failures =
      List.filter_map
        (fun ((f : Corpus.file), w) ->
          let renamed = rename_word_family f.Corpus.source ~word:w in
          let before = Array.length (scan1 m f).Namer.sr_reports in
          let after =
            Array.length (scan1 m { f with Corpus.source = renamed }).Namer.sr_reports
          in
          if before = after then None
          else
            Some (Printf.sprintf "%s: renaming subtoken %S changed reports %d -> %d"
                    f.Corpus.path w before after))
        tries
    in
    (match failures with
    | [] ->
        { o_name = name; o_pass = true;
          o_detail = Printf.sprintf "%d renamings left counts unchanged"
              (List.length tries) }
    | first :: _ -> { o_name = name; o_pass = false; o_detail = first })

(* ------------------------------------------------------------------ *)
(* Oracle 3: shard-count / file-order permutation                      *)
(* ------------------------------------------------------------------ *)

let render (sr : Namer.scan_result) =
  Array.to_list sr.Namer.sr_reports
  |> List.map (fun (r : Namer.report) ->
         Printf.sprintf "%s:%d:%s:%s:%s:%s" r.Namer.r_file r.Namer.r_line
           r.Namer.r_prefix r.Namer.r_found r.Namer.r_suggested r.Namer.r_kind)
  |> String.concat "\n"

let permutation ~rng (m : Namer.model) files =
  let name = "permutation" in
  let shuffled =
    let a = Array.of_list files in
    Prng.shuffle rng a;
    Array.to_list a
  in
  let base = render (Namer.scan_with_model ~jobs:1 m files) in
  let permuted =
    render (Namer.scan_with_model ~jobs:4 ~cap_domains:false m shuffled)
  in
  if String.equal base permuted then
    { o_name = name; o_pass = true;
      o_detail = Printf.sprintf "%d files, jobs 1 vs 4, shuffled: byte-identical"
        (List.length files) }
  else
    { o_name = name; o_pass = false;
      o_detail = Printf.sprintf "jobs-4 shuffled scan diverged (%d vs %d bytes)"
          (String.length base) (String.length permuted) }

(* ------------------------------------------------------------------ *)
(* Oracle 4: build / scan_with_model / reference agreement             *)
(* ------------------------------------------------------------------ *)

(* One file's reports the plain way, independent of the anchored matcher
   that build and model scans share: every {!Pattern.Store.candidates}
   entry of every statement checked, then one report per (line, offending
   name, suggestion, kind), the first of the longest condition in
   statement order and candidate order. *)
let reference_reports (m : Namer.model) (f : Corpus.file) =
  match Namer.digest_for_model m f with
  | None -> []
  | Some stmts ->
      let best = Hashtbl.create 16 in
      List.iter
        (fun (s : Namer.scanned_stmt) ->
          List.iter
            (fun (p : Pattern.t) ->
              match Pattern.check p s.Namer.digest with
              | Pattern.Violated info -> (
                  let key =
                    ( s.Namer.line, info.Pattern.offending_prefix, info.Pattern.suggested,
                      Namer.kind_name p.Pattern.kind )
                  in
                  match Hashtbl.find_opt best key with
                  | Some ((prev : Pattern.t), _)
                    when List.length prev.Pattern.condition
                         >= List.length p.Pattern.condition ->
                      ()
                  | _ -> Hashtbl.replace best key (p, info))
              | _ -> ())
            (Pattern.Store.candidates m.Namer.m_store s.Namer.digest))
        stmts;
      Hashtbl.fold
        (fun (line, prefix, suggested, kind) (_, (info : Pattern.violation_info)) acc ->
          (f.Corpus.path, line, prefix, info.Pattern.found, suggested, kind) :: acc)
        best []

let model_agreement (t : Namer.t) (m : Namer.model) files =
  let name = "model-agreement" in
  let tuple_of_violation (v : Namer.violation) =
    ( v.Namer.v_stmt.Namer.sctx.Namer.Features.file,
      v.Namer.v_stmt.Namer.line,
      v.Namer.v_info.Pattern.offending_prefix,
      v.Namer.v_info.Pattern.found,
      v.Namer.v_info.Pattern.suggested,
      Namer.kind_name v.Namer.v_pattern.Pattern.kind )
  in
  let tuple_of_report (r : Namer.report) =
    ( r.Namer.r_file, r.Namer.r_line, r.Namer.r_prefix, r.Namer.r_found,
      r.Namer.r_suggested, r.Namer.r_kind )
  in
  let from_build =
    Array.to_list t.Namer.violations |> List.map tuple_of_violation
    |> List.sort compare
  in
  let from_scan =
    Namer.scan_with_model ~jobs:1 m files
    |> fun sr ->
    Array.to_list sr.Namer.sr_reports |> List.map tuple_of_report
    |> List.sort compare
  in
  let from_reference = List.concat_map (reference_reports m) files |> List.sort compare in
  let differ what expect got =
    let describe (f, l, _, found, sugg, _) = Printf.sprintf "%s:%d %s->%s" f l found sugg in
    let missing = List.filter (fun x -> not (List.mem x got)) expect in
    let extra = List.filter (fun x -> not (List.mem x expect)) got in
    let first = match missing @ extra with x :: _ -> describe x | [] -> "?" in
    { o_name = name; o_pass = false;
      o_detail = Printf.sprintf "%s %d vs scan %d reports; first diff %s"
          what (List.length expect) (List.length got) first }
  in
  if from_build <> from_scan then differ "build" from_build from_scan
  else if from_reference <> from_scan then differ "reference match" from_reference from_scan
  else
    { o_name = name; o_pass = true;
      o_detail =
        Printf.sprintf "%d reports agree (build, model scan, reference match)"
          (List.length from_build) }

(* ------------------------------------------------------------------ *)
(* Oracle 5: random corpus split → merged partials                     *)
(* ------------------------------------------------------------------ *)

let merge_split ~rng (t : Namer.t) (m : Namer.model) files ~commits =
  let name = "merge-split" in
  let k = 2 + Prng.int rng 3 in
  (* deal every file and commit into one of [k] slices, train each slice
     into a partial, merge in a shuffled order, finalize — the resulting
     model must scan the corpus byte-identically to [m] *)
  let fslices = Array.make k [] and cslices = Array.make k [] in
  List.iter
    (fun f ->
      let i = Prng.int rng k in
      fslices.(i) <- f :: fslices.(i))
    (List.rev files);
  List.iter
    (fun c ->
      let i = Prng.int rng k in
      cslices.(i) <- c :: cslices.(i))
    (List.rev commits);
  match
    let parts = Array.make k Namer.Partial.empty in
    for i = 0 to k - 1 do
      parts.(i) <-
        Namer.Partial.of_corpus t.Namer.cfg
          {
            Corpus.lang = t.Namer.lang;
            files = fslices.(i);
            injections = [];
            benigns = [];
            commits = cslices.(i);
          }
    done;
    Prng.shuffle rng parts;
    Namer.Partial.finalize t.Namer.cfg
      (Namer.Partial.merge_all (Array.to_list parts))
  with
  | exception e ->
      { o_name = name; o_pass = false;
        o_detail = Printf.sprintf "split/merge raised %s" (Printexc.to_string e) }
  | t2 ->
      let base = render (Namer.scan_with_model ~jobs:1 m files) in
      let merged =
        render (Namer.scan_with_model ~jobs:1 (Namer.model_of t2) files)
      in
      if String.equal base merged then
        { o_name = name; o_pass = true;
          o_detail =
            Printf.sprintf "%d files in %d shuffled slices: reports byte-identical"
              (List.length files) k }
      else
        { o_name = name; o_pass = false;
          o_detail =
            Printf.sprintf "merged-partial scan diverged (%d vs %d bytes)"
              (String.length base) (String.length merged) }

let run_all ~rng ~t ~model ~files ~commits =
  let r1 = Prng.split rng and r2 = Prng.split rng and r3 = Prng.split rng in
  let r4 = Prng.split rng in
  [
    fix_reinject ~rng:r1 model files;
    alpha_rename ~rng:r2 model files;
    permutation ~rng:r3 model files;
    model_agreement t model files;
    merge_split ~rng:r4 t model files ~commits;
  ]
