(* Tests for FP-tree mining (Algorithms 1–2, Figure 3), confusing-pair
   mining, and the end-to-end miner on constructed corpora. *)

module Namepath = Namer_namepath.Namepath
module Pattern = Namer_pattern.Pattern
module Fptree = Namer_mining.Fptree
module Miner = Namer_mining.Miner
module Confusing_pairs = Namer_mining.Confusing_pairs
module Tree = Namer_tree.Tree
module I = Namepath.Interned

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* ---------------- FP-tree (Figure 3) ---------------- *)

(* Insert the item lists behind Figure 3(a); [fold_last_nodes] must surface
   the four (condition, deduction) rows of Figure 3(b).  The tree stores
   interned item ids, so the test keeps its own label table. *)
let fig3_label = [| "NP1"; "NP2"; "NP3"; "NP4"; "NP5"; "NP6" |]
let fig3_id s = 1 + (Array.to_list fig3_label |> List.mapi (fun i l -> (l, i)) |> List.assoc s)

let build_figure3 () =
  let t = Fptree.create () in
  let ins items n =
    for _ = 1 to n do
      Fptree.insert t (List.map fig3_id items)
    done
  in
  ins [ "NP1"; "NP2" ] 33;
  ins [ "NP1"; "NP3"; "NP5" ] 15;
  ins [ "NP1"; "NP3"; "NP4" ] 14;
  ins [ "NP1"; "NP3"; "NP4"; "NP6" ] 13;
  t

let test_figure3_structure () =
  let t = build_figure3 () in
  check_int "six distinct nodes" 6 (Fptree.size t)

let test_figure3_patterns () =
  let t = build_figure3 () in
  let rows =
    Fptree.fold_last_nodes t
      ~f:(fun acc ~path_items ~support ->
        (List.map (fun i -> fig3_label.(i - 1)) path_items, support) :: acc)
      []
    |> List.sort compare
  in
  let expect =
    List.sort compare
      [
        ([ "NP1"; "NP2" ], 33);
        ([ "NP1"; "NP3"; "NP5" ], 15);
        (* NP4 carries its own insertions plus the NP6 pass-throughs *)
        ([ "NP1"; "NP3"; "NP4" ], 27);
        ([ "NP1"; "NP3"; "NP4"; "NP6" ], 13);
      ]
  in
  Alcotest.(check (list (pair (list string) int))) "figure 3(b) rows" expect rows

let test_fptree_shared_prefix () =
  let t = Fptree.create () in
  Fptree.insert t [ 1; 2 ];
  Fptree.insert t [ 1; 3 ];
  check_int "prefix shared" 3 (Fptree.size t)

let test_fptree_empty_insert () =
  let t = Fptree.create () in
  Fptree.insert t [];
  check_int "no-op" 0 (Fptree.size t)

(* ---------------- splitPaths ---------------- *)

let np = Namepath.of_string

let paths_abc =
  [ np "A 0 B 0 key"; np "A 1 C 0 value"; np "A 2 D 0 value"; np "A 3 E 0 NUM" ]

let test_split_confusing () =
  let pairs = Confusing_pairs.create () in
  Confusing_pairs.add_pair pairs ("name", "key");
  let splits = Miner.split_paths ~kind:`Confusing ~pairs paths_abc in
  (* only the path ending in the correct word "key" becomes a deduction *)
  check_int "one split" 1 (List.length splits);
  let cond, deduct = List.hd splits in
  check_int "three condition paths" 3 (List.length cond);
  check_bool "deduction ends with key" true
    ((List.hd deduct).Namepath.end_node = Some "key")

let test_split_consistency () =
  let pairs = Confusing_pairs.create () in
  let splits = Miner.split_paths ~kind:`Consistency ~pairs paths_abc in
  (* only the (value, value) pair qualifies; NUM is not a name *)
  check_int "one pair" 1 (List.length splits);
  let cond, deduct = List.hd splits in
  check_int "deduction is the symbolic pair" 2 (List.length deduct);
  check_bool "both symbolic" true (List.for_all Namepath.is_symbolic deduct);
  check_int "rest in condition" 2 (List.length cond)

let test_combinations () =
  let c = Miner.combinations ~max_subset_size:2 [ 1; 2; 3 ] in
  check_bool "contains full set" true (List.mem [ 1; 2; 3 ] c);
  check_bool "contains singletons" true (List.mem [ 1 ] c && List.mem [ 3 ] c);
  check_bool "contains pairs" true (List.mem [ 1; 2 ] c);
  check_bool "empty condition allowed" true (List.mem [] c);
  check_int "1 full + empty + 3 singles + 3 pairs" 8 (List.length c)

(* ---------------- confusing pairs ---------------- *)

let test_pairs_prune () =
  let p = Confusing_pairs.create () in
  for _ = 1 to 5 do
    Confusing_pairs.add_pair p ("True", "Equal")
  done;
  Confusing_pairs.add_pair p ("one", "off");
  let kept = Confusing_pairs.prune p ~min_count:3 in
  check_bool "frequent pair kept" true (Confusing_pairs.mem kept ("True", "Equal"));
  check_bool "rare pair dropped" false (Confusing_pairs.mem kept ("one", "off"));
  check_bool "orientation matters" false (Confusing_pairs.mem kept ("Equal", "True"));
  check_bool "correct word registry" true (Confusing_pairs.is_correct_word kept "Equal")

let test_pairs_identity_excluded () =
  let p = Confusing_pairs.create () in
  Confusing_pairs.add_pair p ("same", "same");
  check_int "identity pairs ignored" 0 (Confusing_pairs.total_pairs p)

let test_pairs_from_commit_trees () =
  let stmt name =
    Tree.node "Assign" [ Tree.node "NameStore" [ Tree.leaf name ]; Tree.node "Num" [ Tree.leaf "1" ] ]
  in
  let p = Confusing_pairs.create () in
  Confusing_pairs.add_commit p
    ~before:(Tree.node "Module" [ stmt "assertTrue" ])
    ~after:(Tree.node "Module" [ stmt "assertEqual" ]);
  check_bool "pair mined from diff" true (Confusing_pairs.mem p ("True", "Equal"))

(* ---------------- end-to-end mining ---------------- *)

(* A corpus of digests: 50 statements satisfying the idiom (callee ends
   with "Equal") and 3 deviants (callee ends with "True"). *)
let mk_stmt word extra =
  Pattern.Stmt_paths.of_paths
    (List.map np
       [
         "NumArgs(2) 0 Call 0 AttributeLoad 0 NameLoad 0 NumST(1) 0 TestCase 0 self";
         "NumArgs(2) 0 Call 0 AttributeLoad 1 Attr 0 NumST(2) 0 TestCase 0 assert";
         "NumArgs(2) 0 Call 0 AttributeLoad 1 Attr 0 NumST(2) 1 TestCase 0 " ^ word;
         "NumArgs(2) 0 Call 2 Num 0 NumST(1) 0 NUM";
         "NumArgs(2) 0 Call 1 AttributeLoad 0 NameLoad 0 NumST(1) 0 " ^ extra;
       ])

let mine_corpus_inputs () =
  let pairs = Confusing_pairs.create () in
  Confusing_pairs.add_pair ~count:10 pairs ("True", "Equal");
  let stmts =
    List.init 50 (fun i -> mk_stmt "Equal" (Printf.sprintf "var%d" i))
    @ List.init 3 (fun i -> mk_stmt "True" (Printf.sprintf "bad%d" i))
  in
  let config =
    { Miner.default_config with min_support = 10; min_path_freq = 5; max_subset_size = 2 }
  in
  (config, pairs, stmts)

let mine_corpus () =
  let config, pairs, stmts = mine_corpus_inputs () in
  (Miner.mine ~config ~kind:`Confusing ~pairs stmts, stmts)

let test_miner_end_to_end () =
  let result, stmts = mine_corpus () in
  check_bool "patterns mined" true (Pattern.Store.size result.Miner.store > 0);
  (* the buggy statements violate at least one kept pattern *)
  let buggy = List.nth stmts 51 in
  let violated =
    Pattern.Store.candidates result.Miner.store buggy
    |> List.exists (fun p ->
           match Pattern.check p buggy with Pattern.Violated _ -> true | _ -> false)
  in
  check_bool "deviant statement violates" true violated;
  (* clean statements satisfy every candidate pattern *)
  let clean = List.hd stmts in
  let ok =
    Pattern.Store.candidates result.Miner.store clean
    |> List.for_all (fun p -> Pattern.check p clean <> Pattern.No_match)
  in
  check_bool "idiomatic statement matches candidates" true ok

let test_miner_prunes_low_satisfaction () =
  (* half Equal / half True: satisfaction ratio ~0.5 < 0.8 → pattern dropped *)
  let pairs = Confusing_pairs.create () in
  Confusing_pairs.add_pair ~count:10 pairs ("True", "Equal");
  let stmts =
    List.init 25 (fun i -> mk_stmt "Equal" (Printf.sprintf "v%d" i))
    @ List.init 25 (fun i -> mk_stmt "True" (Printf.sprintf "w%d" i))
  in
  let config =
    { Miner.default_config with min_support = 10; min_path_freq = 5 }
  in
  let result = Miner.mine ~config ~kind:`Confusing ~pairs stmts in
  check_int "contested idiom pruned" 0 (Pattern.Store.size result.Miner.store)

let test_consistency_mining_end_to_end () =
  let pairs = Confusing_pairs.create () in
  let mk attr value =
    Pattern.Stmt_paths.of_paths
      (List.map np
         [
           "Assign 0 AttributeStore 0 NameLoad 0 NumST(1) 0 Object 0 self";
           "Assign 0 AttributeStore 1 Attr 0 NumST(1) 0 " ^ attr;
           "Assign 1 NameLoad 0 NumST(1) 0 " ^ value;
         ])
  in
  let stmts =
    List.init 40 (fun i -> mk (Printf.sprintf "f%d" (i mod 8)) (Printf.sprintf "f%d" (i mod 8)))
    @ [ mk "help" "docstring" ]
  in
  let config = { Miner.default_config with min_support = 10; min_path_freq = 5 } in
  let result = Miner.mine ~config ~kind:`Consistency ~pairs stmts in
  check_bool "consistency pattern mined" true (Pattern.Store.size result.Miner.store > 0);
  let bad = List.nth stmts 40 in
  let violated =
    Pattern.Store.candidates result.Miner.store bad
    |> List.exists (fun p ->
           match Pattern.check p bad with Pattern.Violated _ -> true | _ -> false)
  in
  check_bool "inconsistent statement violates" true violated

(* ---------------- pruneUncommon's anchor index ---------------- *)

(* The tallies pruneUncommon must produce, computed the direct way: every
   {!Pattern.Store.candidates} entry of every statement, fully checked.
   Returns per-pattern [(id, matches, sats, viols)] rows and the number of
   checks run. *)
let reference_tally store stmts =
  let t = Hashtbl.create 64 and checks = ref 0 in
  let bump id sat viol =
    let m, s, v = Option.value (Hashtbl.find_opt t id) ~default:(0, 0, 0) in
    Hashtbl.replace t id (m + 1, s + sat, v + viol)
  in
  List.iter
    (fun s ->
      List.iter
        (fun (p : Pattern.t) ->
          incr checks;
          match Pattern.check p s with
          | Pattern.No_match -> ()
          | Pattern.Satisfied -> bump p.Pattern.id 1 0
          | Pattern.Violated _ -> bump p.Pattern.id 0 1)
        (Pattern.Store.candidates store s))
    stmts;
  let rows =
    Hashtbl.fold (fun id (m, s, v) acc -> (id, m, s, v) :: acc) t [] |> List.sort compare
  in
  (rows, !checks)

(* A tally in the reference's rows: the candidates with a match, by id. *)
let tally_rows (t : Miner.tally) =
  List.init (Array.length t.Miner.sats) (fun id ->
      (id, t.Miner.sats.(id) + t.Miner.viols.(id), t.Miner.sats.(id), t.Miner.viols.(id)))
  |> List.filter (fun (_, m, _, _) -> m > 0)

let total_matches rows = List.fold_left (fun acc (_, m, _, _) -> acc + m) 0 rows

(* A small universe — four prefixes, four words — so random patterns match
   random statements often.  Statements draw several paths per prefix, so
   their index keeps only the first; a condition may want [wz], which no
   statement carries (anchor frequency 0). *)
let anchor_words = [| "wa"; "wb"; "wc"; "wd"; "wz" |]

let anchor_path pfx word =
  np (Printf.sprintf "Anchor 0 Slot %d Leaf 0 %s" pfx anchor_words.(word))

(* How a pattern meets the frozen table: [Known] compiles every id; the
   others compile while the table is frozen, against a string it lacks —
   a [-2] condition prefix, condition want, deduction prefix, or correct
   word. *)
type unknown = Known | Cond_prefix | Cond_want | Ded_prefix | Correct_word

type pat_desc = {
  kind : int;  (** 0 consistency, 1 confusing word, 2 ordering *)
  cond : (int * int option) list;  (** (prefix, [None] = ϵ or a word) *)
  ded : int * int;  (** deduction prefixes (the second unused by kind 1) *)
  words : int * int;  (** correct word / ordering pair *)
  unknown : unknown;
}

let pat_desc_gen =
  let open QCheck.Gen in
  let* kind = int_range 0 2 in
  let* cond =
    list_size (int_range 0 3)
      (pair (int_range 0 3) (frequency [ (1, return None); (3, map Option.some (int_range 0 4)) ]))
  in
  let* ded = pair (int_range 0 3) (int_range 0 3) in
  let* words = pair (int_range 0 3) (int_range 0 3) in
  let* unknown =
    frequency
      [
        (12, return Known); (1, return Cond_prefix); (1, return Cond_want);
        (1, return Ded_prefix); (1, return Correct_word);
      ]
  in
  return { kind; cond; ded; words; unknown }

let make_pattern d =
  let word i = anchor_words.(i) in
  let cond =
    List.map
      (fun (pfx, w) ->
        match w with
        | None -> Namepath.to_symbolic (anchor_path pfx 0)
        | Some w -> anchor_path pfx w)
      d.cond
  in
  let cond =
    match d.unknown with
    | Cond_prefix -> np "Anchor 0 Unseen 0 Leaf 0 wa" :: cond
    | Cond_want -> np "Anchor 0 Slot 0 Leaf 0 unseenword" :: cond
    | Known | Ded_prefix | Correct_word -> cond
  in
  let d1, d2 = d.ded and w1, w2 = d.words in
  let ded pfx = if d.unknown = Ded_prefix then np "Anchor 0 Unseen 1 Leaf 0 wa" else anchor_path pfx w1 in
  let kind, deduction =
    match d.kind with
    | 0 ->
        ( Pattern.Consistency,
          [ Namepath.to_symbolic (ded d1); Namepath.to_symbolic (anchor_path d2 0) ] )
    | 1 ->
        let correct = if d.unknown = Correct_word then "unseenword" else word w1 in
        (Pattern.Confusing_word { correct }, [ ded d1 ])
    | _ -> (Pattern.Ordering { first = word w1; second = word w2 }, [ ded d1; anchor_path d2 w2 ])
  in
  Pattern.make ~kind ~condition:cond ~deduction

let stmt_gen = QCheck.Gen.(list_size (int_range 1 6) (pair (int_range 0 3) (int_range 0 3)))

(* The store and statements of a random anchor case: patterns under ids
   [0 .. n-1] in [descs] order, compiled. *)
let anchor_case descs stmt_descs =
  let stmts =
    List.map
      (fun ps -> Pattern.Stmt_paths.of_paths (List.map (fun (p, w) -> anchor_path p w) ps))
      stmt_descs
  in
  (* intern the whole universe, then compile the unknown-id patterns
     while the table is frozen *)
  List.iter (fun w -> ignore (I.end_id w)) (Array.to_list anchor_words);
  List.iter (fun p -> ignore (I.prefix_id (anchor_path p 0))) [ 0; 1; 2; 3 ];
  let pats = List.map (fun d -> (d, make_pattern d)) descs in
  List.iter (fun (d, p) -> if d.unknown = Known then ignore (Pattern.ensure_compiled p)) pats;
  I.freeze ();
  Fun.protect ~finally:I.thaw (fun () ->
      List.iter (fun (_, p) -> ignore (Pattern.ensure_compiled p)) pats);
  let store = Pattern.Store.create () in
  List.iter (fun (_, p) -> ignore (Pattern.Store.add_nodedup store p)) pats;
  (store, stmts)

let anchor_case_arb =
  QCheck.(
    make
      Gen.(
        triple
          (list_size (int_range 1 25) pat_desc_gen)
          (list_size (int_range 1 30) stmt_gen)
          (int_range 0 1000)))

let prop_anchored_prune_matches_reference =
  QCheck.Test.make ~name:"anchored prune tallies = candidates + check" ~count:300
    anchor_case_arb
    (fun (descs, stmt_descs, salt) ->
      let store, stmts = anchor_case descs stmt_descs in
      let expect, _ = reference_tally store stmts in
      let agrees rank =
        let got = Miner.prune_tally ~rank store stmts in
        tally_rows got = expect && got.Miner.checks >= total_matches expect
      in
      (* all ties (the first exact item), then rankings full of ties *)
      agrees (fun _ _ -> 0)
      && agrees (fun (p : Pattern.t) i -> Hashtbl.hash (salt, p.Pattern.id, i) mod 3)
      && agrees (fun _ i -> -i))

(* Sharded over a 3-domain pool, each shard counting into arrays of its
   own, the prune gives the sequential tallies and check count. *)
let prop_pooled_prune_matches_sequential =
  QCheck.Test.make ~name:"pooled prune tallies = sequential prune tallies" ~count:100
    anchor_case_arb
    (fun (descs, stmt_descs, salt) ->
      let store, stmts = anchor_case descs stmt_descs in
      let rank (p : Pattern.t) i = Hashtbl.hash (salt, p.Pattern.id, i) mod 3 in
      let pool = Namer_parallel.Pool.create ~domains:3 () in
      let pooled =
        Fun.protect
          ~finally:(fun () -> Namer_parallel.Pool.shutdown pool)
          (fun () -> Miner.prune_tally ~pool ~rank store stmts)
      in
      pooled = Miner.prune_tally ~rank store stmts)

(* On the mining corpus: the anchored prune agrees with the reference, and
   the [mine.prune_checks] counter lies between the matches and the
   reference's candidate checks. *)
let test_prune_checks_counter () =
  let module T = Namer_telemetry.Telemetry in
  let config, pairs, stmts = mine_corpus_inputs () in
  let was = T.enabled () in
  T.reset ();
  T.set_sink T.Memory;
  let result =
    Fun.protect
      ~finally:(fun () -> T.set_sink (if was then T.Memory else T.Null))
      (fun () -> Miner.mine ~config ~kind:`Confusing ~pairs stmts)
  in
  let checks = T.counter "mine.prune_checks" in
  let cands = Miner.candidates ~config ~kind:`Confusing ~pairs stmts in
  let expect, ref_checks = reference_tally cands stmts in
  check_int "candidates = n_candidates" result.Miner.n_candidates (Pattern.Store.size cands);
  check_bool "anchored tallies = reference" true
    (tally_rows (Miner.prune_tally ~rank:(fun _ i -> i) cands stmts) = expect);
  check_bool "some matches" true (total_matches expect > 0);
  check_bool
    (Printf.sprintf "checks %d >= matches %d" checks (total_matches expect))
    true
    (checks >= total_matches expect);
  check_bool
    (Printf.sprintf "checks %d <= reference checks %d" checks ref_checks)
    true (checks <= ref_checks)

(* ---------------- one line-5 frequency pass ---------------- *)

let small_corpus () =
  Namer_corpus.Corpus.generate
    {
      (Namer_corpus.Corpus.default_config Namer_corpus.Corpus.Python) with
      Namer_corpus.Corpus.n_repos = 6;
      files_per_repo = (4, 6);
    }

let small_miner = { Miner.default_config with min_support = 5; min_path_freq = 3 }

(* The digests a build mines: every statement of a generated corpus,
   through the frontend, AST+ and name-path extraction. *)
let corpus_digests (corpus : Namer_corpus.Corpus.t) =
  let module Frontend = Namer_core.Frontend in
  List.concat_map
    (fun (f : Namer_corpus.Corpus.file) ->
      match Frontend.parse_file_opt corpus.lang ~use_analysis:true f.source with
      | None -> []
      | Some parsed ->
          List.map
            (fun (s : Frontend.stmt) ->
              Namer_namepath.Astplus.transform ~origins:(parsed.origins ~cls:s.cls ~fn:s.fn)
                s.tree
              |> Pattern.Stmt_paths.of_tree ~limit:small_miner.max_stmt_paths)
            parsed.stmts)
    corpus.files

(* [mine_kinds] counts the line-5 frequencies once for all its kinds, and
   each result is that kind's own [mine]: the same patterns under the same
   ids, candidates and condition counts. *)
let test_mine_kinds_matches_mine () =
  let digests = corpus_digests (small_corpus ()) in
  let pairs = Confusing_pairs.create () in
  List.iter
    (Confusing_pairs.add_pair ~count:10 pairs)
    (Namer_core.Namer.builtin_pairs Namer_corpus.Corpus.Python);
  let kinds = [ `Consistency; `Confusing; `Ordering [ ("width", "height"); ("x", "y") ] ] in
  let view (r : Miner.result) =
    ( Pattern.Store.fold (fun acc p -> (p.Pattern.id, Pattern.canonical p) :: acc) r.store [],
      r.n_candidates,
      r.cond_counts )
  in
  let once = Miner.mine_kinds ~config:small_miner ~kinds ~pairs digests in
  let each = List.map (fun kind -> Miner.mine ~config:small_miner ~kind ~pairs digests) kinds in
  check_bool "some patterns mined" true
    (List.exists (fun (r : Miner.result) -> Pattern.Store.size r.store > 0) once);
  check_bool "mine_kinds = one mine per kind" true
    (List.map view once = List.map view each)

(* A build runs the line-5 frequency pass once, not once per kind. *)
let test_build_counts_path_freq_once () =
  let module T = Namer_telemetry.Telemetry in
  let corpus = small_corpus () in
  let was = T.enabled () in
  T.reset ();
  T.set_sink T.Memory;
  Fun.protect
    ~finally:(fun () -> T.set_sink (if was then T.Memory else T.Null))
    (fun () ->
      ignore
        (Namer_core.Namer.build
           { Namer_core.Namer.default_config with miner = small_miner; n_labeled = 30 }
           corpus);
      let count name =
        match List.find_opt (fun (s : T.stage) -> s.T.stage = name) (T.stages ()) with
        | Some s -> s.T.s_count
        | None -> 0
      in
      check_int "mine:path-freq spans" 1 (count "mine:path-freq");
      check_int "mine:prune spans" 3 (count "mine:prune"))

(* ---------------- the anchored matcher ---------------- *)

let kind_tag (p : Pattern.t) =
  match p.Pattern.kind with
  | Pattern.Consistency -> "consistency"
  | Pattern.Confusing_word _ -> "confusing-word"
  | Pattern.Ordering _ -> "ordering"

(* What {!Pattern.Matcher.match_file} must produce, the plain way: every
   {!Pattern.Store.candidates} entry of every statement checked, in order,
   and violations deduplicated to one per (line, offending prefix,
   suggestion, kind) — the first of the longest condition.  Statements are
   [(index, line, digest)].  Returns the matches [(index, pattern id,
   satisfied)], sorted, and the surviving violations [(index, pattern id,
   info)] in the order their keys first occur. *)
let reference_match_file store stmts =
  let matches = ref [] and best = Hashtbl.create 16 and keys_rev = ref [] in
  List.iter
    (fun (i, line, s) ->
      List.iter
        (fun (p : Pattern.t) ->
          match Pattern.check p s with
          | Pattern.No_match -> ()
          | Pattern.Satisfied -> matches := (i, p.Pattern.id, true) :: !matches
          | Pattern.Violated info -> (
              matches := (i, p.Pattern.id, false) :: !matches;
              let key = (line, info.Pattern.offending_prefix, info.Pattern.suggested, kind_tag p) in
              let v = (i, p, info) in
              match Hashtbl.find_opt best key with
              | Some (_, (prev : Pattern.t), _)
                when List.length prev.Pattern.condition >= List.length p.Pattern.condition ->
                  ()
              | Some _ -> Hashtbl.replace best key v
              | None ->
                  Hashtbl.replace best key v;
                  keys_rev := key :: !keys_rev))
        (Pattern.Store.candidates store s))
    stmts;
  let viols =
    List.rev_map
      (fun k ->
        let i, (p : Pattern.t), info = Hashtbl.find best k in
        (i, p.Pattern.id, info))
      !keys_rev
  in
  (List.sort compare !matches, viols)

let anchored_match_file m stmts =
  let matches = ref [] in
  let r =
    Pattern.Matcher.match_file m
      ~digest:(fun (_, _, s) -> s)
      ~line:(fun (_, line, _) -> line)
      ~on_match:(fun (i, _, _) (p : Pattern.t) rel ->
        matches := (i, p.Pattern.id, rel = Pattern.Satisfied) :: !matches)
      stmts
  in
  let viols =
    List.map (fun ((i, _, _), (p : Pattern.t), info) -> (i, p.Pattern.id, info)) r.violations
  in
  (List.sort compare !matches, viols, r.checks)

(* The model scan's entries: what a report keeps of a violation. *)
let entries store stmts viols =
  List.map
    (fun (i, id, (info : Pattern.violation_info)) ->
      let _, line, _ = List.nth stmts i in
      ( line, info.Pattern.offending_prefix, info.Pattern.found, info.Pattern.suggested,
        kind_tag (Pattern.Store.get store id) ))
    viols
  |> List.sort compare

let prop_matcher_matches_reference =
  QCheck.Test.make ~name:"anchored matcher = candidates + check + dedup" ~count:300
    QCheck.(
      make
        Gen.(
          triple
            (list_size (int_range 1 25) pat_desc_gen)
            (list_size (int_range 1 12) (pair (int_range 0 2) stmt_gen))
            (int_range 0 1000)))
    (fun (descs, stmt_descs, salt) ->
      (* statements of one file, several to a line *)
      let stmts =
        List.mapi
          (fun i (line, ps) ->
            ( i,
              line,
              Pattern.Stmt_paths.of_paths (List.map (fun (p, w) -> anchor_path p w) ps) ))
          stmt_descs
      in
      List.iter (fun w -> ignore (I.end_id w)) (Array.to_list anchor_words);
      List.iter (fun p -> ignore (I.prefix_id (anchor_path p 0))) [ 0; 1; 2; 3 ];
      let pats = List.map (fun d -> (d, make_pattern d)) descs in
      List.iter (fun (d, p) -> if d.unknown = Known then ignore (Pattern.ensure_compiled p)) pats;
      I.freeze ();
      Fun.protect ~finally:I.thaw (fun () ->
          List.iter (fun (_, p) -> ignore (Pattern.ensure_compiled p)) pats);
      let store = Pattern.Store.create () in
      List.iter (fun (_, p) -> ignore (Pattern.Store.add_nodedup store p)) pats;
      let expect_matches, expect_viols = reference_match_file store stmts in
      let agrees m =
        let got_matches, got_viols, checks = anchored_match_file m stmts in
        got_matches = expect_matches
        && got_viols = expect_viols
        && entries store stmts got_viols = entries store stmts expect_viols
        && checks >= List.length got_matches
      in
      agrees (Pattern.Matcher.of_store store)
      && agrees (Pattern.Matcher.create ~rank:(fun _ _ -> 0) store)
      && agrees
           (Pattern.Matcher.create
              ~rank:(fun (p : Pattern.t) i -> Hashtbl.hash (salt, p.Pattern.id, i) mod 3)
              store)
      && agrees (Pattern.Matcher.create ~rank:(fun _ i -> -i) store))

(* The miner compiles its candidates from the ids of the paths it holds;
   compiling the same patterns from their text must give the same ids and
   the same answers. *)
let test_candidates_compile_from_ids () =
  let config, pairs, stmts = mine_corpus_inputs () in
  let ordering_stmts =
    List.init 12 (fun i ->
        Pattern.Stmt_paths.of_paths
          (List.map np
             [
               "NumArgs(2) 0 Call 0 AttributeLoad 1 Attr 0 NumST(1) 0 resize";
               "NumArgs(2) 0 Call 1 NameLoad 0 NumST(1) 0 "
               ^ if i = 0 then "height" else "width";
               "NumArgs(2) 0 Call 2 NameLoad 0 NumST(1) 0 "
               ^ if i = 0 then "width" else "height";
             ]))
  in
  let consistency_stmts =
    List.init 12 (fun i ->
        Pattern.Stmt_paths.of_paths
          (List.map np
             [
               "Assign 0 AttributeStore 0 NameLoad 0 NumST(1) 0 self";
               "Assign 0 AttributeStore 1 Attr 0 NumST(1) 0 limit";
               ("Assign 1 NameLoad 0 NumST(1) 0 " ^ if i = 0 then "limits" else "limit");
             ]))
  in
  let config = { config with min_path_freq = 5 } in
  List.iter
    (fun (kind, stmts) ->
      let cands = Miner.candidates ~config ~kind ~pairs stmts in
      check_bool "some candidates" true (Pattern.Store.size cands > 0);
      Pattern.Store.iter
        (fun p ->
          let q =
            Pattern.make ~kind:p.Pattern.kind ~condition:p.Pattern.condition
              ~deduction:p.Pattern.deduction
          in
          check_bool "same condition items" true
            (Pattern.condition_items p = Pattern.condition_items q);
          check_bool "same deduction prefixes" true
            (Pattern.deduction_prefixes p = Pattern.deduction_prefixes q);
          List.iter
            (fun s -> check_bool "same check" true (Pattern.check p s = Pattern.check q s))
            stmts)
        cands)
    [
      (`Confusing, stmts);
      (`Consistency, consistency_stmts);
      (`Ordering [ ("width", "height") ], ordering_stmts);
    ]

let suite =
  [
    Alcotest.test_case "figure 3(a): tree structure" `Quick test_figure3_structure;
    Alcotest.test_case "figure 3(b): generated rows" `Quick test_figure3_patterns;
    Alcotest.test_case "fp-tree: shared prefixes" `Quick test_fptree_shared_prefix;
    Alcotest.test_case "fp-tree: empty insert" `Quick test_fptree_empty_insert;
    Alcotest.test_case "splitPaths: confusing" `Quick test_split_confusing;
    Alcotest.test_case "splitPaths: consistency" `Quick test_split_consistency;
    Alcotest.test_case "combinations" `Quick test_combinations;
    Alcotest.test_case "pairs: pruning" `Quick test_pairs_prune;
    Alcotest.test_case "pairs: identity excluded" `Quick test_pairs_identity_excluded;
    Alcotest.test_case "pairs: from commit trees" `Quick test_pairs_from_commit_trees;
    Alcotest.test_case "miner: end to end (confusing)" `Quick test_miner_end_to_end;
    Alcotest.test_case "miner: satisfaction pruning" `Quick test_miner_prunes_low_satisfaction;
    Alcotest.test_case "miner: end to end (consistency)" `Quick
      test_consistency_mining_end_to_end;
    QCheck_alcotest.to_alcotest prop_anchored_prune_matches_reference;
    QCheck_alcotest.to_alcotest prop_pooled_prune_matches_sequential;
    Alcotest.test_case "miner: prune_checks counter" `Quick test_prune_checks_counter;
    Alcotest.test_case "miner: mine_kinds = one mine per kind" `Quick
      test_mine_kinds_matches_mine;
    Alcotest.test_case "build: one path-frequency pass" `Quick
      test_build_counts_path_freq_once;
    QCheck_alcotest.to_alcotest prop_matcher_matches_reference;
    Alcotest.test_case "miner: candidates compiled from ids" `Quick
      test_candidates_compile_from_ids;
  ]

(* ---------------- ordering mining (extension) ---------------- *)

let test_split_ordering () =
  let pairs = Confusing_pairs.create () in
  let paths =
    List.map np
      [
        "Call 0 B 0 resize"; "Call 1 C 0 width"; "Call 2 D 0 height";
        "Call 3 E 0 NUM";
      ]
  in
  let splits =
    Miner.split_paths ~kind:(`Ordering [ ("width", "height") ]) ~pairs paths
  in
  check_int "one ordered split" 1 (List.length splits);
  let cond, deduct = List.hd splits in
  check_int "two-path deduction" 2 (List.length deduct);
  check_int "rest in condition" 2 (List.length cond);
  check_bool "deduction concrete" true
    (List.for_all (fun d -> not (Namepath.is_symbolic d)) deduct)

let test_ordering_mining_end_to_end () =
  let pairs = Confusing_pairs.create () in
  let mk a b extra =
    Pattern.Stmt_paths.of_paths
      (List.map np
         [
           "NumArgs(2) 0 Call 0 AttributeLoad 1 Attr 0 NumST(1) 0 resize";
           "NumArgs(2) 0 Call 1 NameLoad 0 NumST(1) 0 " ^ a;
           "NumArgs(2) 0 Call 2 NameLoad 0 NumST(1) 0 " ^ b;
           "Assign 0 NameStore 0 NumST(1) 0 " ^ extra;
         ])
  in
  let stmts =
    List.init 40 (fun i -> mk "width" "height" (Printf.sprintf "v%d" i))
    @ [ mk "height" "width" "bad" ]
  in
  let config = { Miner.default_config with min_support = 10; min_path_freq = 5 } in
  let result =
    Miner.mine ~config ~kind:(`Ordering [ ("width", "height") ]) ~pairs stmts
  in
  check_bool "ordering patterns mined" true (Pattern.Store.size result.Miner.store > 0);
  let bad = List.nth stmts 40 in
  let violated =
    Pattern.Store.candidates result.Miner.store bad
    |> List.exists (fun p ->
           match Pattern.check p bad with Pattern.Violated _ -> true | _ -> false)
  in
  check_bool "swap detected" true violated

let ordering_suite =
  [
    Alcotest.test_case "splitPaths: ordering" `Quick test_split_ordering;
    Alcotest.test_case "miner: end to end (ordering)" `Quick test_ordering_mining_end_to_end;
  ]

let suite = suite @ ordering_suite
