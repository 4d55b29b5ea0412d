(* Tests for name patterns: the Figure 2(e) confusing-word pattern, the
   Example 3.8 consistency pattern, and the pattern store/index. *)

module Namepath = Namer_namepath.Namepath
module Pattern = Namer_pattern.Pattern

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_str = Alcotest.(check string)

let np = Namepath.of_string

(* Figure 2(d): the paths of the buggy statement. *)
let figure2_paths =
  List.map np
    [
      "NumArgs(2) 0 Call 0 AttributeLoad 0 NameLoad 0 NumST(1) 0 TestCase 0 self";
      "NumArgs(2) 0 Call 0 AttributeLoad 1 Attr 0 NumST(2) 0 TestCase 0 assert";
      "NumArgs(2) 0 Call 0 AttributeLoad 1 Attr 0 NumST(2) 1 TestCase 0 True";
      "NumArgs(2) 0 Call 1 AttributeLoad 0 NameLoad 0 NumST(1) 0 picture";
      "NumArgs(2) 0 Call 2 Num 0 NumST(1) 0 NUM";
    ]

(* Figure 2(e): the pattern. *)
let figure2_pattern =
  Pattern.make
    ~kind:(Pattern.Confusing_word { correct = "Equal" })
    ~condition:
      (List.map np
         [
           "NumArgs(2) 0 Call 0 AttributeLoad 0 NameLoad 0 NumST(1) 0 TestCase 0 self";
           "NumArgs(2) 0 Call 0 AttributeLoad 1 Attr 0 NumST(2) 0 TestCase 0 assert";
           "NumArgs(2) 0 Call 2 Num 0 NumST(1) 0 NUM";
         ])
    ~deduction:
      [
        Namepath.to_symbolic
          (np "NumArgs(2) 0 Call 0 AttributeLoad 1 Attr 0 NumST(2) 1 TestCase 0 True");
      ]

let test_figure2_violation () =
  let s = Pattern.Stmt_paths.of_paths figure2_paths in
  match Pattern.check figure2_pattern s with
  | Pattern.Violated info ->
      check_str "found" "True" info.Pattern.found;
      check_str "suggested fix" "Equal" info.Pattern.suggested
  | _ -> Alcotest.fail "expected a violation"

let test_figure2_satisfaction () =
  (* the corrected statement: assertEqual *)
  let fixed =
    List.map
      (fun (p : Namepath.t) ->
        if p.Namepath.end_node = Some "True" then { p with Namepath.end_node = Some "Equal" }
        else p)
      figure2_paths
  in
  let s = Pattern.Stmt_paths.of_paths fixed in
  check_bool "assertEqual satisfies" true (Pattern.check figure2_pattern s = Pattern.Satisfied)

let test_figure2_no_match () =
  (* a statement missing the NUM argument path does not match *)
  let partial = List.filteri (fun i _ -> i <> 4) figure2_paths in
  let s = Pattern.Stmt_paths.of_paths partial in
  check_bool "missing condition path" true
    (Pattern.check figure2_pattern s = Pattern.No_match)

let test_condition_end_mismatch_no_match () =
  (* same prefixes but the receiver is "other", not "self" *)
  let other =
    List.map
      (fun (p : Namepath.t) ->
        if p.Namepath.end_node = Some "self" then { p with Namepath.end_node = Some "other" }
        else p)
      figure2_paths
  in
  let s = Pattern.Stmt_paths.of_paths other in
  check_bool "condition end must match" true
    (Pattern.check figure2_pattern s = Pattern.No_match)

(* Example 3.8: consistency pattern for self.<n1> = <n2>. *)
let ex38_pattern =
  Pattern.make ~kind:Pattern.Consistency
    ~condition:
      [ np "Assign 0 AttributeStore 0 NameLoad 0 NumST(1) 0 Object 0 self" ]
    ~deduction:
      [
        Namepath.to_symbolic (np "Assign 0 AttributeStore 1 Attr 0 NumST(1) 0 name");
        Namepath.to_symbolic (np "Assign 1 NameLoad 0 NumST(1) 0 Str 0 name");
      ]

let ex38_stmt attr value =
  Pattern.Stmt_paths.of_paths
    (List.map np
       [
         "Assign 0 AttributeStore 0 NameLoad 0 NumST(1) 0 Object 0 self";
         "Assign 0 AttributeStore 1 Attr 0 NumST(1) 0 " ^ attr;
         "Assign 1 NameLoad 0 NumST(1) 0 Str 0 " ^ value;
       ])

let test_consistency_satisfied () =
  check_bool "self.name = name" true
    (Pattern.check ex38_pattern (ex38_stmt "name" "name") = Pattern.Satisfied)

let test_consistency_case_insensitive () =
  check_bool "case-folded comparison" true
    (Pattern.check ex38_pattern (ex38_stmt "Name" "name") = Pattern.Satisfied)

let test_consistency_violated () =
  match Pattern.check ex38_pattern (ex38_stmt "help" "docstring") with
  | Pattern.Violated info ->
      check_str "found (deduction-2 side)" "docstring" info.Pattern.found;
      check_str "suggested" "help" info.Pattern.suggested
  | _ -> Alcotest.fail "expected violation"

let test_consistency_requires_both_prefixes () =
  let s =
    Pattern.Stmt_paths.of_paths
      (List.map np
         [
           "Assign 0 AttributeStore 0 NameLoad 0 NumST(1) 0 Object 0 self";
           "Assign 0 AttributeStore 1 Attr 0 NumST(1) 0 name";
         ])
  in
  check_bool "missing deduction prefix" true (Pattern.check ex38_pattern s = Pattern.No_match)

(* ---------------- store & helpers ---------------- *)

let test_store_dedup () =
  let store = Pattern.Store.create () in
  let id1 = Pattern.Store.add store figure2_pattern in
  let id2 = Pattern.Store.add store figure2_pattern in
  check_int "same canonical form, same id" id1 id2;
  check_int "store size" 1 (Pattern.Store.size store);
  let id3 = Pattern.Store.add store ex38_pattern in
  check_bool "distinct patterns distinct ids" true (id3 <> id1);
  (* a loaded store: [add] deduplicates against what [of_list] put in *)
  let loaded = Pattern.Store.of_list [ ex38_pattern; figure2_pattern ] in
  check_int "of_list keeps list order" 1 (Pattern.Store.add loaded figure2_pattern);
  check_int "nothing added" 2 (Pattern.Store.size loaded)

let test_store_candidates () =
  let store = Pattern.Store.create () in
  ignore (Pattern.Store.add store figure2_pattern);
  ignore (Pattern.Store.add store ex38_pattern);
  let s = Pattern.Stmt_paths.of_paths figure2_paths in
  let cands = Pattern.Store.candidates store s in
  check_int "only the matching-deduction pattern is a candidate" 1 (List.length cands);
  check_bool "it is the figure-2 pattern" true
    ((List.hd cands).Pattern.kind = Pattern.Confusing_word { correct = "Equal" })

let test_targets_function_name () =
  check_bool "figure 2 pattern targets a callee" true
    (Pattern.targets_function_name figure2_pattern);
  check_bool "consistency on attributes does not" false
    (Pattern.targets_function_name ex38_pattern)

let test_canonical_stable () =
  let p1 =
    Pattern.make ~kind:Pattern.Consistency
      ~condition:[ np "A 0 B 0 x"; np "A 1 C 0 y" ]
      ~deduction:[ Namepath.to_symbolic (np "A 2 D 0 z") ]
  in
  let p2 =
    Pattern.make ~kind:Pattern.Consistency
      ~condition:[ np "A 1 C 0 y"; np "A 0 B 0 x" ] (* reordered *)
      ~deduction:[ Namepath.to_symbolic (np "A 2 D 0 z") ]
  in
  check_str "canonical form order-independent" (Pattern.canonical p1) (Pattern.canonical p2)

let test_epsilon_condition () =
  (* a symbolic condition path matches any end *)
  let p =
    Pattern.make
      ~kind:(Pattern.Confusing_word { correct = "Equal" })
      ~condition:
        [ Namepath.to_symbolic (np "NumArgs(2) 0 Call 2 Num 0 NumST(1) 0 NUM") ]
      ~deduction:
        [
          Namepath.to_symbolic
            (np "NumArgs(2) 0 Call 0 AttributeLoad 1 Attr 0 NumST(2) 1 TestCase 0 True");
        ]
  in
  let s = Pattern.Stmt_paths.of_paths figure2_paths in
  check_bool "ϵ condition matches" true
    (match Pattern.check p s with Pattern.Violated _ -> true | _ -> false)

let suite =
  [
    Alcotest.test_case "figure 2(e): violation" `Quick test_figure2_violation;
    Alcotest.test_case "figure 2(e): satisfaction" `Quick test_figure2_satisfaction;
    Alcotest.test_case "figure 2(e): no match" `Quick test_figure2_no_match;
    Alcotest.test_case "condition end mismatch" `Quick test_condition_end_mismatch_no_match;
    Alcotest.test_case "example 3.8: satisfied" `Quick test_consistency_satisfied;
    Alcotest.test_case "example 3.8: case-insensitive" `Quick test_consistency_case_insensitive;
    Alcotest.test_case "example 3.8: violated" `Quick test_consistency_violated;
    Alcotest.test_case "consistency needs both prefixes" `Quick
      test_consistency_requires_both_prefixes;
    Alcotest.test_case "store: dedup" `Quick test_store_dedup;
    Alcotest.test_case "store: candidate index" `Quick test_store_candidates;
    Alcotest.test_case "feature 13 helper" `Quick test_targets_function_name;
    Alcotest.test_case "canonical order-independence" `Quick test_canonical_stable;
    Alcotest.test_case "ϵ in conditions" `Quick test_epsilon_condition;
  ]

(* ---------------- ordering patterns (extension) ---------------- *)

let ordering_pattern =
  Pattern.make
    ~kind:(Pattern.Ordering { first = "width"; second = "height" })
    ~condition:[ np "NumArgs(2) 0 Call 0 AttributeLoad 1 Attr 0 NumST(1) 0 resize" ]
    ~deduction:
      [
        np "NumArgs(2) 0 Call 1 NameLoad 0 NumST(1) 0 width";
        np "NumArgs(2) 0 Call 2 NameLoad 0 NumST(1) 0 height";
      ]

let resize_stmt a b =
  Pattern.Stmt_paths.of_paths
    (List.map np
       [
         "NumArgs(2) 0 Call 0 AttributeLoad 0 NameLoad 0 NumST(1) 0 image";
         "NumArgs(2) 0 Call 0 AttributeLoad 1 Attr 0 NumST(1) 0 resize";
         "NumArgs(2) 0 Call 1 NameLoad 0 NumST(1) 0 " ^ a;
         "NumArgs(2) 0 Call 2 NameLoad 0 NumST(1) 0 " ^ b;
       ])

let test_ordering_satisfied () =
  check_bool "canonical order satisfies" true
    (Pattern.check ordering_pattern (resize_stmt "width" "height") = Pattern.Satisfied)

let test_ordering_swap_violates () =
  match Pattern.check ordering_pattern (resize_stmt "height" "width") with
  | Pattern.Violated info ->
      check_str "found" "height" info.Pattern.found;
      check_str "suggested" "width" info.Pattern.suggested
  | _ -> Alcotest.fail "expected swap violation"

let test_ordering_unrelated_no_match () =
  check_bool "other words are not this pattern's business" true
    (Pattern.check ordering_pattern (resize_stmt "size" "scale") = Pattern.No_match)

let ordering_suite =
  [
    Alcotest.test_case "ordering: satisfied" `Quick test_ordering_satisfied;
    Alcotest.test_case "ordering: swap violates" `Quick test_ordering_swap_violates;
    Alcotest.test_case "ordering: unrelated no-match" `Quick test_ordering_unrelated_no_match;
  ]

let suite = suite @ ordering_suite

(* ---------------- scan vocabulary ≡ global digest ---------------- *)

module Tree = Namer_tree.Tree
module I = Namepath.Interned

(* A random store over the paths of [trees] (extracted without a limit, so
   patterns also mention leaves past it): consistency, confusing-word and
   ordering patterns whose conditions keep or swap their ends, or go ϵ.
   Words come from the trees' own ends, their upper- and lower-case forms
   and a few strangers, so lookups hit, miss and fold. *)
let random_store ~seed trees =
  let rng = Random.State.make [| seed |] in
  let paths = Array.of_list (List.concat_map (Namepath.extract ~limit:1000) trees) in
  let words =
    Array.of_list
      (List.concat_map
         (fun (p : Namepath.t) ->
           match p.Namepath.end_node with
           | Some w -> [ w; String.uppercase_ascii w; String.lowercase_ascii w ]
           | None -> [])
         (Array.to_list paths)
      @ [ "foo"; "FOO"; "zzz" ])
  in
  let pick a = a.(Random.State.int rng (Array.length a)) in
  let store = Pattern.Store.create () in
  if Array.length paths > 0 then
    for _ = 1 to 1 + Random.State.int rng 8 do
      let cond =
        List.init (Random.State.int rng 3) (fun _ ->
            let p = pick paths in
            match Random.State.int rng 3 with
            | 0 -> p
            | 1 -> Namepath.to_symbolic p
            | _ -> { p with Namepath.end_node = Some (pick words) })
      in
      let kind, deduction =
        match Random.State.int rng 3 with
        | 0 -> (Pattern.Consistency, [ Namepath.to_symbolic (pick paths); Namepath.to_symbolic (pick paths) ])
        | 1 -> (Pattern.Confusing_word { correct = pick words }, [ pick paths ])
        | _ ->
            (Pattern.Ordering { first = pick words; second = pick words }, [ pick paths; pick paths ])
      in
      ignore (Pattern.Store.add store (Pattern.make ~kind ~condition:cond ~deduction))
    done;
  store

(* Both digests of [tree] give the same candidates and, for each, the same
   relation with the same strings. *)
let digests_agree store vocab ~limit tree =
  let g = Pattern.Stmt_paths.of_tree ~limit tree
  and v = Pattern.Stmt_paths.of_vocab vocab ~limit tree in
  let cg = Pattern.Store.candidates store g and cv = Pattern.Store.candidates store v in
  g.Pattern.Stmt_paths.n_paths = v.Pattern.Stmt_paths.n_paths
  && List.map (fun (p : Pattern.t) -> p.Pattern.id) cg
     = List.map (fun (p : Pattern.t) -> p.Pattern.id) cv
  && List.for_all (fun p -> Pattern.check p g = Pattern.check p v) cg

let trees_arb =
  QCheck.make
    ~print:(fun (limit, seed, ts) ->
      Printf.sprintf "limit %d, seed %d\n%s" limit seed
        (String.concat "\n" (List.map Tree.to_sexp ts)))
    QCheck.Gen.(
      triple (int_range 1 12) (int_bound 1_000_000)
        (list_size (int_range 1 4) Test_namepath.tree_gen))

let prop_vocab_digest_agrees =
  QCheck.Test.make ~name:"vocab digest ≡ of_tree digest" ~count:500 trees_arb
    (fun (limit, seed, trees) ->
      let store = random_store ~seed trees in
      let vocab = Pattern.Store.vocab store in
      List.for_all (digests_agree store vocab ~limit) trees)

(* The deduplicating candidate code the store used to run: bucket by first
   deduction prefix (latest pattern first), skip ids already taken. *)
let old_candidates store (s : Pattern.Stmt_paths.t) =
  let bucket pfx =
    Pattern.Store.fold
      (fun acc (p : Pattern.t) ->
        match p.Pattern.deduction with
        | d :: _ when I.prefix_id d = pfx -> p :: acc
        | _ -> acc)
      store []
  in
  let seen = Hashtbl.create 16 in
  List.concat_map
    (fun pfx ->
      List.filter
        (fun (p : Pattern.t) ->
          if Hashtbl.mem seen p.Pattern.id then false
          else begin
            Hashtbl.replace seen p.Pattern.id ();
            true
          end)
        (bucket pfx))
    (Array.to_list (Pattern.Stmt_paths.prefix_ids s))

let prop_candidates_unique =
  QCheck.Test.make ~name:"candidates: no repeats, same as the deduplicating code"
    ~count:300 trees_arb (fun (limit, seed, trees) ->
      let store = random_store ~seed trees in
      let vocab = Pattern.Store.vocab store in
      let ids l = List.map (fun (p : Pattern.t) -> p.Pattern.id) l in
      List.for_all
        (fun t ->
          List.for_all
            (fun s ->
              let c = ids (Pattern.Store.candidates store s) in
              List.length (List.sort_uniq compare c) = List.length c
              && c = ids (old_candidates store s))
            [ Pattern.Stmt_paths.of_tree ~limit t; Pattern.Stmt_paths.of_vocab vocab ~limit t ])
        trees)

let store_of patterns =
  let store = Pattern.Store.create () in
  List.iter (fun p -> ignore (Pattern.Store.add store p)) patterns;
  store

let test_vocab_unmentioned_leaves_count () =
  (* leaves 0–4 sit under prefixes no pattern mentions; they still use up
     the limit, so the pattern on leaf 12 must stay out of both digests *)
  let wide = Tree.node "R" (List.init 25 (fun i -> Tree.node "N" [ Tree.leaf (Printf.sprintf "w%d" i) ])) in
  let path i = List.nth (Namepath.extract ~limit:100 wide) i in
  let store =
    store_of
      [
        Pattern.make ~kind:Pattern.Consistency ~condition:[]
          ~deduction:[ Namepath.to_symbolic (path 5); Namepath.to_symbolic (path 9) ];
        Pattern.make ~kind:(Pattern.Confusing_word { correct = "w0" }) ~condition:[ path 6 ]
          ~deduction:[ path 12 ];
        Pattern.make ~kind:(Pattern.Confusing_word { correct = "x" }) ~condition:[] ~deduction:[ path 7 ];
      ]
  in
  let vocab = Pattern.Store.vocab store in
  check_bool "digests agree" true (digests_agree store vocab ~limit:10 wide);
  let v = Pattern.Stmt_paths.of_vocab vocab ~limit:10 wide in
  check_int "all ten leaves counted" 10 v.Pattern.Stmt_paths.n_paths;
  check_int "two candidates, not leaf 12's" 2 (List.length (Pattern.Store.candidates store v))

let test_vocab_root_leaf () =
  let leaf = Tree.leaf "solo" in
  let store =
    store_of
      [
        Pattern.make ~kind:(Pattern.Confusing_word { correct = "other" }) ~condition:[]
          ~deduction:(Namepath.extract leaf);
      ]
  in
  let vocab = Pattern.Store.vocab store in
  check_bool "digests agree" true (digests_agree store vocab ~limit:10 leaf);
  match Pattern.Store.candidates store (Pattern.Stmt_paths.of_vocab vocab leaf) with
  | [ p ] -> (
      match Pattern.check p (Pattern.Stmt_paths.of_vocab vocab leaf) with
      | Pattern.Violated info ->
          check_str "found" "solo" info.Pattern.found;
          check_str "prefix" "" info.Pattern.offending_prefix
      | _ -> Alcotest.fail "expected a violation")
  | _ -> Alcotest.fail "one candidate"

let test_vocab_case_fold () =
  (* the model mentions "foo" only; "FOO" is a statement-local end *)
  let stmt a b = Tree.node "S" [ Tree.leaf a; Tree.leaf b ] in
  let paths = Namepath.extract (stmt "foo" "bar") in
  let store =
    store_of
      [
        Pattern.make ~kind:Pattern.Consistency ~condition:[]
          ~deduction:(List.map Namepath.to_symbolic paths);
        Pattern.make ~kind:(Pattern.Confusing_word { correct = "foo" }) ~condition:[]
          ~deduction:[ List.hd paths ];
      ]
  in
  let vocab = Pattern.Store.vocab store in
  List.iter
    (fun (a, b) ->
      check_bool (a ^ "/" ^ b ^ " digests agree") true (digests_agree store vocab ~limit:10 (stmt a b)))
    [ ("FOO", "foo"); ("foo", "FOO"); ("FOO", "bar"); ("Foo", "fOO"); ("foo", "foo") ];
  let v = Pattern.Stmt_paths.of_vocab vocab (stmt "FOO" "foo") in
  check_bool "a local id lies above the compiled ones" true
    (v.Pattern.Stmt_paths.index_end.(0) > I.end_id "foo");
  let cands = Pattern.Store.candidates store v in
  check_int "two candidates" 2 (List.length cands);
  let consistency, confusing =
    List.partition (fun (p : Pattern.t) -> p.Pattern.kind = Pattern.Consistency) cands
  in
  check_bool "FOO ≡ foo up to case" true
    (Pattern.check (List.hd consistency) v = Pattern.Satisfied);
  check_bool "FOO is not the word foo" true
    (match Pattern.check (List.hd confusing) v with
    | Pattern.Violated { found = "FOO"; suggested = "foo"; _ } -> true
    | _ -> false)

let vocab_suite =
  [
    QCheck_alcotest.to_alcotest prop_vocab_digest_agrees;
    QCheck_alcotest.to_alcotest prop_candidates_unique;
    Alcotest.test_case "vocab: unmentioned leaves count toward the limit" `Quick
      test_vocab_unmentioned_leaves_count;
    Alcotest.test_case "vocab: leaf at the root" `Quick test_vocab_root_leaf;
    Alcotest.test_case "vocab: unseen end folds to a seen one" `Quick test_vocab_case_fold;
  ]

let suite = suite @ vocab_suite
