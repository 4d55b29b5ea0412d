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
  check_bool "distinct patterns distinct ids" true (id3 <> id1)

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
