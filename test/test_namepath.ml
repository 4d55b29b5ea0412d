(* Tests for the AST+ transformation and the name-path abstraction,
   anchored on the paper's Figure 2 and Examples 3.3/3.5. *)

module Tree = Namer_tree.Tree
module Astplus = Namer_namepath.Astplus
module Namepath = Namer_namepath.Namepath
module Origins = Namer_namepath.Origins

let check_str = Alcotest.(check string)
let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let figure2_stmt () =
  (* self.assertTrue(picture.rotate_angle, 90) *)
  Tree.node "Call"
    [
      Tree.node "AttributeLoad"
        [
          Tree.node "NameLoad" [ Tree.leaf "self" ];
          Tree.node "Attr" [ Tree.leaf "assertTrue" ];
        ];
      Tree.node "AttributeLoad"
        [
          Tree.node "NameLoad" [ Tree.leaf "picture" ];
          Tree.node "Attr" [ Tree.leaf "rotate_angle" ];
        ];
      Tree.node "Num" [ Tree.leaf "90" ];
    ]

let figure2_origins =
  Origins.of_alists ~vars:[ ("self", "TestCase") ] ()

let figure2_plus () = Astplus.transform ~origins:figure2_origins (figure2_stmt ())

let test_figure2_astplus () =
  check_str "figure 2(c)"
    "(NumArgs(2) (Call (AttributeLoad (NameLoad (NumST(1) (TestCase self))) (Attr (NumST(2) (TestCase assert) (TestCase True)))) (AttributeLoad (NameLoad (NumST(1) picture)) (Attr (NumST(2) rotate angle))) (Num (NumST(1) NUM))))"
    (Tree.to_sexp (figure2_plus ()))

let test_figure2_name_paths () =
  let paths = Namepath.extract (figure2_plus ()) |> List.map Namepath.to_string in
  let expect =
    [
      "NumArgs(2) 0 Call 0 AttributeLoad 0 NameLoad 0 NumST(1) 0 TestCase 0 self";
      "NumArgs(2) 0 Call 0 AttributeLoad 1 Attr 0 NumST(2) 0 TestCase 0 assert";
      "NumArgs(2) 0 Call 0 AttributeLoad 1 Attr 0 NumST(2) 1 TestCase 0 True";
      "NumArgs(2) 0 Call 1 AttributeLoad 0 NameLoad 0 NumST(1) 0 picture";
      "NumArgs(2) 0 Call 1 AttributeLoad 1 Attr 0 NumST(2) 0 rotate";
      "NumArgs(2) 0 Call 1 AttributeLoad 1 Attr 0 NumST(2) 1 angle";
      "NumArgs(2) 0 Call 2 Num 0 NumST(1) 0 NUM";
    ]
  in
  Alcotest.(check (list string)) "figure 2(d)" expect paths

let test_no_analysis_undecorated () =
  let plus = Astplus.transform ~origins:Origins.none (figure2_stmt ()) in
  check_str "w/o A: no origin nodes"
    "(NumArgs(2) (Call (AttributeLoad (NameLoad (NumST(1) self)) (Attr (NumST(2) assert True))) (AttributeLoad (NameLoad (NumST(1) picture)) (Attr (NumST(2) rotate angle))) (Num (NumST(1) NUM))))"
    (Tree.to_sexp plus)

let test_literal_abstraction () =
  let t = Tree.node "Assign" [ Tree.node "NameStore" [ Tree.leaf "x" ]; Tree.node "Str" [ Tree.leaf "hello world" ] ] in
  let plus = Astplus.transform ~origins:Origins.none t in
  check_str "strings become STR" "(Assign (NameStore (NumST(1) x)) (Str (NumST(1) STR)))"
    (Tree.to_sexp plus)

let test_numargs_on_def () =
  let t =
    Tree.node "FunctionDef"
      [
        Tree.node "FuncName" [ Tree.leaf "f" ];
        Tree.node "NameParam" [ Tree.leaf "self" ];
        Tree.node "DoubleStarParam" [ Tree.leaf "kwargs" ];
      ]
  in
  let plus = Astplus.transform ~origins:Origins.none t in
  check_bool "def arity counted" true (plus.Tree.value = "NumArgs(2)")

let test_value_origin_decoration () =
  (* Example 3.8's RHS: a variable of Str origin *)
  let t =
    Tree.node "Assign"
      [
        Tree.node "AttributeStore"
          [ Tree.node "NameLoad" [ Tree.leaf "self" ]; Tree.node "Attr" [ Tree.leaf "name" ] ];
        Tree.node "NameLoad" [ Tree.leaf "title" ];
      ]
  in
  let origins = Origins.of_alists ~vars:[ ("title", "Str"); ("self", "Object") ] () in
  let plus = Astplus.transform ~origins t in
  check_str "store side undecorated, value side Str-decorated"
    "(Assign (AttributeStore (NameLoad (NumST(1) (Object self))) (Attr (NumST(1) name))) (NameLoad (NumST(1) (Str title))))"
    (Tree.to_sexp plus)

let test_expr_origin () =
  let o = Origins.of_alists ~vars:[ ("np", "numpy") ] ~calls:[ ("Picture", "Picture") ] () in
  let name_load v = Tree.node "NameLoad" [ Tree.leaf v ] in
  check_bool "var" true (Astplus.expr_origin o (name_load "np") = Some "numpy");
  check_bool "literal" true
    (Astplus.expr_origin o (Tree.node "Num" [ Tree.leaf "1" ]) = Some "Num");
  check_bool "call via callee" true
    (Astplus.expr_origin o (Tree.node "Call" [ name_load "Picture" ]) = Some "Picture");
  check_bool "new" true
    (Astplus.expr_origin o
       (Tree.node "New" [ Tree.node "TypeRef" [ Tree.leaf "Intent" ] ])
    = Some "Intent")

(* ---------------- relational operators (Examples 3.3 / 3.5) -------- *)

let np1 =
  Namepath.of_string
    "NumArgs(2) 0 Call 0 AttributeLoad 1 Attr 0 NumST(2) 1 TestCase 0 True"

let np2 =
  Namepath.of_string
    "NumArgs(2) 0 Call 0 AttributeLoad 1 Attr 0 NumST(2) 1 TestCase 0 Equal"

let np3 = Namepath.to_symbolic np1

let test_example_3_5 () =
  check_bool "np1 ∼ np2" true (Namepath.same_prefix np1 np2);
  check_bool "np1 = np2 fails" false (Namepath.equal np1 np2);
  check_bool "np1 ∼ np3" true (Namepath.same_prefix np1 np3);
  check_bool "np1 = np3 (ϵ matches)" true (Namepath.equal np1 np3)

let test_round_trip () =
  let s = Namepath.to_string np1 in
  check_str "to/of string round trip" s (Namepath.to_string (Namepath.of_string s));
  let sym = Namepath.to_string np3 in
  check_str "symbolic round trip" sym (Namepath.to_string (Namepath.of_string sym))

let test_extract_limit () =
  let wide =
    Tree.node "Call" (List.init 20 (fun i -> Tree.node "NameLoad" [ Tree.leaf (Printf.sprintf "v%d" i) ]))
  in
  check_int "limit respected" 10 (List.length (Namepath.extract ~limit:10 wide));
  check_int "custom limit" 3 (List.length (Namepath.extract ~limit:3 wide))

let test_extract_distinct_prefixes () =
  let paths = Namepath.extract (figure2_plus ()) in
  let keys = List.map Namepath.prefix_key paths in
  check_int "prefixes pairwise distinct" (List.length keys)
    (List.length (List.sort_uniq compare keys))

let test_extract_all_concrete () =
  let paths = Namepath.extract (figure2_plus ()) in
  check_bool "all concrete" true (List.for_all (fun p -> not (Namepath.is_symbolic p)) paths)

let prop_extract_leaf_count =
  QCheck.Test.make ~name:"namepath: ≤ min(leaves, limit) paths" ~count:100
    (QCheck.int_range 1 15)
    (fun n ->
      let t = Tree.node "R" (List.init n (fun i -> Tree.leaf (string_of_int (i mod 3)))) in
      List.length (Namepath.extract ~limit:10 t) <= min n 10)

(* ---------------- serialization and interning properties ------------- *)

(* Random well-formed paths: step values / end subtokens are space-free
   tokens (the only well-formedness [to_string] requires). *)
let path_gen =
  let open QCheck.Gen in
  let token =
    oneofl [ "Call"; "Attr"; "NameLoad"; "NumST(1)"; "NumArgs(2)"; "self"; "rotate"; "NUM" ]
  in
  let step = map2 (fun value index -> { Namepath.value; index }) token (int_range 0 3) in
  map2
    (fun prefix end_node -> { Namepath.prefix; end_node })
    (list_size (int_range 1 6) step)
    (oneof [ return None; map Option.some token ])

let path_arb = QCheck.make ~print:Namepath.to_string path_gen

let prop_of_string_round_trip =
  QCheck.Test.make ~name:"namepath: of_string ∘ to_string = id" ~count:300 path_arb
    (fun p -> Namepath.of_string (Namepath.to_string p) = p)

let prop_interned_pid_equality =
  QCheck.Test.make ~name:"interned: pid equality ⟺ text equality" ~count:100
    QCheck.(pair path_arb path_arb)
    (fun (a, b) ->
      let tb = Namepath.Interned.create_table () in
      let ia = Namepath.Interned.of_path ~table:tb a
      and ib = Namepath.Interned.of_path ~table:tb b in
      (ia.Namepath.Interned.pid = ib.Namepath.Interned.pid)
      = (Namepath.to_string a = Namepath.to_string b)
      && (ia.Namepath.Interned.prefix = ib.Namepath.Interned.prefix)
         = (Namepath.prefix_key a = Namepath.prefix_key b))

let prop_interned_sym_sharing =
  QCheck.Test.make ~name:"interned: symbolic form shares ids" ~count:100 path_arb
    (fun p ->
      let tb = Namepath.Interned.create_table () in
      let ip = Namepath.Interned.of_path ~table:tb p in
      let is_ = Namepath.Interned.of_path ~table:tb (Namepath.to_symbolic p) in
      ip.Namepath.Interned.sym = is_.Namepath.Interned.pid
      && ip.Namepath.Interned.prefix = is_.Namepath.Interned.prefix
      && is_.Namepath.Interned.end_ = -1
      && (Namepath.is_symbolic p = (ip.Namepath.Interned.end_ = -1)))

(* ---------------- fused extraction ≡ extract + of_paths ------------- *)

module I = Namepath.Interned

(* Random AST+-shaped trees over a small vocabulary, so prefixes repeat;
   ["a 0 b"] and ["0 b"] make distinct step lists render to the same text
   (["a 0 b 0"] is both [a 0; b 0] and [a 0 b 0]). *)
let tree_gen =
  let open QCheck.Gen in
  let value = oneofl [ "Call"; "Attr"; "a"; "b"; "0 b"; "a 0 b"; "NumST(2)"; "x"; "" ] in
  sized_size (int_range 0 4)
  @@ fix (fun self n ->
         if n = 0 then map Tree.leaf value
         else
           frequency
             [
               (1, map Tree.leaf value);
               (4, map2 Tree.node value (list_size (int_range 1 5) (self (n - 1))));
             ])

let same_interned (x : I.t) (y : I.t) =
  x.I.pid = y.I.pid && x.I.prefix = y.I.prefix && x.I.end_ = y.I.end_
  && x.I.sym = y.I.sym
  && String.equal (Namepath.to_string x.I.np) (Namepath.to_string y.I.np)

(* One run of [trees] through a fused table and a reference table: every
   statement's paths agree, and so do the three interners, id by id.  The
   first tree meets cold tables, later ones (and the repeat of the first)
   the warm trie and path-id cache. *)
let fused_agrees ~limit trees =
  let fused = I.create_table () and reference = I.create_table () in
  List.for_all
    (fun t ->
      let a = I.extract_tree ~table:fused ~limit t
      and b = I.of_paths ~table:reference (Namepath.extract ~limit t) in
      List.length a = List.length b && List.for_all2 same_interned a b)
    (trees @ [ List.hd trees ])
  && I.contents fused = I.contents reference

let prop_extract_tree_reference =
  QCheck.Test.make ~name:"interned: extract_tree ≡ of_paths ∘ extract" ~count:500
    QCheck.(
      pair (int_range 1 12)
        (make
           ~print:(fun ts -> String.concat "\n" (List.map Tree.to_sexp ts))
           Gen.(list_size (int_range 1 4) tree_gen)))
    (fun (limit, trees) -> fused_agrees ~limit trees)

let test_extract_tree_edges () =
  let leaf = Tree.leaf "solo" in
  let wide = Tree.node "R" (List.init 25 (fun i -> Tree.node "N" [ Tree.leaf (string_of_int i) ])) in
  (* the step lists [a 0; b 0] and [a 0 b 0] both render "a 0 b 0" *)
  let two_steps = Tree.node "a" [ Tree.node "b" [ Tree.leaf "x" ] ]
  and one_step = Tree.node "a 0 b" [ Tree.leaf "x" ] in
  check_bool "leaf at the root" true (fused_agrees ~limit:10 [ leaf ]);
  check_bool "more leaves than the limit" true (fused_agrees ~limit:10 [ wide; wide ]);
  check_bool "colliding prefix texts" true (fused_agrees ~limit:10 [ two_steps; one_step ]);
  (* qcheck's shrunk counterexample: the whole-path text " 0 b" is both
     prefix [""; 0] with end "b" and the root prefix with end "0 b", so the
     root's symbolic path and the root leaf "b" after it must take the
     root's own (empty) step list, not the colliding path's *)
  let split_twice =
    Tree.node "" [ Tree.leaf "b"; Tree.node "b" [ Tree.node "Call" [ Tree.leaf "b"; Tree.leaf "a 0 b" ] ] ]
  in
  check_bool "colliding whole-path texts" true
    (fused_agrees ~limit:1 [ split_twice; Tree.leaf "0 b"; Tree.leaf "b" ]);
  let tb = I.create_table () in
  match (I.extract_tree ~table:tb two_steps, I.extract_tree ~table:tb one_step) with
  | [ p ], [ q ] ->
      check_int "one prefix id" p.I.prefix q.I.prefix;
      check_int "one path id" p.I.pid q.I.pid;
      check_bool "np is the table's first path" true (p.I.np == q.I.np)
  | _ -> Alcotest.fail "one path per tree"

(* Equal (pid, prefix, end, sym) ids are one record: across statements of
   one table, and across shard-local tables merged into the global one
   through [apply_remap], which lands on the record the global table
   itself extracts.  A leaf whose whole-path text splits another way than
   the record kept for that pid gets a record of its own. *)
let test_shared_records () =
  let stmt () =
    Tree.node "Assign"
      [ Tree.node "NameStore" [ Tree.leaf "sharedProbe" ]; Tree.node "Num" [ Tree.leaf "1" ] ]
  in
  let same = List.for_all2 ( == ) in
  let tb = I.create_table () in
  let a = I.extract_tree ~table:tb (stmt ()) and b = I.extract_tree ~table:tb (stmt ()) in
  check_bool "one record per path across statements" true (List.length a = 2 && same a b);
  let shard () =
    let local = I.create_table () in
    let ps = I.extract_tree ~table:local (stmt ()) in
    let m = I.remap_into_global local in
    List.map (I.apply_remap m) ps
  in
  let r1 = shard () and r2 = shard () in
  check_bool "one record across remapped shards" true (same r1 r2);
  check_bool "the global table's own record" true (same r1 (I.extract_tree (stmt ())));
  (* the whole-path text " 0 b" is prefix [""; 0] with end "b", and the
     root prefix with end "0 b" *)
  let nested = Tree.node "" [ Tree.leaf "b" ] and root = Tree.leaf "0 b" in
  match
    ( I.extract_tree ~table:tb nested,
      I.extract_tree ~table:tb root,
      I.extract_tree ~table:tb root,
      I.extract_tree ~table:tb nested )
  with
  | [ n1 ], [ r1 ], [ r2 ], [ n2 ] ->
      check_int "one path id" n1.I.pid r1.I.pid;
      check_bool "two prefixes" true (n1.I.prefix <> r1.I.prefix);
      check_bool "the kept record stays shared" true (n1 == n2);
      check_bool "a colliding leaf has a record of its own" true
        (not (r1 == n1) && not (r1 == r2))
  | _ -> Alcotest.fail "one path per tree"

(* A frozen table answers known paths and refuses unknown ones, and the
   fused walk never writes it, not even its trie: [t] was interned through
   [of_paths], so a walk allowed to write would add trie nodes. *)
let test_extract_tree_frozen () =
  let t =
    Astplus.transform ~origins:Origins.none
      (Tree.node "Assign"
         [ Tree.node "NameStore" [ Tree.leaf "frozenProbe" ]; Tree.node "Num" [ Tree.leaf "1" ] ])
  in
  let before = I.of_paths (Namepath.extract t) in
  let contents = I.contents I.global and nodes = I.trie_nodes I.global in
  I.freeze ();
  Fun.protect ~finally:I.thaw @@ fun () ->
  let frozen = I.extract_tree t in
  check_bool "frozen extraction agrees" true
    (List.length before = List.length frozen && List.for_all2 same_interned before frozen);
  check_int "trie unchanged" nodes (I.trie_nodes I.global);
  check_bool "unknown path refused" true
    (match I.extract_tree (Tree.node "NoSuchNode-xyzzy" [ Tree.leaf "q" ]) with
    | _ -> false
    | exception Invalid_argument _ -> true);
  check_bool "interners unchanged" true (I.contents I.global = contents)

let test_interned_rank_order () =
  let module I = Namepath.Interned in
  let paths = [ np1; np2; np3 ] @ Namepath.extract (figure2_plus ()) in
  let interned = I.of_paths paths in
  I.freeze ();
  Fun.protect ~finally:I.thaw @@ fun () ->
  check_bool "frozen" true (I.is_frozen ());
  (* rank comparison must coincide with canonical-text comparison on every
     pair — the sort in Algorithm 1 is unchanged by interning *)
  List.iter
    (fun a ->
      List.iter
        (fun b ->
          check_int "compare_rank ≡ compare_canonical"
            (compare (Namepath.compare_canonical a.I.np b.I.np) 0)
            (compare (I.compare_rank a b) 0))
        interned)
    interned;
  (* unknown strings never match while frozen: the sentinel is -2 *)
  check_int "unknown end while frozen" (-2) (I.end_id "no-such-subtoken-xyzzy")

let suite =
  [
    Alcotest.test_case "figure 2(c): AST+" `Quick test_figure2_astplus;
    Alcotest.test_case "figure 2(d): name paths" `Quick test_figure2_name_paths;
    Alcotest.test_case "w/o analysis: undecorated" `Quick test_no_analysis_undecorated;
    Alcotest.test_case "literal abstraction" `Quick test_literal_abstraction;
    Alcotest.test_case "NumArgs on definitions" `Quick test_numargs_on_def;
    Alcotest.test_case "value origin decoration" `Quick test_value_origin_decoration;
    Alcotest.test_case "expression origins" `Quick test_expr_origin;
    Alcotest.test_case "example 3.5: relational ops" `Quick test_example_3_5;
    Alcotest.test_case "serialization round trip" `Quick test_round_trip;
    Alcotest.test_case "extraction limit" `Quick test_extract_limit;
    Alcotest.test_case "distinct prefixes" `Quick test_extract_distinct_prefixes;
    Alcotest.test_case "all extracted paths concrete" `Quick test_extract_all_concrete;
    QCheck_alcotest.to_alcotest prop_extract_leaf_count;
    QCheck_alcotest.to_alcotest prop_of_string_round_trip;
    QCheck_alcotest.to_alcotest prop_interned_pid_equality;
    QCheck_alcotest.to_alcotest prop_interned_sym_sharing;
    Alcotest.test_case "interned: frozen rank order" `Quick test_interned_rank_order;
    QCheck_alcotest.to_alcotest prop_extract_tree_reference;
    Alcotest.test_case "interned: extract_tree edge cases" `Quick test_extract_tree_edges;
    Alcotest.test_case "interned: frozen extract_tree reads only" `Quick test_extract_tree_frozen;
    Alcotest.test_case "interned: one shared record per path" `Quick test_shared_records;
  ]
