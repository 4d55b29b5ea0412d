(* Tests for the Java frontend: lexer, parser coverage (including the
   backtracking disambiguations), lowering to the generic vocabulary with
   the exact Table 6 statement shapes. *)

open Namer_javalang
module Tree = Namer_tree.Tree
module Tokbuf = Namer_util.Tokbuf

let check_int = Alcotest.(check int)
let check_str = Alcotest.(check string)
let check_bool = Alcotest.(check bool)

let parse = Java_parser.parse_compilation_unit

(* Parse [body] inside a wrapper class/method; return statement sexps. *)
let stmt_sexps body =
  let src = Printf.sprintf "class W { void m() { %s } }" body in
  Java_lower.lower_unit (parse src)
  |> List.filter_map (fun (s : Java_lower.stmt_info) ->
         match s.tree.Tree.value with
         | "ClassDef" | "MethodDef" -> None
         | _ -> Some (Tree.to_sexp s.tree))

let first_stmt body =
  match stmt_sexps body with
  | s :: _ -> s
  | [] -> Alcotest.fail "no statements"

(* ---------------- lexer ---------------- *)

(* The lexer's token buffer as a list of tokens. *)
let tokens src =
  let b = Java_lexer.tokenize src in
  List.init (Tokbuf.length b) (Tokbuf.kind b)

let test_lexer_comments () =
  let idents =
    List.filter_map
      (function Java_lexer.Ident s -> Some s | _ -> None)
      (tokens "int x; // line\n/* block\nspanning */ int y;")
  in
  Alcotest.(check (list string)) "comments skipped" [ "x"; "y" ] idents

let test_lexer_literals () =
  let kinds =
    List.filter_map
      (function
        | Java_lexer.Int_lit v -> Some ("i:" ^ v)
        | Java_lexer.Float_lit v -> Some ("f:" ^ v)
        | Java_lexer.Str_lit v -> Some ("s:" ^ v)
        | Java_lexer.Char_lit v -> Some ("c:" ^ v)
        | _ -> None)
      (tokens "1 2.5 0x1F 3L 2.0f \"str\" 'c' 1_000")
  in
  Alcotest.(check (list string)) "literal kinds"
    [ "i:1"; "f:2.5"; "i:0x1F"; "i:3L"; "f:2.0f"; "s:str"; "c:c"; "i:1_000" ]
    kinds

let test_lexer_operators () =
  let ops =
    List.filter_map (function Java_lexer.Op o -> Some o | _ -> None) (tokens "a >>> b >= c -> d")
  in
  Alcotest.(check (list string)) "maximal munch" [ ">>>"; ">="; "->" ] ops

(* Two threads of one domain parse different files for a second: each
   parse reads its own tokens, as the buffer's lock guarantees (without
   it, one thread's lexing overwrites the buffer under the other's
   parse). *)
let test_parse_threads_share_domain () =
  let files =
    (Namer_corpus.Corpus.generate
       { (Namer_corpus.Corpus.default_config Namer_corpus.Corpus.Java) with
         Namer_corpus.Corpus.n_repos = 10; seed = 77 })
      .Namer_corpus.Corpus.files
  in
  (* the files' classes, without their package and import headers *)
  let classes (f : Namer_corpus.Corpus.file) =
    String.split_on_char '\n' f.source
    |> List.filter (fun l ->
           not (String.starts_with ~prefix:"package " l || String.starts_with ~prefix:"import " l))
    |> String.concat "\n"
  in
  let srcs = List.map classes files in
  let a = String.concat "\n" srcs and b = String.concat "\n" (List.rev srcs) in
  let expected_a = parse a and expected_b = parse b in
  let wrong = Atomic.make 0 and runs = Atomic.make 0 in
  let until = Unix.gettimeofday () +. 1.0 in
  let work src expected () =
    while Unix.gettimeofday () < until do
      (match parse src with
      | u -> if u <> expected then Atomic.incr wrong
      | exception _ -> Atomic.incr wrong);
      Atomic.incr runs
    done
  in
  let other = Thread.create (work a expected_a) () in
  work b expected_b ();
  Thread.join other;
  check_int (Printf.sprintf "wrong parses of %d" (Atomic.get runs)) 0 (Atomic.get wrong)

(* ---------------- declarations ---------------- *)

let test_class_structure () =
  let u = parse
    "package com.example.app;\nimport java.util.List;\npublic class Foo extends Bar implements Baz, Qux { }"
  in
  check_bool "package" true (u.Java_ast.package = Some "com.example.app");
  Alcotest.(check (list string)) "imports" [ "java.util.List" ] u.Java_ast.imports;
  let c = List.hd u.Java_ast.classes in
  check_str "name" "Foo" c.Java_ast.cname;
  check_bool "extends" true
    (match c.Java_ast.cextends with Some t -> t.Java_ast.base = "Bar" | None -> false);
  check_int "implements" 2 (List.length c.Java_ast.cimplements)

let test_fields_methods_ctor () =
  let u =
    parse
      "class C { private String name; C(String name) { this.name = name; } public String getName() { return name; } }"
  in
  let c = List.hd u.Java_ast.classes in
  let kinds =
    List.map
      (function
        | Java_ast.Field_m _ -> "field"
        | Java_ast.Method_m { rtype = None; _ } -> "ctor"
        | Java_ast.Method_m _ -> "method"
        | Java_ast.Init_m _ -> "init"
        | Java_ast.Class_m _ -> "class")
      c.Java_ast.members
  in
  Alcotest.(check (list string)) "member kinds" [ "field"; "ctor"; "method" ] kinds

let test_generics () =
  let u = parse "class C { java.util.Map<String, List<Integer>> cache; }" in
  match (List.hd u.Java_ast.classes).Java_ast.members with
  | [ Java_ast.Field_m { ftype; _ } ] ->
      check_str "base" "java.util.Map" ftype.Java_ast.base;
      check_int "type args" 2 (List.length ftype.Java_ast.targs)
  | _ -> Alcotest.fail "expected one field"

let test_annotations_skipped () =
  let u = parse "class C { @Override @SuppressWarnings(\"all\") void m() { } }" in
  check_int "method survives annotations" 1
    (List.length (List.hd u.Java_ast.classes).Java_ast.members)

let test_enum_interface () =
  let u = parse "enum E { A, B; int f; } interface I { void m(); }" in
  check_int "two types" 2 (List.length u.Java_ast.classes)

let test_nested_class () =
  let u = parse "class Outer { static class Inner { int x; } }" in
  match (List.hd u.Java_ast.classes).Java_ast.members with
  | [ Java_ast.Class_m inner ] -> check_str "inner name" "Inner" inner.Java_ast.cname
  | _ -> Alcotest.fail "expected nested class"

(* ---------------- statements & expressions ---------------- *)

let test_local_vs_expr_disambiguation () =
  check_str "local decl" "(LocalVar (TypeRef Intent) (NameStore i) (New (TypeRef Intent) (NameLoad c)))"
    (first_stmt "Intent i = new Intent(c);");
  check_str "expr statement" "(Assign (NameStore x) (NameLoad y))" (first_stmt "x = y;");
  check_str "call statement" "(Call (AttributeLoad (NameLoad a) (Attr b)))"
    (first_stmt "a.b();")

let test_table6_examples () =
  check_str "example 1: getStackTrace"
    "(Call (AttributeLoad (NameLoad e) (Attr getStackTrace)))"
    (first_stmt "e.getStackTrace();");
  check_str "example 2: double loop"
    "(For (LocalVar (TypeRef double) (NameStore i) (Num 1)) (BinOp (NameLoad i) < (NameLoad chainlength)) (UnaryOp ++ (NameLoad i)))"
    (first_stmt "for (double i = 1; i < chainlength; i++) { }");
  check_str "example 4: field assign"
    "(Assign (AttributeStore (NameLoad this) (Attr publicKey)) (NameLoad publickKey))"
    (first_stmt "this.publicKey = publickKey;");
  check_str "example 6: dismiss"
    "(Call (AttributeLoad (NameLoad progDialog) (Attr dismiss)))"
    (first_stmt "progDialog.dismiss();")

let test_catch_throwable () =
  let sexps = stmt_sexps "try { f(); } catch (Throwable e) { g(); }" in
  check_bool "catch lowered" true
    (List.mem "(Try (Catch (TypeRef Throwable) (NameStore e)))" sexps)

let test_multi_catch_and_finally () =
  let sexps =
    stmt_sexps "try { f(); } catch (IOException | SQLException e) { } finally { h(); }"
  in
  check_bool "first type kept" true
    (List.mem "(Try (Catch (TypeRef IOException) (NameStore e)))" sexps);
  check_bool "finally body visited" true
    (List.mem "(Call (NameLoad h))" sexps)

let test_foreach () =
  check_str "enhanced for"
    "(ForEach (TypeRef String) (NameStore s) (NameLoad items))"
    (first_stmt "for (String s : items) { }")

let test_cast_vs_paren () =
  check_str "cast" "(Assign (NameStore x) (Cast (TypeRef Foo) (NameLoad y)))"
    (first_stmt "x = (Foo) y;");
  check_str "paren expr" "(Assign (NameStore x) (BinOp (NameLoad a) + (NameLoad b)))"
    (first_stmt "x = (a + b);")

let test_ternary_instanceof () =
  check_str "ternary"
    "(Assign (NameStore x) (BoolOp ifexp (Num 1) (NameLoad c) (Num 2)))"
    (first_stmt "x = c ? 1 : 2;");
  check_str "instanceof"
    "(If (Compare (NameLoad o) instanceof (TypeRef String)))"
    (first_stmt "if (o instanceof String) { }")

let test_new_array_and_init () =
  check_str "new array"
    "(LocalVar (TypeRef int[]) (NameStore a) (NewArray (TypeRef int) (Num 3)))"
    (first_stmt "int[] a = new int[3];");
  check_str "array initializer"
    "(LocalVar (TypeRef int[]) (NameStore a) (List (Num 1) (Num 2)))"
    (first_stmt "int[] a = {1, 2};")

let test_class_literal_and_super () =
  check_str "class literal"
    "(Call (AttributeLoad (NameLoad ctx) (Attr start)) (ClassLit (TypeRef Main)))"
    (first_stmt "ctx.start(Main.class);");
  check_str "super call"
    "(Call (AttributeLoad (NameLoad super) (Attr toString)))"
    (first_stmt "super.toString();")

let test_do_while_switch () =
  let sexps = stmt_sexps "do { f(); } while (x > 0); switch (k) { case 1: g(); break; default: h(); }" in
  check_bool "do-while header" true
    (List.mem "(DoWhile (BinOp (NameLoad x) > (Num 0)))" sexps);
  check_bool "switch bodies visited" true (List.mem "(Call (NameLoad g))" sexps)

let test_lambda_method_ref () =
  check_str "lambda" "(Call (NameLoad run) (Lambda (NameParam x) (BinOp (NameLoad x) + (Num 1))))"
    (first_stmt "run(x -> x + 1);");
  check_str "method ref as field access"
    "(Call (NameLoad run) (AttributeLoad (NameLoad String) (Attr valueOf)))"
    (first_stmt "run(String::valueOf);")

let test_assignment_expression () =
  check_str "compound assign expr"
    "(AugAssign (NameStore x) += (Num 2))"
    (first_stmt "x += 2;")

let test_line_numbers_and_context () =
  let src = "class C {\n    void m() {\n        int x = 1;\n    }\n}" in
  let infos = Java_lower.lower_unit (parse src) in
  let local =
    List.find (fun (s : Java_lower.stmt_info) -> s.tree.Tree.value = "LocalVar") infos
  in
  check_int "line" 3 local.Java_lower.line;
  check_bool "class ctx" true (local.Java_lower.enclosing_class = Some "C");
  check_bool "method ctx" true (local.Java_lower.enclosing_function = Some "m")

let test_unit_tree () =
  let t = Java_lower.unit_tree (parse "class C { void m() { f(); } }") in
  check_str "root" "CompilationUnit" t.Tree.value;
  check_bool "nested body" true (Tree.size t > 6)

let test_parse_error () =
  check_bool "raises" true
    (try
       ignore (parse "class C { void m( { } }");
       false
     with Java_parser.Parse_error _ -> true)

let test_varargs_param () =
  let u = parse "class C { void m(String... parts) { } }" in
  match (List.hd u.Java_ast.classes).Java_ast.members with
  | [ Java_ast.Method_m { params = [ (t, "parts") ]; _ } ] ->
      check_int "varargs adds a dimension" 1 t.Java_ast.dims
  | _ -> Alcotest.fail "expected one method"

let test_try_with_resources () =
  let sexps = stmt_sexps "try (Writer w = open(p)) { w.write(x); } catch (IOException e) { }" in
  check_bool "resource lowered as local" true
    (List.exists (fun s -> String.length s > 9 && String.sub s 0 9 = "(LocalVar") sexps)

let suite =
  [
    Alcotest.test_case "lexer: comments" `Quick test_lexer_comments;
    Alcotest.test_case "lexer: literals" `Quick test_lexer_literals;
    Alcotest.test_case "lexer: operators" `Quick test_lexer_operators;
    Alcotest.test_case "class structure" `Quick test_class_structure;
    Alcotest.test_case "fields/methods/constructors" `Quick test_fields_methods_ctor;
    Alcotest.test_case "generics" `Quick test_generics;
    Alcotest.test_case "annotations skipped" `Quick test_annotations_skipped;
    Alcotest.test_case "enum and interface" `Quick test_enum_interface;
    Alcotest.test_case "nested classes" `Quick test_nested_class;
    Alcotest.test_case "local vs expression statements" `Quick test_local_vs_expr_disambiguation;
    Alcotest.test_case "Table 6 statement shapes" `Quick test_table6_examples;
    Alcotest.test_case "catch Throwable" `Quick test_catch_throwable;
    Alcotest.test_case "multi-catch and finally" `Quick test_multi_catch_and_finally;
    Alcotest.test_case "enhanced for" `Quick test_foreach;
    Alcotest.test_case "cast vs parenthesis" `Quick test_cast_vs_paren;
    Alcotest.test_case "ternary and instanceof" `Quick test_ternary_instanceof;
    Alcotest.test_case "array creation" `Quick test_new_array_and_init;
    Alcotest.test_case "class literals and super" `Quick test_class_literal_and_super;
    Alcotest.test_case "do-while and switch" `Quick test_do_while_switch;
    Alcotest.test_case "lambda and method refs" `Quick test_lambda_method_ref;
    Alcotest.test_case "assignment expressions" `Quick test_assignment_expression;
    Alcotest.test_case "lines and contexts" `Quick test_line_numbers_and_context;
    Alcotest.test_case "whole-unit tree" `Quick test_unit_tree;
    Alcotest.test_case "parse errors raised" `Quick test_parse_error;
    Alcotest.test_case "varargs parameter" `Quick test_varargs_param;
    Alcotest.test_case "try-with-resources" `Quick test_try_with_resources;
    Alcotest.test_case "parser: threads of one domain" `Quick test_parse_threads_share_domain;
  ]

(* ---------------- pretty-printer round trips ---------------- *)

let round_trips src =
  let u1 = parse src in
  let printed = Java_pretty.compilation_unit u1 in
  let u2 =
    try parse printed
    with e ->
      Alcotest.failf "re-parse failed on:\n%s\n(%s)" printed (Printexc.to_string e)
  in
  if not (Namer_tree.Tree.equal (Java_lower.unit_tree u1) (Java_lower.unit_tree u2))
  then
    Alcotest.failf "round trip changed the AST:\n-- original --\n%s\n-- printed --\n%s"
      src printed

let test_pretty_round_trip_corpus () =
  let corpus =
    Namer_corpus.Corpus.generate
      {
        (Namer_corpus.Corpus.default_config Namer_corpus.Corpus.Java) with
        Namer_corpus.Corpus.n_repos = 4;
        files_per_repo = (4, 6);
        issue_rate = 0.1;
        benign_rate = 0.1;
      }
  in
  List.iter
    (fun (f : Namer_corpus.Corpus.file) -> round_trips f.Namer_corpus.Corpus.source)
    corpus.Namer_corpus.Corpus.files

let test_pretty_round_trip_constructs () =
  List.iter round_trips
    [
      "class C { int x = a + b * (c - d); }";
      "class C { void m() { for (int i = 0; i < n; i++) { f(i); } } }";
      "class C { void m(java.util.List items) { for (String s : items) { g(s); } } }";
      "class C { Object o = cond ? new Foo() : null; }";
      "class C { void m() { try { f(); } catch (IOException e) { h(); } finally { k(); } } }";
      "class C { boolean b = o instanceof String && x != null; }";
      "class C { int[] a = new int[3]; }";
      "class C { void m() { x += 1; y++; z = (Foo) w; } }";
      "class C extends B implements I, J { C(int n) { this.n = n; } }";
      "class C { void m() { ctx.start(Main.class); } }";
      "class C { void m() { do { f(); } while (x > 0); } }";
      "interface I { void m(); }";
      "class Outer { static class Inner { int x; } }";
    ]

let pretty_suite =
  [
    Alcotest.test_case "pretty: corpus round trips" `Quick test_pretty_round_trip_corpus;
    Alcotest.test_case "pretty: construct round trips" `Quick test_pretty_round_trip_constructs;
  ]

let suite = suite @ pretty_suite
