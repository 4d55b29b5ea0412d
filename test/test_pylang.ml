(* Tests for the Python frontend: lexer layout, parser coverage, lowering to
   the generic tree vocabulary (including the exact Figure 2 shapes). *)

open Namer_pylang
module Tree = Namer_tree.Tree
module Tokbuf = Namer_util.Tokbuf

let check_int = Alcotest.(check int)
let check_str = Alcotest.(check string)
let check_bool = Alcotest.(check bool)

let parse = Py_parser.parse_module

let sexp_of_stmt src =
  match Py_lower.lower_stmts (parse src) with
  | s :: _ -> Tree.to_sexp s.Py_lower.tree
  | [] -> Alcotest.fail "no statements parsed"

let sexp_of_last src =
  match List.rev (Py_lower.lower_stmts (parse src)) with
  | s :: _ -> Tree.to_sexp s.Py_lower.tree
  | [] -> Alcotest.fail "no statements parsed"

(* ---------------- lexer ---------------- *)

(* The lexer's token buffer as (kind, text, line) triples. *)
let tokens src =
  let b = Py_lexer.tokenize src in
  List.init (Tokbuf.length b) (fun i -> (Tokbuf.kind b i, Tokbuf.text b i, Tokbuf.line b i))

let test_lexer_layout () =
  let toks = tokens "if x:\n    y = 1\nz = 2\n" in
  let has t = List.exists (fun (k, _, _) -> k = t) toks in
  check_bool "indent" true (has Py_lexer.Indent);
  check_bool "dedent" true (has Py_lexer.Dedent)

let test_lexer_blank_and_comments () =
  let toks = tokens "x = 1\n\n# comment only\n   # indented comment\ny = 2\n" in
  let indents = List.length (List.filter (fun (k, _, _) -> k = Py_lexer.Indent) toks) in
  check_int "blank/comment lines produce no layout" 0 indents

let test_lexer_string_escapes () =
  let str =
    List.find_map (fun (k, s, _) -> if k = Py_lexer.String then Some s else None)
      (tokens {|s = "a\nb"|})
  in
  check_str "escape decoded" "a\nb" (Option.get str)

let test_lexer_implicit_continuation () =
  (* newlines inside brackets do not end the logical line *)
  let m = parse "x = f(1,\n      2)\n" in
  check_int "one statement" 1 (List.length m)

let test_lexer_line_numbers () =
  let toks = tokens "a = 1\nb = 2\n" in
  let line_of name =
    List.find_map
      (fun (k, n, line) -> if k = Py_lexer.Ident && n = name then Some line else None)
      toks
  in
  check_int "first line" 1 (Option.get (line_of "a"));
  check_int "second line" 2 (Option.get (line_of "b"))

let test_lexer_error () =
  Alcotest.check_raises "unexpected char" (Py_lexer.Lex_error ("unexpected character '?'", 1))
    (fun () -> ignore (Py_lexer.tokenize "x ? y\n"))

(* A blank or whitespace-only CRLF line inside a block is blank, not a
   dedent: the file parses as its LF twin does. *)
let test_lexer_crlf_blank_lines () =
  let lf = "def f(x):\n    y = x\n\n    return y\n" in
  let crlf = "def f(x):\r\n    y = x\r\n\r\n    return y\r\n" in
  let ws = "def f(x):\r\n    y = x\r\n   \r\n    return y\r\n" in
  let render src =
    String.concat "\n"
      (List.map (fun (s : Py_lower.stmt_info) -> Tree.to_sexp s.tree) (Py_lower.lower_stmts (parse src)))
  in
  check_str "blank CRLF line" (render lf) (render crlf);
  check_str "whitespace-only CRLF line" (render lf) (render ws)

(* Two threads of one domain parsing different files: they interleave at
   allocations, so each parse must hold the domain's token buffer until it
   is done.  Large files and a one-second run give the scheduler's 50 ms
   tick many chances to switch threads mid-parse. *)
let test_parse_threads_share_domain () =
  let files =
    (Namer_corpus.Corpus.generate
       { (Namer_corpus.Corpus.default_config Namer_corpus.Corpus.Python) with
         Namer_corpus.Corpus.n_repos = 10; seed = 77 })
      .Namer_corpus.Corpus.files
  in
  let srcs = List.map (fun (f : Namer_corpus.Corpus.file) -> f.source) files in
  let a = String.concat "\n" srcs and b = String.concat "\n" (List.rev srcs) in
  let expected_a = parse a and expected_b = parse b in
  let wrong = Atomic.make 0 and runs = Atomic.make 0 in
  let until = Unix.gettimeofday () +. 1.0 in
  let work src expected () =
    while Unix.gettimeofday () < until do
      (match parse src with
      | m -> if m <> expected then Atomic.incr wrong
      | exception _ -> Atomic.incr wrong);
      Atomic.incr runs
    done
  in
  let other = Thread.create (work a expected_a) () in
  work b expected_b ();
  Thread.join other;
  check_int (Printf.sprintf "wrong parses of %d" (Atomic.get runs)) 0 (Atomic.get wrong)

(* ---------------- parser + lowering ---------------- *)

let test_figure2_call () =
  check_str "figure 2(b) AST"
    "(Call (AttributeLoad (NameLoad self) (Attr assertTrue)) (AttributeLoad (NameLoad picture) (Attr rotate_angle)) (Num 90))"
    (sexp_of_stmt "self.assertTrue(picture.rotate_angle, 90)\n")

let test_assign_chain () =
  check_str "chained assign" "(Assign (NameStore a) (NameStore b) (Num 1))"
    (sexp_of_stmt "a = b = 1\n")

let test_aug_assign () =
  check_str "augmented" "(AugAssign (NameStore x) += (Num 1))" (sexp_of_stmt "x += 1\n")

let test_attribute_store () =
  check_str "example 3.8 shape"
    "(Assign (AttributeStore (NameLoad self) (Attr name)) (NameLoad name))"
    (sexp_of_stmt "self.name = name\n")

let test_keyword_args () =
  check_str "keyword argument" "(Call (NameLoad f) (Num 1) (Keyword key (Str v)))"
    (sexp_of_stmt "f(1, key=\"v\")\n")

let test_star_args_call () =
  check_str "star args" "(Call (NameLoad f) (StarArg (NameLoad a)) (DoubleStarArg (NameLoad kw)))"
    (sexp_of_stmt "f(*a, **kw)\n")

let test_subscript_slice () =
  check_str "subscript" "(SubscriptLoad (NameLoad xs) (Num 0))" (sexp_of_stmt "xs[0]\n");
  check_str "slice abstracted" "(SubscriptLoad (NameLoad xs) (Num 1))"
    (sexp_of_stmt "xs[1:2]\n")

let test_compare_chain_ops () =
  check_str "comparison" "(Compare (NameLoad a) == (NameLoad b))" (sexp_of_stmt "a == b\n");
  check_str "is not" "(Compare (NameLoad a) is not (NameLoad b))"
    (sexp_of_stmt "a is not b\n");
  check_str "not in" "(Compare (NameLoad a) not in (NameLoad b))"
    (sexp_of_stmt "a not in b\n")

let test_bool_ops () =
  check_str "and chain" "(BoolOp and (NameLoad a) (NameLoad b) (NameLoad c))"
    (sexp_of_stmt "a and b and c\n");
  check_str "ternary" "(BoolOp ifexp (Num 1) (NameLoad c) (Num 2))"
    (sexp_of_stmt "x = 1 if c else 2\n" |> fun _ ->
     match Py_lower.lower_stmts (parse "x = 1 if c else 2\n") with
     | [ s ] -> (
         match s.Py_lower.tree.Tree.children with
         | [ _; v ] -> Tree.to_sexp v
         | _ -> "?")
     | _ -> "?")

let test_operator_precedence () =
  check_str "mul binds tighter" "(BinOp (NameLoad a) + (BinOp (NameLoad b) * (NameLoad c)))"
    (sexp_of_stmt "a + b * c\n");
  check_str "parens" "(BinOp (BinOp (NameLoad a) + (NameLoad b)) * (NameLoad c))"
    (sexp_of_stmt "(a + b) * c\n");
  check_str "power right assoc" "(BinOp (NameLoad a) ** (BinOp (NameLoad b) ** (NameLoad c)))"
    (sexp_of_stmt "a ** b ** c\n")

let test_unary_not () =
  check_str "not" "(UnaryOp not (NameLoad x))" (sexp_of_stmt "not x\n");
  check_str "negative" "(UnaryOp - (Num 1))" (sexp_of_stmt "-1\n")

let test_collections () =
  check_str "list" "(List (Num 1) (Num 2))" (sexp_of_stmt "[1, 2]\n");
  check_str "dict" "(Dict (DictItem (Str a) (Num 1)))" (sexp_of_stmt "{\"a\": 1}\n");
  check_str "tuple" "(Tuple (Num 1) (Num 2))" (sexp_of_stmt "(1, 2)\n");
  check_str "empty list" "List" (sexp_of_stmt "[]\n")

let test_lambda () =
  check_str "lambda" "(Lambda (NameParam x) (BinOp (NameLoad x) + (Num 1)))"
    (sexp_of_stmt "f = lambda x: x + 1\n" |> fun _ ->
     match Py_lower.lower_stmts (parse "f = lambda x: x + 1\n") with
     | [ s ] -> (
         match s.Py_lower.tree.Tree.children with
         | [ _; v ] -> Tree.to_sexp v
         | _ -> "?")
     | _ -> "?")

let test_funcdef_params () =
  check_str "full params"
    "(FunctionDef (FuncName f) (NameParam self) (NameParam a) (StarParam args) (DoubleStarParam kwargs))"
    (sexp_of_stmt "def f(self, a, *args, **kwargs):\n    pass\n")

let test_default_params () =
  check_str "defaults parse" "(FunctionDef (FuncName f) (NameParam a) (NameParam b))"
    (sexp_of_stmt "def f(a, b=1):\n    pass\n")

let test_classdef () =
  check_str "class with base" "(ClassDef (ClassName TestPicture) (NameLoad TestCase))"
    (sexp_of_stmt "class TestPicture(TestCase):\n    pass\n")

let test_for_while_if () =
  check_str "for header" "(For (NameStore i) (Call (NameLoad range) (Num 10)))"
    (sexp_of_stmt "for i in range(10):\n    pass\n");
  check_str "while header" "(While (Compare (NameLoad x) < (Num 3)))"
    (sexp_of_stmt "while x < 3:\n    pass\n");
  check_str "if header" "(If (NameLoad x))" (sexp_of_stmt "if x:\n    pass\n")

let test_try_except () =
  check_str "handler binding"
    "(Try (ExceptHandler (NameLoad ValueError) (NameStore e)))"
    (sexp_of_stmt "try:\n    f()\nexcept ValueError as e:\n    pass\n")

let test_with () =
  check_str "with as" "(With (Call (NameLoad open) (NameLoad p)) (NameStore f))"
    (sexp_of_stmt "with open(p) as f:\n    pass\n")

let test_imports () =
  check_str "import as" "(Import (ImportAs numpy np))" (sexp_of_stmt "import numpy as np\n");
  check_str "from import"
    "(ImportFrom unittest (ImportName TestCase))"
    (sexp_of_stmt "from unittest import TestCase\n");
  check_str "dotted" "(Import (ImportName os.path))" (sexp_of_stmt "import os.path\n")

let test_return_raise_assert () =
  check_str "return value" "(Return (NameLoad x))" (sexp_of_stmt "return x\n");
  check_str "bare return" "Return" (sexp_of_stmt "return\n");
  check_str "raise" "(Raise (Call (NameLoad ValueError) (Str bad)))"
    (sexp_of_stmt "raise ValueError(\"bad\")\n");
  check_str "assert with message" "(Assert (NameLoad ok) (Str oops))"
    (sexp_of_stmt "assert ok, \"oops\"\n")

let test_global_del () =
  check_str "global" "(Global count)" (sexp_of_stmt "global count\n");
  check_str "del" "(Delete (NameLoad x))" (sexp_of_stmt "del x\n")

let test_semicolons () =
  let m = parse "a = 1; b = 2\n" in
  check_int "two statements on one line" 2 (List.length m)

let test_decorators () =
  check_str "decorated def skips decorator in header"
    "(FunctionDef (FuncName f) (NameParam self))"
    (sexp_of_stmt "@property\ndef f(self):\n    pass\n")

let test_nested_contexts () =
  let src = "class C(object):\n    def m(self):\n        x = 1\n" in
  let infos = Py_lower.lower_stmts (parse src) in
  let last = List.nth infos (List.length infos - 1) in
  check_bool "class context" true (last.Py_lower.enclosing_class = Some "C");
  check_bool "function context" true (last.Py_lower.enclosing_function = Some "m");
  check_int "line number" 3 last.Py_lower.line

let test_elif_chain () =
  let m = parse "if a:\n    x = 1\nelif b:\n    x = 2\nelse:\n    x = 3\n" in
  match (List.hd m).Py_ast.kind with
  | Py_ast.If (branches, orelse) ->
      check_int "two branches" 2 (List.length branches);
      check_int "else body" 1 (List.length orelse)
  | _ -> Alcotest.fail "expected If"

let test_tuple_unpack_for () =
  check_str "tuple target" "(For (Tuple (NameStore k) (NameStore v)) (Call (AttributeLoad (NameLoad d) (Attr items))))"
    (sexp_of_stmt "for k, v in d.items():\n    pass\n")

let test_list_comprehension_abstracted () =
  (* comprehensions are abstracted to the head expression list *)
  let m = parse "xs = [f(x) for x in items]\n" in
  check_int "parses" 1 (List.length m)

let test_parse_error_reported () =
  check_bool "raises Parse_error" true
    (try
       ignore (parse "def f(:\n    pass\n");
       false
     with Py_parser.Parse_error _ -> true)

let test_module_tree_nests_bodies () =
  let t = Py_lower.module_tree (parse "def f():\n    return 1\n") in
  check_bool "module root" true (t.Tree.value = "Module");
  check_bool "body nested" true (Tree.size t > 5)

let test_yield () =
  check_str "yield as pseudo-call" "(Call (NameLoad yield) (NameLoad x))"
    (sexp_of_last "def g():\n    yield x\n")

let suite =
  [
    Alcotest.test_case "lexer: layout tokens" `Quick test_lexer_layout;
    Alcotest.test_case "lexer: blank lines / comments" `Quick test_lexer_blank_and_comments;
    Alcotest.test_case "lexer: string escapes" `Quick test_lexer_string_escapes;
    Alcotest.test_case "lexer: implicit continuation" `Quick test_lexer_implicit_continuation;
    Alcotest.test_case "lexer: line numbers" `Quick test_lexer_line_numbers;
    Alcotest.test_case "lexer: error reporting" `Quick test_lexer_error;
    Alcotest.test_case "lexer: CRLF blank lines" `Quick test_lexer_crlf_blank_lines;
    Alcotest.test_case "parser: threads of one domain" `Quick test_parse_threads_share_domain;
    Alcotest.test_case "figure 2(b) exact shape" `Quick test_figure2_call;
    Alcotest.test_case "chained assignment" `Quick test_assign_chain;
    Alcotest.test_case "augmented assignment" `Quick test_aug_assign;
    Alcotest.test_case "attribute store (ex 3.8)" `Quick test_attribute_store;
    Alcotest.test_case "keyword arguments" `Quick test_keyword_args;
    Alcotest.test_case "star arguments" `Quick test_star_args_call;
    Alcotest.test_case "subscripts and slices" `Quick test_subscript_slice;
    Alcotest.test_case "comparison operators" `Quick test_compare_chain_ops;
    Alcotest.test_case "boolean operators" `Quick test_bool_ops;
    Alcotest.test_case "operator precedence" `Quick test_operator_precedence;
    Alcotest.test_case "unary operators" `Quick test_unary_not;
    Alcotest.test_case "collection literals" `Quick test_collections;
    Alcotest.test_case "lambda" `Quick test_lambda;
    Alcotest.test_case "function parameters" `Quick test_funcdef_params;
    Alcotest.test_case "default parameters" `Quick test_default_params;
    Alcotest.test_case "class definition" `Quick test_classdef;
    Alcotest.test_case "compound headers" `Quick test_for_while_if;
    Alcotest.test_case "try/except binding" `Quick test_try_except;
    Alcotest.test_case "with statement" `Quick test_with;
    Alcotest.test_case "imports" `Quick test_imports;
    Alcotest.test_case "return/raise/assert" `Quick test_return_raise_assert;
    Alcotest.test_case "global/del" `Quick test_global_del;
    Alcotest.test_case "semicolon statements" `Quick test_semicolons;
    Alcotest.test_case "decorators" `Quick test_decorators;
    Alcotest.test_case "enclosing contexts" `Quick test_nested_contexts;
    Alcotest.test_case "elif chains" `Quick test_elif_chain;
    Alcotest.test_case "tuple unpacking in for" `Quick test_tuple_unpack_for;
    Alcotest.test_case "list comprehension" `Quick test_list_comprehension_abstracted;
    Alcotest.test_case "parse errors raised" `Quick test_parse_error_reported;
    Alcotest.test_case "whole-module tree" `Quick test_module_tree_nests_bodies;
    Alcotest.test_case "yield" `Quick test_yield;
  ]

(* ---------------- pretty-printer round trips ---------------- *)

let normalize src = Py_lower.module_tree (parse src)

let round_trips src =
  let m1 = parse src in
  let printed = Py_pretty.module_ m1 in
  let m2 =
    try parse printed
    with e ->
      Alcotest.failf "re-parse failed on:\n%s\n(%s)" printed (Printexc.to_string e)
  in
  if not (Namer_tree.Tree.equal (Py_lower.module_tree m1) (Py_lower.module_tree m2))
  then Alcotest.failf "round trip changed the AST:\n-- original --\n%s\n-- printed --\n%s" src printed

let test_pretty_round_trip_corpus () =
  (* every file of a generated corpus survives parse → print → parse *)
  let corpus =
    Namer_corpus.Corpus.generate
      {
        (Namer_corpus.Corpus.default_config Namer_corpus.Corpus.Python) with
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
      "a = b = x + y * z ** 2\n";
      "result = f(1, *args, key=\"v\", **kw)\n";
      "if a and not b or c:\n    x = [1, 2]\nelif d:\n    y = {\"k\": v}\nelse:\n    z = (1,)\n";
      "for k, v in d.items():\n    total += v\nelse:\n    done = True\n";
      "class C(Base):\n    @property\n    def size(self):\n        return self._n\n";
      "try:\n    risky()\nexcept ValueError as e:\n    raise RuntimeError(\"bad\")\nfinally:\n    close()\n";
      "with open(p) as f:\n    data = f.read()\n";
      "def g(a, b=1, *args, **kwargs):\n    return lambda x: x + a\n";
      "x = 1 if cond else 2\n";
      "assert ok, \"message\"\nglobal counter\ndel tmp, tmp2\n";
      "value = items[0]\nmatrix = rows[1][2]\n";
      "flag = x is not None and y not in seen\n";
    ]

let test_docstrings_parse () =
  (* triple-quoted strings, including multi-line docstrings *)
  let m =
    parse
      "def f():\n    \"\"\"Docstring\n    spanning lines.\"\"\"\n    return 1\n"
  in
  check_int "one def" 1 (List.length m);
  let m2 = parse "s = '''a 'quoted' b'''\n" in
  match (List.hd m2).Py_ast.kind with
  | Py_ast.Assign (_, Py_ast.Str s) ->
      check_str "content preserved" "a 'quoted' b" s
  | _ -> Alcotest.fail "expected string assignment"

let pretty_suite =
  [
    Alcotest.test_case "pretty: corpus round trips" `Quick test_pretty_round_trip_corpus;
    Alcotest.test_case "pretty: construct round trips" `Quick test_pretty_round_trip_constructs;
    Alcotest.test_case "docstrings" `Quick test_docstrings_parse;
  ]

let suite = suite @ pretty_suite
