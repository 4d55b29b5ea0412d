(* Golden token-stream equivalence: the zero-copy lexers must emit
   byte-identical streams (token, payload, line) to the historical copying
   lexers preserved in [Ref_lexers] — across the whole seed corpus of both
   languages and across seed-deterministic fuzz mutants (which drive the
   error paths: garbage bytes, truncation mid-literal, NULs).  The Python
   lexer's token buffer is rendered back to the reference token list.
   Raised [Lex_error]s must match message-and-line too. *)

module Corpus = Namer_corpus.Corpus
module Mutate = Namer_fuzz.Mutate
module Prng = Namer_util.Prng
module Py = Namer_pylang.Py_lexer
module Java = Namer_javalang.Java_lexer
module Ref_py = Ref_lexers.Py

let py_ref_render toks =
  let tok = function
    | Ref_py.Ident s -> "Ident " ^ s
    | Ref_py.Keyword s -> "Keyword " ^ s
    | Ref_py.Number s -> "Number " ^ s
    | Ref_py.String s -> Printf.sprintf "String %S" s
    | Ref_py.Op s -> "Op " ^ s
    | Ref_py.Newline -> "Newline"
    | Ref_py.Indent -> "Indent"
    | Ref_py.Dedent -> "Dedent"
    | Ref_py.Eof -> "Eof"
  in
  String.concat "\n"
    (List.map (fun { Ref_py.tok = t; line } -> Printf.sprintf "%4d %s" line (tok t)) toks)

(* The buffer, rendered back to the reference stream. *)
let py_render (b : Py.t) =
  py_ref_render
    (List.init (Py.length b) (fun i ->
         let tok =
           match Py.kind b i with
           | Py.Ident -> Ref_py.Ident (Py.text b i)
           | Py.Number -> Ref_py.Number (Py.text b i)
           | Py.String -> Ref_py.String (Py.text b i)
           | Py.Newline -> Ref_py.Newline
           | Py.Indent -> Ref_py.Indent
           | Py.Dedent -> Ref_py.Dedent
           | Py.Eof -> Ref_py.Eof
           | k when Py.is_keyword k -> Ref_py.Keyword (Py.text b i)
           | _ -> Ref_py.Op (Py.text b i)
         in
         { Ref_py.tok; line = Py.line b i }))

let java_render toks =
  let tok = function
    | Java.Ident s -> "Ident " ^ s
    | Java.Keyword s -> "Keyword " ^ s
    | Java.Int_lit s -> "Int " ^ s
    | Java.Float_lit s -> "Float " ^ s
    | Java.Str_lit s -> Printf.sprintf "Str %S" s
    | Java.Char_lit s -> Printf.sprintf "Char %S" s
    | Java.Op s -> "Op " ^ s
    | Java.Eof -> "Eof"
  in
  String.concat "\n"
    (List.map (fun { Java.tok = t; line } -> Printf.sprintf "%4d %s" line (tok t)) toks)

(* Run a tokenizer, folding the outcome (stream or lexer error) into one
   comparable string. *)
let outcome render exn_render f src =
  match f src with
  | toks -> "OK\n" ^ render toks
  | exception e -> "ERR " ^ exn_render e

let py_exn = function
  | Py.Lex_error (msg, line) -> Printf.sprintf "Lex_error(%S, %d)" msg line
  | e -> Printexc.to_string e

let py_ref_outcome = outcome py_ref_render py_exn Ref_py.tokenize
let py_outcome = outcome py_render py_exn Py.tokenize

let java_outcome =
  outcome java_render (function
    | Java.Lex_error (msg, line) -> Printf.sprintf "Lex_error(%S, %d)" msg line
    | e -> Printexc.to_string e)

let java_ref_outcome = java_outcome Ref_lexers.Java.tokenize
let java_new_outcome = java_outcome Java.tokenize

let seed_files lang =
  let cfg = { (Corpus.default_config lang) with Corpus.n_repos = 10; seed = 77 } in
  (Corpus.generate cfg).Corpus.files

let check_corpus lang ref_outcome new_outcome () =
  let files = seed_files lang in
  Alcotest.(check bool) "corpus non-trivial" true (List.length files > 50);
  List.iter
    (fun f ->
      Alcotest.(check string)
        (Printf.sprintf "%s/%s" f.Corpus.repo f.Corpus.path)
        (ref_outcome f.Corpus.source) (new_outcome f.Corpus.source))
    files

let check_mutants lang ref_outcome new_outcome () =
  let files = seed_files lang in
  let rng = Prng.create 4242 in
  let sources = Array.of_list (List.map (fun f -> f.Corpus.source) files) in
  for i = 0 to 299 do
    let src = sources.(i mod Array.length sources) in
    let m =
      Mutate.mutate ~rng ~pairs:[ ("width", "height") ] ~bomb_depth:60 ~lang src
    in
    Alcotest.(check string)
      (Printf.sprintf "mutant %d (%s)" i (Mutate.kind_name m.Mutate.m_kind))
      (ref_outcome m.Mutate.m_source) (new_outcome m.Mutate.m_source)
  done

(* Hand-picked edge inputs the generator rarely produces. *)
let py_edges () =
  let cases =
    [
      ""; "\n"; "   \n\t\n"; "x = 'a\\nb'"; "s = \"unterminated";
      "s = \"esc \\"; "s = 'line\nbreak'"; "r'raw\\n'"; "b\"bytes\"";
      "f'fstring'"; "u'unicode'"; "'''triple\nstring'''";
      "\"\"\"doc\n\"\"\""; "'''unterminated\ntriple"; "x = 0xDEADbeef";
      "y = 1.5e3"; "z = 1..2"; "if x:\n  y\n    # over\n  z\n";
      "a = (1,\n 2)\n"; "x = 1 \\\n + 2\n"; "x ** = 2"; "x@y";
      "def f():\n\tpass\n"; "x = '"; "'''";
      (* blank and whitespace-only CRLF lines inside a block *)
      "def f(x):\r\n    y = x\r\n\r\n    return y\r\n";
      "if x:\r\n  y\r\n   \r\n  z\r\n"; "if x:\n  y\n\r"; "\r\n\r\n"; "x\r";
      "\rx = 1\n"; "if a:\n  b\n \rc\n";
      (* many literals, an indentation stack past its base size, a long
         escaped literal *)
      String.concat "\n" (List.init 300 (fun i -> Printf.sprintf "s%d = 'lit%d'" i i));
      String.concat "" (List.init 80 (fun d -> String.make d ' ' ^ "if x:\n"))
      ^ String.make 80 ' ' ^ "y\n";
      "x = \"" ^ String.make 5000 'a' ^ "\\n\"\n";
    ]
  in
  List.iter
    (fun src ->
      Alcotest.(check string)
        (Printf.sprintf "py edge %S"
           (if String.length src > 60 then String.sub src 0 60 else src))
        (py_ref_outcome src) (py_outcome src))
    cases

(* One domain's buffer across a file that grows it past the capacity it
   may keep and a small file after it: both streams are exact, and the
   buffer is back at its base capacity for the small file. *)
let py_large_then_small () =
  let files = seed_files Corpus.Python in
  let corpus = String.concat "\n" (List.map (fun f -> f.Corpus.source) files) in
  let rec grow s =
    if Py.length (Py.tokenize s) > Py.retained_capacity then s else grow (s ^ "\n" ^ corpus)
  in
  let large = grow corpus in
  let small = (List.hd files).Corpus.source in
  Alcotest.(check string) "large file" (py_ref_outcome large) (py_outcome large);
  Alcotest.(check bool) "large file outgrew the retained capacity" true
    (Py.capacity (Py.tokenize large) > Py.retained_capacity);
  Alcotest.(check string) "small file after it" (py_ref_outcome small) (py_outcome small);
  Alcotest.(check int) "back at base capacity" Py.base_capacity
    (Py.capacity (Py.tokenize small))

(* A warmed lexer allocates next to nothing per token: spellings come from
   the shared pool and tokens go into the domain's reused buffer; string
   literals allocate their content. *)
let py_alloc_per_token () =
  let sources = List.map (fun f -> f.Corpus.source) (seed_files Corpus.Python) in
  List.iter (fun s -> ignore (Py.tokenize s)) sources;
  let tokens = ref 0 in
  let before = Gc.minor_words () in
  List.iter (fun s -> tokens := !tokens + Py.length (Py.tokenize s)) sources;
  let per_token = (Gc.minor_words () -. before) /. float_of_int !tokens in
  if per_token >= 1.0 then
    Alcotest.failf "%.2f words per token over %d tokens (limit 1)" per_token !tokens

let java_edges () =
  let cases =
    [
      ""; "\n"; "int x = 0xFF;"; "long l = 10_000L;"; "float f = 1.5f;";
      "double d = 1e-3;"; "double e = 2E+5;"; "int b = 0b1010;";
      "String s = \"a\\tb\";"; "char c = 'x';"; "char n = '\\n';";
      "String u = \"unterminated"; "String e2 = \"esc \\"; "/* open";
      "// line\nint y;"; "a >>>= 2;"; "x...y"; "m::n"; "String nl = \"a\nb\";";
      "int z = 1_2_3;"; "'"; "\"";
    ]
  in
  List.iter
    (fun src ->
      Alcotest.(check string)
        (Printf.sprintf "java edge %S" src)
        (java_ref_outcome src) (java_new_outcome src))
    cases

let suite =
  [
    Alcotest.test_case "python seed corpus identical" `Quick
      (check_corpus Corpus.Python py_ref_outcome py_outcome);
    Alcotest.test_case "java seed corpus identical" `Quick
      (check_corpus Corpus.Java java_ref_outcome java_new_outcome);
    Alcotest.test_case "python mutants identical" `Quick
      (check_mutants Corpus.Python py_ref_outcome py_outcome);
    Alcotest.test_case "java mutants identical" `Quick
      (check_mutants Corpus.Java java_ref_outcome java_new_outcome);
    Alcotest.test_case "python edge cases identical" `Quick py_edges;
    Alcotest.test_case "java edge cases identical" `Quick java_edges;
    Alcotest.test_case "python large file then small" `Quick py_large_then_small;
    Alcotest.test_case "python warmed lexer allocation" `Quick py_alloc_per_token;
  ]
