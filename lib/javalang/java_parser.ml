(** Recursive-descent parser for the Java subset.

    Disambiguation points that genuine Java grammars resolve with cover
    grammars are handled here with bounded backtracking ([attempt]):
    local-variable declarations vs. expression statements, casts vs.
    parenthesized expressions, and generic type arguments vs. comparison
    operators. *)

open Java_ast

exception Parse_error of string * int

module B = Namer_util.Tokbuf

(* The token buffer is the lexer's per-domain one, read by index inside
   [Java_lexer.with_tokens] (see [Py_parser]).  Reading past [Eof] raises,
   as indexing a token array did; looking ahead past it reads [Eof]. *)
type state = { toks : Java_lexer.t; mutable i : int }

let peek_tok st =
  if st.i < st.toks.B.len then Array.unsafe_get st.toks.B.kinds st.i
  else invalid_arg "index out of bounds"

let peek_ahead st k =
  if st.i + k < st.toks.B.len then Array.unsafe_get st.toks.B.kinds (st.i + k)
  else Java_lexer.Eof

let line st =
  if st.i < st.toks.B.len then Array.unsafe_get st.toks.B.lines st.i
  else invalid_arg "index out of bounds"

let advance st = st.i <- st.i + 1
let error st msg = raise (Parse_error (msg, line st))

(** Run [f]; on [Parse_error], restore the cursor and return [None]. *)
let attempt st f =
  let save = st.i in
  try Some (f ())
  with Parse_error _ ->
    st.i <- save;
    None

let accept_op st op =
  match peek_tok st with
  | Java_lexer.Op o when o = op ->
      advance st;
      true
  | _ -> false

let expect_op st op =
  if not (accept_op st op) then error st (Printf.sprintf "expected %S" op)

let accept_kw st kw =
  match peek_tok st with
  | Java_lexer.Keyword k when k = kw ->
      advance st;
      true
  | _ -> false

let expect_kw st kw =
  if not (accept_kw st kw) then error st (Printf.sprintf "expected %S" kw)

let expect_ident st =
  match peek_tok st with
  | Java_lexer.Ident s ->
      advance st;
      s
  | _ -> error st "expected identifier"

let primitive_types =
  [ "boolean"; "byte"; "char"; "short"; "int"; "long"; "float"; "double"; "void" ]

let modifiers =
  [
    "public"; "private"; "protected"; "static"; "final"; "abstract"; "native";
    "synchronized"; "transient"; "volatile"; "strictfp"; "default";
  ]

(* ------------------------------------------------------------------ *)
(* Types                                                               *)
(* ------------------------------------------------------------------ *)

let rec parse_type st : typ =
  let base =
    match peek_tok st with
    | Java_lexer.Keyword k when List.mem k primitive_types ->
        advance st;
        k
    | Java_lexer.Ident _ ->
        let parts = ref [ expect_ident st ] in
        let continue_ = ref true in
        while !continue_ do
          (* Dotted name, but stop before [.class] / [.method(] *)
          match (peek_tok st, peek_ahead st 1) with
          | Java_lexer.Op ".", Java_lexer.Ident _ ->
              advance st;
              parts := expect_ident st :: !parts
          | _ -> continue_ := false
        done;
        String.concat "." (List.rev !parts)
    | _ -> error st "expected type"
  in
  let targs =
    if peek_tok st = Java_lexer.Op "<" then parse_type_args st else []
  in
  let dims = ref 0 in
  while peek_tok st = Java_lexer.Op "[" && peek_ahead st 1 = Java_lexer.Op "]" do
    advance st;
    advance st;
    incr dims
  done;
  { base; targs; dims = !dims }

and parse_type_args st : typ list =
  expect_op st "<";
  if accept_op st ">" then [] (* diamond *)
  else begin
    let parse_arg () =
      if accept_op st "?" then begin
        if accept_kw st "extends" || accept_kw st "super" then
          ignore (parse_type st);
        simple_typ "?"
      end
      else parse_type st
    in
    let args = ref [ parse_arg () ] in
    while accept_op st "," do
      args := parse_arg () :: !args
    done;
    (* '>>' from nested generics arrives as one token; split it. *)
    (match peek_tok st with
    | Java_lexer.Op ">" -> advance st
    | Java_lexer.Op ">>" -> st.toks.B.kinds.(st.i) <- Java_lexer.Op ">"
    | Java_lexer.Op ">>>" -> st.toks.B.kinds.(st.i) <- Java_lexer.Op ">>"
    | _ -> error st "expected '>'");
    List.rev !args
  end

(* ------------------------------------------------------------------ *)
(* Expressions                                                         *)
(* ------------------------------------------------------------------ *)

let assign_ops =
  [ "="; "+="; "-="; "*="; "/="; "%="; "&="; "|="; "^="; "<<="; ">>="; ">>>=" ]

let rec parse_expr st : expr =
  (* Lambda: [x -> ...] or [(a, b) -> ...]. *)
  (match (peek_tok st, peek_ahead st 1) with
  | Java_lexer.Ident _, Java_lexer.Op "->" -> ()
  | _ -> ());
  match parse_lambda st with Some e -> e | None -> parse_assignment st

and parse_lambda st : expr option =
  match (peek_tok st, peek_ahead st 1) with
  | Java_lexer.Ident p, Java_lexer.Op "->" ->
      advance st;
      advance st;
      Some (Lambda_e ([ p ], parse_lambda_body st))
  | Java_lexer.Op "(", _ ->
      attempt st (fun () ->
          expect_op st "(";
          let params = ref [] in
          if not (accept_op st ")") then begin
            let param () =
              (* optionally typed parameter *)
              match (peek_tok st, peek_ahead st 1) with
              | Java_lexer.Ident _, (Java_lexer.Ident _ | Java_lexer.Op "<") ->
                  ignore (parse_type st);
                  expect_ident st
              | _ -> expect_ident st
            in
            params := [ param () ];
            while accept_op st "," do
              params := param () :: !params
            done;
            expect_op st ")"
          end;
          if peek_tok st <> Java_lexer.Op "->" then error st "not a lambda";
          advance st;
          Lambda_e (List.rev !params, parse_lambda_body st))
  | _ -> None

and parse_lambda_body st =
  if peek_tok st = Java_lexer.Op "{" then L_block (parse_block st)
  else L_expr (parse_expr st)

and parse_assignment st : expr =
  let lhs = parse_ternary st in
  match peek_tok st with
  | Java_lexer.Op o when List.mem o assign_ops ->
      advance st;
      Assign_e (lhs, o, parse_expr st)
  | _ -> lhs

and parse_ternary st : expr =
  let c = parse_binary st 0 in
  if accept_op st "?" then begin
    let a = parse_expr st in
    expect_op st ":";
    let b = parse_expr st in
    Ternary (c, a, b)
  end
  else c

(* Binary operators by increasing precedence level. *)
and binary_levels =
  [|
    [ "||" ];
    [ "&&" ];
    [ "|" ];
    [ "^" ];
    [ "&" ];
    [ "=="; "!=" ];
    [ "<"; ">"; "<="; ">=" ];
    [ "<<"; ">>"; ">>>" ];
    [ "+"; "-" ];
    [ "*"; "/"; "%" ];
  |]

and parse_binary st level : expr =
  if level >= Array.length binary_levels then parse_unary st
  else begin
    let e = ref (parse_binary st (level + 1)) in
    let continue_ = ref true in
    while !continue_ do
      match peek_tok st with
      | Java_lexer.Op o when List.mem o binary_levels.(level) ->
          advance st;
          e := Bin (!e, o, parse_binary st (level + 1))
      | Java_lexer.Keyword "instanceof" when level = 6 ->
          advance st;
          e := Instanceof (!e, parse_type st)
      | _ -> continue_ := false
    done;
    !e
  end

and parse_unary st : expr =
  match peek_tok st with
  | Java_lexer.Op (("!" | "~" | "-" | "+") as o) ->
      advance st;
      Un (o, parse_unary st)
  | Java_lexer.Op (("++" | "--") as o) ->
      advance st;
      Un (o, parse_unary st)
  | Java_lexer.Op "(" -> (
      (* Cast vs parenthesized expression. *)
      let cast =
        attempt st (fun () ->
            expect_op st "(";
            let t = parse_type st in
            expect_op st ")";
            (* A cast must be followed by something that can start a unary
               expression. *)
            match peek_tok st with
            | Java_lexer.Ident _ | Java_lexer.Int_lit _ | Java_lexer.Float_lit _
            | Java_lexer.Str_lit _ | Java_lexer.Char_lit _
            | Java_lexer.Keyword ("new" | "this" | "true" | "false" | "null")
            | Java_lexer.Op ("(" | "!" | "~") ->
                Cast (t, parse_unary st)
            | _ -> error st "not a cast")
      in
      match cast with Some e -> e | None -> parse_postfix st)
  | _ -> parse_postfix st

and parse_postfix st : expr =
  let e = ref (parse_primary st) in
  let continue_ = ref true in
  while !continue_ do
    match (peek_tok st, peek_ahead st 1) with
    | Java_lexer.Op ".", Java_lexer.Keyword "class" ->
        advance st;
        advance st;
        e := Class_lit (simple_typ (match !e with Name n -> n | _ -> "?"))
    | Java_lexer.Op ".", Java_lexer.Ident m ->
        advance st;
        advance st;
        if peek_tok st = Java_lexer.Op "(" then begin
          let args = parse_call_args st in
          e := Call { recv = Some !e; meth = m; args }
        end
        else e := Field (!e, m)
    | Java_lexer.Op "[", _ ->
        advance st;
        let idx = parse_expr st in
        expect_op st "]";
        e := Index (!e, idx)
    | Java_lexer.Op (("++" | "--") as o), _ ->
        advance st;
        e := Postfix (!e, o)
    | Java_lexer.Op "::", _ ->
        (* method reference: abstract as a field access *)
        advance st;
        let m =
          match peek_tok st with
          | Java_lexer.Ident m ->
              advance st;
              m
          | Java_lexer.Keyword "new" ->
              advance st;
              "new"
          | _ -> error st "expected method reference name"
        in
        e := Field (!e, m)
    | _ -> continue_ := false
  done;
  !e

and parse_call_args st : expr list =
  expect_op st "(";
  if accept_op st ")" then []
  else begin
    let args = ref [ parse_expr st ] in
    while accept_op st "," do
      args := parse_expr st :: !args
    done;
    expect_op st ")";
    List.rev !args
  end

and parse_primary st : expr =
  match peek_tok st with
  | Java_lexer.Ident name ->
      advance st;
      if peek_tok st = Java_lexer.Op "(" then
        let args = parse_call_args st in
        Call { recv = None; meth = name; args }
      else Name name
  | Java_lexer.Int_lit v ->
      advance st;
      Lit_int v
  | Java_lexer.Float_lit v ->
      advance st;
      Lit_float v
  | Java_lexer.Str_lit v ->
      advance st;
      Lit_str v
  | Java_lexer.Char_lit v ->
      advance st;
      Lit_char v
  | Java_lexer.Keyword "true" ->
      advance st;
      Lit_bool true
  | Java_lexer.Keyword "false" ->
      advance st;
      Lit_bool false
  | Java_lexer.Keyword "null" ->
      advance st;
      Lit_null
  | Java_lexer.Keyword "this" ->
      advance st;
      if peek_tok st = Java_lexer.Op "(" then
        let args = parse_call_args st in
        Call { recv = Some This; meth = "<init>"; args }
      else This
  | Java_lexer.Keyword "super" ->
      advance st;
      if accept_op st "." then begin
        let m = expect_ident st in
        if peek_tok st = Java_lexer.Op "(" then Super_call (m, parse_call_args st)
        else Field (Name "super", m)
      end
      else Super_call ("<init>", parse_call_args st)
  | Java_lexer.Keyword "new" -> (
      advance st;
      let t = parse_type st in
      match peek_tok st with
      | Java_lexer.Op "(" ->
          let args = parse_call_args st in
          (* anonymous class body *)
          if peek_tok st = Java_lexer.Op "{" then skip_balanced_braces st;
          New (t, args)
      | Java_lexer.Op "[" ->
          let dims = ref [] in
          while peek_tok st = Java_lexer.Op "[" do
            advance st;
            (match peek_tok st with
            | Java_lexer.Op "]" -> ()
            | _ -> dims := parse_expr st :: !dims);
            expect_op st "]"
          done;
          if peek_tok st = Java_lexer.Op "{" then begin
            let init = parse_array_init st in
            ignore init;
            New_array (t, List.rev !dims)
          end
          else New_array (t, List.rev !dims)
      | _ -> error st "expected '(' or '[' after new")
  | Java_lexer.Op "(" ->
      advance st;
      let e = parse_expr st in
      expect_op st ")";
      e
  | Java_lexer.Op "{" -> Array_init (parse_array_init_items st)
  | Java_lexer.Keyword k when List.mem k primitive_types ->
      (* primitive class literal like [int.class] *)
      advance st;
      if accept_op st "." then begin
        expect_kw st "class";
        Class_lit (simple_typ k)
      end
      else error st "unexpected primitive type in expression"
  | _ -> error st "expected expression"

and parse_array_init st : expr =
  Array_init (parse_array_init_items st)

and parse_array_init_items st : expr list =
  expect_op st "{";
  let items = ref [] in
  if not (accept_op st "}") then begin
    items := [ parse_expr st ];
    while accept_op st "," do
      if peek_tok st <> Java_lexer.Op "}" then items := parse_expr st :: !items
    done;
    expect_op st "}"
  end;
  List.rev !items

and skip_balanced_braces st =
  expect_op st "{";
  let depth = ref 1 in
  while !depth > 0 do
    (match peek_tok st with
    | Java_lexer.Op "{" -> incr depth
    | Java_lexer.Op "}" -> decr depth
    | Java_lexer.Eof -> error st "unterminated block"
    | _ -> ());
    advance st
  done

(* ------------------------------------------------------------------ *)
(* Statements                                                          *)
(* ------------------------------------------------------------------ *)

and parse_block st : stmt list =
  expect_op st "{";
  let stmts = ref [] in
  while peek_tok st <> Java_lexer.Op "}" do
    if peek_tok st = Java_lexer.Eof then error st "unterminated block";
    stmts := parse_stmt st :: !stmts
  done;
  expect_op st "}";
  List.rev !stmts

and parse_local_decl st : stmt_kind =
  (match peek_tok st with
  | Java_lexer.Keyword "final" -> advance st
  | _ -> ());
  let t = parse_type st in
  let parse_one () =
    let name = expect_ident st in
    let extra_dims = ref 0 in
    while peek_tok st = Java_lexer.Op "[" && peek_ahead st 1 = Java_lexer.Op "]" do
      advance st;
      advance st;
      incr extra_dims
    done;
    let init = if accept_op st "=" then Some (parse_expr st) else None in
    (name, init)
  in
  let decls = ref [ parse_one () ] in
  while accept_op st "," do
    decls := parse_one () :: !decls
  done;
  expect_op st ";";
  (match peek_tok st with _ -> ());
  Local (t, List.rev !decls)

and parse_stmt st : stmt =
  let ln = line st in
  let mk kind = { line = ln; kind } in
  match peek_tok st with
  | Java_lexer.Op "{" -> mk (Block (parse_block st))
  | Java_lexer.Op ";" ->
      advance st;
      mk Empty
  | Java_lexer.Keyword "if" ->
      advance st;
      expect_op st "(";
      let cond = parse_expr st in
      expect_op st ")";
      let then_ = parse_stmt_as_block st in
      let else_ = if accept_kw st "else" then parse_stmt_as_block st else [] in
      mk (If (cond, then_, else_))
  | Java_lexer.Keyword "while" ->
      advance st;
      expect_op st "(";
      let cond = parse_expr st in
      expect_op st ")";
      mk (While (cond, parse_stmt_as_block st))
  | Java_lexer.Keyword "do" ->
      advance st;
      let body = parse_stmt_as_block st in
      expect_kw st "while";
      expect_op st "(";
      let cond = parse_expr st in
      expect_op st ")";
      expect_op st ";";
      mk (Do_while (body, cond))
  | Java_lexer.Keyword "for" -> (
      advance st;
      expect_op st "(";
      (* enhanced for: [for (T x : xs)] *)
      let enhanced =
        attempt st (fun () ->
            (match peek_tok st with
            | Java_lexer.Keyword "final" -> advance st
            | _ -> ());
            let t = parse_type st in
            let name = expect_ident st in
            expect_op st ":";
            let iter = parse_expr st in
            expect_op st ")";
            (t, name, iter))
      in
      match enhanced with
      | Some (t, name, iter) -> mk (Foreach (t, name, iter, parse_stmt_as_block st))
      | None ->
          let init =
            if accept_op st ";" then Fi_none
            else
              match
                attempt st (fun () ->
                    match parse_local_decl st with
                    | Local (t, ds) -> (t, ds)
                    | _ -> error st "unreachable")
              with
              | Some (t, ds) -> Fi_local (t, ds)
              | None ->
                  let es = ref [ parse_expr st ] in
                  while accept_op st "," do
                    es := parse_expr st :: !es
                  done;
                  expect_op st ";";
                  Fi_expr (List.rev !es)
          in
          let cond =
            if peek_tok st = Java_lexer.Op ";" then None else Some (parse_expr st)
          in
          expect_op st ";";
          let update = ref [] in
          if peek_tok st <> Java_lexer.Op ")" then begin
            update := [ parse_expr st ];
            while accept_op st "," do
              update := parse_expr st :: !update
            done
          end;
          expect_op st ")";
          mk (For (init, cond, List.rev !update, parse_stmt_as_block st)))
  | Java_lexer.Keyword "return" ->
      advance st;
      let v = if peek_tok st = Java_lexer.Op ";" then None else Some (parse_expr st) in
      expect_op st ";";
      mk (Return v)
  | Java_lexer.Keyword "throw" ->
      advance st;
      let e = parse_expr st in
      expect_op st ";";
      mk (Throw e)
  | Java_lexer.Keyword "break" ->
      advance st;
      (match peek_tok st with Java_lexer.Ident _ -> advance st | _ -> ());
      expect_op st ";";
      mk Break
  | Java_lexer.Keyword "continue" ->
      advance st;
      (match peek_tok st with Java_lexer.Ident _ -> advance st | _ -> ());
      expect_op st ";";
      mk Continue
  | Java_lexer.Keyword "try" ->
      advance st;
      (* try-with-resources: abstract the resource as a leading local decl *)
      let resources =
        if peek_tok st = Java_lexer.Op "(" then begin
          advance st;
          let rs = ref [] in
          let parse_res () =
            match
              attempt st (fun () ->
                  match parse_resource st with
                  | r -> r)
            with
            | Some r -> rs := r :: !rs
            | None -> ignore (parse_expr st)
          in
          parse_res ();
          while accept_op st ";" do
            if peek_tok st <> Java_lexer.Op ")" then parse_res ()
          done;
          expect_op st ")";
          List.rev !rs
        end
        else []
      in
      let body = parse_block st in
      let catches = ref [] in
      while peek_tok st = Java_lexer.Keyword "catch" do
        advance st;
        expect_op st "(";
        (match peek_tok st with
        | Java_lexer.Keyword "final" -> advance st
        | _ -> ());
        let ctype = parse_type st in
        (* multi-catch [A | B e]: keep the first type *)
        while accept_op st "|" do
          ignore (parse_type st)
        done;
        let cbind = expect_ident st in
        expect_op st ")";
        let cbody = parse_block st in
        catches := { ctype; cbind; cbody } :: !catches
      done;
      let fin = if accept_kw st "finally" then parse_block st else [] in
      mk (Try (resources @ body, List.rev !catches, fin))
  | Java_lexer.Keyword "synchronized" ->
      advance st;
      expect_op st "(";
      let e = parse_expr st in
      expect_op st ")";
      mk (Synchronized (e, parse_block st))
  | Java_lexer.Keyword "assert" ->
      advance st;
      let e = parse_expr st in
      if accept_op st ":" then ignore (parse_expr st);
      expect_op st ";";
      mk (Expr_stmt (Call { recv = None; meth = "assert"; args = [ e ] }))
  | Java_lexer.Keyword "switch" ->
      (* Minimal: parse and abstract as a block of case-body statements. *)
      advance st;
      expect_op st "(";
      let scrutinee = parse_expr st in
      expect_op st ")";
      expect_op st "{";
      let stmts = ref [ { line = ln; kind = Expr_stmt scrutinee } ] in
      while peek_tok st <> Java_lexer.Op "}" do
        match peek_tok st with
        | Java_lexer.Keyword "case" ->
            advance st;
            ignore (parse_expr st);
            expect_op st ":"
        | Java_lexer.Keyword "default" ->
            advance st;
            expect_op st ":"
        | _ -> stmts := parse_stmt st :: !stmts
      done;
      expect_op st "}";
      mk (Block (List.rev !stmts))
  | _ -> (
      (* local variable declaration vs expression statement *)
      match attempt st (fun () -> parse_local_decl st) with
      | Some kind -> mk kind
      | None ->
          let e = parse_expr st in
          expect_op st ";";
          mk (Expr_stmt e))

and parse_resource st : stmt =
  let ln = line st in
  (match peek_tok st with
  | Java_lexer.Keyword "final" -> advance st
  | _ -> ());
  let t = parse_type st in
  let name = expect_ident st in
  expect_op st "=";
  let init = parse_expr st in
  (match peek_tok st with
  | Java_lexer.Op (";" | ")") -> ()
  | _ -> error st "expected ';' or ')'");
  { line = ln; kind = Local (t, [ (name, Some init) ]) }

and parse_stmt_as_block st : stmt list =
  if peek_tok st = Java_lexer.Op "{" then parse_block st else [ parse_stmt st ]

(* ------------------------------------------------------------------ *)
(* Declarations                                                        *)
(* ------------------------------------------------------------------ *)

let parse_modifiers st =
  let mods = ref [] in
  let continue_ = ref true in
  while !continue_ do
    match peek_tok st with
    | Java_lexer.Keyword k when List.mem k modifiers ->
        advance st;
        mods := k :: !mods
    | Java_lexer.Op "@" ->
        (* annotation: skip name and optional arguments *)
        advance st;
        ignore (expect_ident st);
        while accept_op st "." do
          ignore (expect_ident st)
        done;
        if peek_tok st = Java_lexer.Op "(" then begin
          let depth = ref 0 in
          let go = ref true in
          while !go do
            (match peek_tok st with
            | Java_lexer.Op "(" -> incr depth
            | Java_lexer.Op ")" ->
                decr depth;
                if !depth = 0 then go := false
            | Java_lexer.Eof -> error st "unterminated annotation"
            | _ -> ());
            advance st
          done
        end
    | _ -> continue_ := false
  done;
  List.rev !mods

let rec parse_class st : cls =
  let cline = line st in
  let cmods = parse_modifiers st in
  let ckind =
    if accept_kw st "class" then `Class
    else if accept_kw st "interface" then `Interface
    else if accept_kw st "enum" then `Enum
    else error st "expected class, interface or enum"
  in
  let cname = expect_ident st in
  if peek_tok st = Java_lexer.Op "<" then ignore (parse_type_args st);
  let cextends = if accept_kw st "extends" then Some (parse_type st) else None in
  let cimplements =
    if accept_kw st "implements" then begin
      let ts = ref [ parse_type st ] in
      while accept_op st "," do
        ts := parse_type st :: !ts
      done;
      List.rev !ts
    end
    else []
  in
  expect_op st "{";
  (* enum constants *)
  if ckind = `Enum then begin
    let continue_ = ref true in
    while !continue_ do
      match peek_tok st with
      | Java_lexer.Ident _ -> (
          advance st;
          if peek_tok st = Java_lexer.Op "(" then ignore (parse_call_args st);
          if peek_tok st = Java_lexer.Op "{" then skip_balanced_braces st;
          match peek_tok st with
          | Java_lexer.Op "," -> advance st
          | Java_lexer.Op ";" ->
              advance st;
              continue_ := false
          | Java_lexer.Op "}" -> continue_ := false
          | _ -> continue_ := false)
      | Java_lexer.Op ";" ->
          advance st;
          continue_ := false
      | _ -> continue_ := false
    done
  end;
  let members = ref [] in
  while peek_tok st <> Java_lexer.Op "}" do
    if peek_tok st = Java_lexer.Eof then error st "unterminated class body";
    members := parse_member st cname :: !members
  done;
  expect_op st "}";
  { cmods; ckind; cname; cextends; cimplements; members = List.rev !members; cline }

and parse_member st cname : member =
  let mline = line st in
  let mmods = parse_modifiers st in
  match peek_tok st with
  | Java_lexer.Keyword ("class" | "interface" | "enum") ->
      (* put modifiers back conceptually: parse_class re-parses them, but we
         already consumed them; reconstruct by calling the body directly. *)
      let c = parse_class_with_mods st mmods in
      Class_m c
  | Java_lexer.Op "{" -> Init_m (parse_block st)
  | Java_lexer.Op "<" ->
      (* generic method: skip type parameters *)
      ignore (parse_type_args st);
      parse_method_or_field st cname mmods mline
  | _ -> parse_method_or_field st cname mmods mline

and parse_class_with_mods st mods : cls =
  let c = parse_class st in
  { c with cmods = mods @ c.cmods }

and parse_method_or_field st cname mmods mline : member =
  (* Constructor: [Name (] where Name = enclosing class. *)
  match (peek_tok st, peek_ahead st 1) with
  | Java_lexer.Ident n, Java_lexer.Op "(" when n = cname ->
      advance st;
      let params = parse_params st in
      skip_throws st;
      let mbody = Some (parse_block st) in
      Method_m { mmods; rtype = None; mname = "<init>"; params; mbody; mline }
  | _ -> (
      let t = parse_type st in
      let name = expect_ident st in
      if peek_tok st = Java_lexer.Op "(" then begin
        let params = parse_params st in
        skip_throws st;
        let mbody =
          if accept_op st ";" then None
          else if peek_tok st = Java_lexer.Op "{" then Some (parse_block st)
          else error st "expected method body or ';'"
        in
        Method_m { mmods; rtype = Some t; mname = name; params; mbody; mline }
      end
      else begin
        (* field; possibly several declarators — emit the first, re-queue the
           rest by flattening into one Field_m per declarator would change the
           return type; keep the first and parse the others into hidden
           fields is lossy. Instead parse all declarators and synthesize a
           combined marker: simplest is to return a Field_m for the first and
           swallow the rest (the corpus generates one declarator per field). *)
        let finit = if accept_op st "=" then Some (parse_expr st) else None in
        while accept_op st "," do
          let _ = expect_ident st in
          if accept_op st "=" then ignore (parse_expr st)
        done;
        expect_op st ";";
        Field_m { fmods = mmods; ftype = t; fname = name; finit; fline = mline }
      end)

and parse_params st : (typ * string) list =
  expect_op st "(";
  if accept_op st ")" then []
  else begin
    let parse_param () =
      (match peek_tok st with
      | Java_lexer.Keyword "final" -> advance st
      | _ -> ());
      let t = parse_type st in
      let t = if accept_op st "..." then { t with dims = t.dims + 1 } else t in
      let name = expect_ident st in
      let extra = ref 0 in
      while peek_tok st = Java_lexer.Op "[" && peek_ahead st 1 = Java_lexer.Op "]" do
        advance st;
        advance st;
        incr extra
      done;
      ({ t with dims = t.dims + !extra }, name)
    in
    let params = ref [ parse_param () ] in
    while accept_op st "," do
      params := parse_param () :: !params
    done;
    expect_op st ")";
    List.rev !params
  end

and skip_throws st =
  if accept_kw st "throws" then begin
    ignore (parse_type st);
    while accept_op st "," do
      ignore (parse_type st)
    done
  end

(** [parse_compilation_unit src] parses a whole [.java] file. *)
let parse_compilation_unit src : compilation_unit =
  Java_lexer.with_tokens src @@ fun toks ->
  let st = { toks; i = 0 } in
  let package =
    if accept_kw st "package" then begin
      let parts = ref [ expect_ident st ] in
      while accept_op st "." do
        parts := expect_ident st :: !parts
      done;
      expect_op st ";";
      Some (String.concat "." (List.rev !parts))
    end
    else None
  in
  let imports = ref [] in
  while peek_tok st = Java_lexer.Keyword "import" do
    advance st;
    if accept_kw st "static" then ();
    let parts = ref [ expect_ident st ] in
    let continue_ = ref true in
    while !continue_ do
      if accept_op st "." then
        if accept_op st "*" then begin
          parts := "*" :: !parts;
          continue_ := false
        end
        else parts := expect_ident st :: !parts
      else continue_ := false
    done;
    expect_op st ";";
    imports := String.concat "." (List.rev !parts) :: !imports
  done;
  let classes = ref [] in
  while peek_tok st <> Java_lexer.Eof do
    match peek_tok st with
    | Java_lexer.Op ";" -> advance st
    | _ -> classes := parse_class st :: !classes
  done;
  { package; imports = List.rev !imports; classes = List.rev !classes }
