(** Recursive-descent parser for the Python subset.

    Grammar follows the CPython reference grammar restricted to the subset in
    {!Py_ast}.  Expression parsing uses classic precedence layering:
    lambda < or < and < not < comparison < arithmetic < term < unary < power
    < postfix (call / attribute / subscript) < atom. *)

open Py_ast
module L = Py_lexer
module B = Namer_util.Tokbuf

exception Parse_error of string * int  (** message, line *)

(* The token buffer is the lexer's per-domain one: a parse runs inside
   [Py_lexer.with_tokens], whose lock keeps the domain's other threads
   from lexing, and never awaits, so no other lexing task can refill it
   meanwhile.  Its fields are read directly (a call per token read would
   not be inlined across modules).  Reading past [Eof] raises, as
   indexing a token array did. *)
type state = { toks : L.t; mutable i : int }

let kind_at st i =
  if i < st.toks.B.len then Array.unsafe_get st.toks.B.kinds i
  else invalid_arg "index out of bounds"

let peek_tok st = kind_at st st.i

let line st =
  if st.i < st.toks.B.len then Array.unsafe_get st.toks.B.lines st.i
  else invalid_arg "index out of bounds"

let text st = st.toks.B.texts.(st.i)
let advance st = st.i <- st.i + 1

let error st msg = raise (Parse_error (msg, line st))

let expect_op st op =
  if peek_tok st = op then advance st
  else error st (Printf.sprintf "expected %S" (L.kind_text op))

let expect_kw st kw =
  if peek_tok st = kw then advance st
  else error st (Printf.sprintf "expected keyword %S" (L.kind_text kw))

let accept st k =
  if peek_tok st = k then begin
    advance st;
    true
  end
  else false

let expect_ident st =
  match peek_tok st with
  | L.Ident ->
      let s = text st in
      advance st;
      s
  | _ -> error st "expected identifier"

let expect_newline st =
  match peek_tok st with
  | L.Newline -> advance st
  | L.Eof -> ()
  | _ -> error st "expected end of line"

(* ------------------------------------------------------------------ *)
(* Expressions                                                         *)
(* ------------------------------------------------------------------ *)

let rec parse_expr st = parse_lambda st

and parse_lambda st =
  if accept st L.Kw_lambda then begin
    let params = ref [] in
    (match peek_tok st with
    | L.Colon -> ()
    | _ ->
        params := [ expect_ident st ];
        while accept st L.Comma do
          params := expect_ident st :: !params
        done);
    expect_op st L.Colon;
    let body = parse_or st in
    Lambda (List.rev !params, body)
  end
  else parse_ternary st

and parse_ternary st =
  (* [a if cond else b], kept as [Bool_op "ifexp"] with three operands. *)
  let e = parse_or st in
  if accept st L.Kw_if then begin
    let cond = parse_or st in
    expect_kw st L.Kw_else;
    let els = parse_ternary st in
    Bool_op ("ifexp", [ e; cond; els ])
  end
  else e

and parse_or st =
  let e = parse_and st in
  if accept st L.Kw_or then begin
    let rest = ref [ parse_and st ] in
    while accept st L.Kw_or do
      rest := parse_and st :: !rest
    done;
    Bool_op ("or", e :: List.rev !rest)
  end
  else e

and parse_and st =
  let e = parse_not st in
  if accept st L.Kw_and then begin
    let rest = ref [ parse_not st ] in
    while accept st L.Kw_and do
      rest := parse_not st :: !rest
    done;
    Bool_op ("and", e :: List.rev !rest)
  end
  else e

and parse_not st =
  if accept st L.Kw_not then Unary_op ("not", parse_not st) else parse_comparison st

and parse_comparison st =
  let e = parse_arith st in
  let op =
    match peek_tok st with
    | L.Eq | L.Not_eq | L.Lt | L.Gt | L.Le | L.Ge ->
        let o = text st in
        advance st;
        o
    | L.Kw_in ->
        advance st;
        "in"
    | L.Kw_is ->
        advance st;
        if accept st L.Kw_not then "is not" else "is"
    | L.Kw_not ->
        advance st;
        expect_kw st L.Kw_in;
        "not in"
    | _ -> ""
  in
  if op = "" then e else Compare (e, op, parse_arith st)

and parse_arith st =
  let e = ref (parse_term st) in
  let continue_ = ref true in
  while !continue_ do
    match peek_tok st with
    | L.Plus | L.Minus | L.Pipe | L.Caret | L.Amp | L.Lshift | L.Rshift ->
        let o = text st in
        advance st;
        e := Bin_op (!e, o, parse_term st)
    | _ -> continue_ := false
  done;
  !e

and parse_term st =
  let e = ref (parse_unary st) in
  let continue_ = ref true in
  while !continue_ do
    match peek_tok st with
    | L.Star | L.Slash | L.Floordiv | L.Percent | L.At ->
        let o = text st in
        advance st;
        e := Bin_op (!e, o, parse_unary st)
    | _ -> continue_ := false
  done;
  !e

and parse_unary st =
  match peek_tok st with
  | L.Minus | L.Plus | L.Tilde ->
      let o = text st in
      advance st;
      Unary_op (o, parse_unary st)
  | _ -> parse_power st

and parse_power st =
  let e = parse_postfix st in
  if accept st L.Pow then Bin_op (e, "**", parse_unary st) else e

and parse_arg st args kwargs =
  match peek_tok st with
  | L.Star ->
      advance st;
      args := Star_arg (parse_expr st) :: !args
  | L.Pow ->
      advance st;
      args := Double_star_arg (parse_expr st) :: !args
  | L.Ident when kind_at st (st.i + 1) = L.Assign ->
      let name = text st in
      advance st;
      advance st;
      kwargs := (name, parse_expr st) :: !kwargs
  | _ -> args := parse_expr st :: !args

and parse_postfix st =
  let e = ref (parse_atom st) in
  let continue_ = ref true in
  while !continue_ do
    match peek_tok st with
    | L.Dot ->
        advance st;
        let attr = expect_ident st in
        e := Attribute (!e, attr)
    | L.Lparen ->
        advance st;
        let args = ref [] and kwargs = ref [] in
        if not (accept st L.Rparen) then begin
          parse_arg st args kwargs;
          while accept st L.Comma do
            if peek_tok st <> L.Rparen then parse_arg st args kwargs
          done;
          expect_op st L.Rparen
        end;
        e := Call { func = !e; args = List.rev !args; keywords = List.rev !kwargs }
    | L.Lbrack ->
        advance st;
        (* Subscript or slice; slices are flattened to their first bound. *)
        let idx = if peek_tok st = L.Colon then Num "0" else parse_expr st in
        (if accept st L.Colon then
           match peek_tok st with L.Rbrack -> () | _ -> ignore (parse_expr st));
        expect_op st L.Rbrack;
        e := Subscript (!e, idx)
    | _ -> continue_ := false
  done;
  !e

and parse_atom st =
  match peek_tok st with
  | L.Ident ->
      let s = text st in
      advance st;
      Name s
  | L.Number ->
      let v = text st in
      advance st;
      Num v
  | L.String ->
      let v = text st in
      advance st;
      Str v
  | L.Kw_true ->
      advance st;
      Bool true
  | L.Kw_false ->
      advance st;
      Bool false
  | L.Kw_none ->
      advance st;
      None_lit
  | L.Kw_yield ->
      advance st;
      (* yield [expr] — modelled as a call to the pseudo-function yield. *)
      let arg =
        match peek_tok st with L.Newline | L.Rparen -> [] | _ -> [ parse_expr st ]
      in
      Call { func = Name "yield"; args = arg; keywords = [] }
  | L.Lparen ->
      advance st;
      if accept st L.Rparen then Tuple_lit []
      else begin
        let e = parse_expr st in
        if peek_tok st = L.Comma then begin
          let items = ref [ e ] in
          while accept st L.Comma do
            if peek_tok st <> L.Rparen then items := parse_expr st :: !items
          done;
          expect_op st L.Rparen;
          Tuple_lit (List.rev !items)
        end
        else begin
          expect_op st L.Rparen;
          e
        end
      end
  | L.Lbrack ->
      advance st;
      let items = ref [] in
      if not (accept st L.Rbrack) then begin
        items := [ parse_expr st ];
        (* list comprehension: [e for x in xs] — abstract as the list of
           its head expression. *)
        if peek_tok st = L.Kw_for then begin
          while peek_tok st <> L.Rbrack do
            advance st
          done;
          expect_op st L.Rbrack
        end
        else begin
          while accept st L.Comma do
            if peek_tok st <> L.Rbrack then items := parse_expr st :: !items
          done;
          expect_op st L.Rbrack
        end
      end;
      List_lit (List.rev !items)
  | L.Lbrace ->
      advance st;
      let items = ref [] in
      if not (accept st L.Rbrace) then begin
        let k = parse_expr st in
        expect_op st L.Colon;
        let v = parse_expr st in
        items := [ (k, v) ];
        while accept st L.Comma do
          if peek_tok st <> L.Rbrace then begin
            let k = parse_expr st in
            expect_op st L.Colon;
            let v = parse_expr st in
            items := (k, v) :: !items
          end
        done;
        expect_op st L.Rbrace
      end;
      Dict_lit (List.rev !items)
  | _ -> error st "expected expression"

(* ------------------------------------------------------------------ *)
(* Statements                                                          *)
(* ------------------------------------------------------------------ *)

let rec parse_block st =
  (* A suite is either inline after ':' on the same line, or an indented
     block. *)
  if peek_tok st = L.Newline then begin
    advance st;
    (match peek_tok st with L.Indent -> advance st | _ -> error st "expected indented block");
    let stmts = ref [] in
    while peek_tok st <> L.Dedent && peek_tok st <> L.Eof do
      stmts := parse_stmt st :: !stmts
    done;
    if peek_tok st = L.Dedent then advance st;
    List.concat (List.rev !stmts)
  end
  else parse_simple_stmt_line st

and parse_stmt st : stmt list =
  match peek_tok st with
  | L.Kw_def -> [ parse_funcdef st [] ]
  | L.Kw_class -> [ parse_classdef st ]
  | L.At -> (
      (* decorators *)
      let decorators = ref [] in
      while accept st L.At do
        decorators := parse_expr st :: !decorators;
        expect_newline st
      done;
      match peek_tok st with
      | L.Kw_def -> [ parse_funcdef st (List.rev !decorators) ]
      | L.Kw_class -> [ parse_classdef st ]
      | _ -> error st "expected def or class after decorator")
  | L.Kw_if -> [ parse_if st ]
  | L.Kw_for -> [ parse_for st ]
  | L.Kw_while -> [ parse_while st ]
  | L.Kw_try -> [ parse_try st ]
  | L.Kw_with -> [ parse_with st ]
  | L.Newline ->
      advance st;
      []
  | _ -> parse_simple_stmt_line st

and parse_param st params =
  let pkind = if accept st L.Pow then Double_star else if accept st L.Star then Star else Plain in
  let pname = expect_ident st in
  let default = if accept st L.Assign then Some (parse_expr st) else None in
  params := { pname; pkind; default } :: !params

and parse_funcdef st decorators =
  let ln = line st in
  expect_kw st L.Kw_def;
  let name = expect_ident st in
  expect_op st L.Lparen;
  let params = ref [] in
  if not (accept st L.Rparen) then begin
    parse_param st params;
    while accept st L.Comma do
      if peek_tok st <> L.Rparen then parse_param st params
    done;
    expect_op st L.Rparen
  end;
  if accept st L.Arrow then ignore (parse_expr st);
  expect_op st L.Colon;
  let body = parse_block st in
  { line = ln; kind = Function_def { name; params = List.rev !params; body; decorators } }

and parse_classdef st =
  let ln = line st in
  expect_kw st L.Kw_class;
  let cname = expect_ident st in
  let bases = ref [] in
  if accept st L.Lparen then begin
    if not (accept st L.Rparen) then begin
      bases := [ parse_expr st ];
      while accept st L.Comma do
        bases := parse_expr st :: !bases
      done;
      expect_op st L.Rparen
    end
  end;
  expect_op st L.Colon;
  let cbody = parse_block st in
  { line = ln; kind = Class_def { cname; bases = List.rev !bases; cbody } }

and parse_if st =
  let ln = line st in
  expect_kw st L.Kw_if;
  let cond = parse_expr st in
  expect_op st L.Colon;
  let body = parse_block st in
  let branches = ref [ (cond, body) ] in
  let orelse = ref [] in
  let continue_ = ref true in
  while !continue_ do
    if accept st L.Kw_elif then begin
      let c = parse_expr st in
      expect_op st L.Colon;
      branches := (c, parse_block st) :: !branches
    end
    else if accept st L.Kw_else then begin
      expect_op st L.Colon;
      orelse := parse_block st;
      continue_ := false
    end
    else continue_ := false
  done;
  { line = ln; kind = If (List.rev !branches, !orelse) }

and parse_for st =
  let ln = line st in
  expect_kw st L.Kw_for;
  let target = parse_target_tuple st in
  expect_kw st L.Kw_in;
  let iter = parse_expr st in
  expect_op st L.Colon;
  let body = parse_block st in
  let orelse =
    if accept st L.Kw_else then begin
      expect_op st L.Colon;
      parse_block st
    end
    else []
  in
  { line = ln; kind = For (target, iter, body, orelse) }

and parse_target_tuple st =
  let first = parse_postfix st in
  if peek_tok st = L.Comma then begin
    let items = ref [ first ] in
    while accept st L.Comma do
      match peek_tok st with
      | L.Kw_in | L.Assign -> ()
      | _ -> items := parse_postfix st :: !items
    done;
    Tuple_lit (List.rev !items)
  end
  else first

and parse_while st =
  let ln = line st in
  expect_kw st L.Kw_while;
  let cond = parse_expr st in
  expect_op st L.Colon;
  let body = parse_block st in
  if accept st L.Kw_else then begin
    expect_op st L.Colon;
    ignore (parse_block st)
  end;
  { line = ln; kind = While (cond, body) }

and parse_try st =
  let ln = line st in
  expect_kw st L.Kw_try;
  expect_op st L.Colon;
  let body = parse_block st in
  let handlers = ref [] in
  while peek_tok st = L.Kw_except do
    advance st;
    let exn_type, bind =
      match peek_tok st with
      | L.Colon -> (None, None)
      | _ ->
          let t = parse_expr st in
          let b =
            if accept st L.Kw_as then Some (expect_ident st)
            else if accept st L.Comma then Some (expect_ident st)
            else None
          in
          (Some t, b)
    in
    expect_op st L.Colon;
    let hbody = parse_block st in
    handlers := { exn_type; bind; hbody } :: !handlers
  done;
  if accept st L.Kw_else then begin
    expect_op st L.Colon;
    ignore (parse_block st)
  end;
  let fin =
    if accept st L.Kw_finally then begin
      expect_op st L.Colon;
      parse_block st
    end
    else []
  in
  { line = ln; kind = Try (body, List.rev !handlers, fin) }

and parse_with st =
  let ln = line st in
  expect_kw st L.Kw_with;
  let e = parse_expr st in
  let bind = if accept st L.Kw_as then Some (expect_ident st) else None in
  expect_op st L.Colon;
  let body = parse_block st in
  { line = ln; kind = With (e, bind, body) }

and parse_simple_stmt_line st : stmt list =
  let stmts = ref [ parse_simple_stmt st ] in
  while accept st L.Semi do
    match peek_tok st with
    | L.Newline | L.Eof -> ()
    | _ -> stmts := parse_simple_stmt st :: !stmts
  done;
  expect_newline st;
  List.rev !stmts

(* A dotted module name [a.b.c]. *)
and parse_dotted st =
  let parts = ref [ expect_ident st ] in
  while accept st L.Dot do
    parts := expect_ident st :: !parts
  done;
  String.concat "." (List.rev !parts)

and parse_alias st = if accept st L.Kw_as then Some (expect_ident st) else None

(* One expression-statement component: a full expression, or a bare tuple. *)
and parse_component st =
  let e = parse_expr st in
  if peek_tok st = L.Comma then begin
    let items = ref [ e ] in
    while accept st L.Comma do
      match peek_tok st with
      | L.Newline | L.Eof | L.Assign | L.Semi -> ()
      | _ -> items := parse_expr st :: !items
    done;
    Tuple_lit (List.rev !items)
  end
  else e

and parse_simple_stmt st : stmt =
  let ln = line st in
  let mk kind = { line = ln; kind } in
  match peek_tok st with
  | L.Kw_return ->
      advance st;
      let v =
        match peek_tok st with
        | L.Newline | L.Eof | L.Semi -> None
        | _ -> Some (parse_expr st)
      in
      mk (Return v)
  | L.Kw_pass ->
      advance st;
      mk Pass
  | L.Kw_break ->
      advance st;
      mk Break
  | L.Kw_continue ->
      advance st;
      mk Continue
  | L.Kw_import ->
      advance st;
      let parse_one () =
        let m = parse_dotted st in
        let alias = parse_alias st in
        (m, alias)
      in
      let imports = ref [ parse_one () ] in
      while accept st L.Comma do
        imports := parse_one () :: !imports
      done;
      mk (Import (List.rev !imports))
  | L.Kw_from ->
      advance st;
      let m = parse_dotted st in
      expect_kw st L.Kw_import;
      if accept st L.Star then mk (Import_from (m, [ ("*", None) ]))
      else begin
        let parse_one () =
          let name = expect_ident st in
          let alias = parse_alias st in
          (name, alias)
        in
        let had_paren = accept st L.Lparen in
        let names = ref [ parse_one () ] in
        while accept st L.Comma do
          if peek_tok st <> L.Rparen then names := parse_one () :: !names
        done;
        if had_paren then expect_op st L.Rparen;
        mk (Import_from (m, List.rev !names))
      end
  | L.Kw_raise ->
      advance st;
      let v = match peek_tok st with L.Newline | L.Eof -> None | _ -> Some (parse_expr st) in
      mk (Raise v)
  | L.Kw_assert ->
      advance st;
      let e = parse_expr st in
      let msg = if accept st L.Comma then Some (parse_expr st) else None in
      mk (Assert (e, msg))
  | L.Kw_global ->
      advance st;
      let names = ref [ expect_ident st ] in
      while accept st L.Comma do
        names := expect_ident st :: !names
      done;
      mk (Global (List.rev !names))
  | L.Kw_del ->
      advance st;
      let es = ref [ parse_expr st ] in
      while accept st L.Comma do
        es := parse_expr st :: !es
      done;
      mk (Delete (List.rev !es))
  | _ -> (
      (* Expression statement, assignment chain, or augmented assignment.
         Components separated by '=' are parsed as full expressions
         (possibly bare tuples); everything but the last is a target. *)
      let first = parse_component st in
      match peek_tok st with
      | L.Assign -> (
          let components = ref [ first ] in
          while accept st L.Assign do
            components := parse_component st :: !components
          done;
          match !components with
          | value :: rev_targets -> mk (Assign (List.rev rev_targets, value))
          | [] -> assert false)
      | L.Plus_assign | L.Minus_assign | L.Star_assign | L.Slash_assign | L.Percent_assign
      | L.Pow_assign | L.Floordiv_assign | L.Amp_assign | L.Pipe_assign | L.Caret_assign ->
          let o = text st in
          advance st;
          mk (Aug_assign (first, o, parse_expr st))
      | _ -> mk (Expr_stmt first))

(** [parse_module src] lexes and parses a whole source file. *)
let parse_module src : module_ =
  L.with_tokens src @@ fun toks ->
  let st = { toks; i = 0 } in
  let stmts = ref [] in
  while peek_tok st <> L.Eof do
    match peek_tok st with L.Newline -> advance st | _ -> stmts := parse_stmt st :: !stmts
  done;
  List.concat (List.rev !stmts)
