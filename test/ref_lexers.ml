(* Reference lexers: verbatim copies of the pre-zero-copy implementations
   of [Py_lexer.tokenize] and [Java_lexer.tokenize], kept so the golden
   token-stream equivalence test can check the rewritten lexers against
   the exact old behaviour (same tokens, same lines, same errors) on the
   seed corpus and on fuzz mutants.  [Py] builds its own token list, which
   the golden test compares with the new lexer's buffer rendered back to
   the same form; [Java] builds tokens of the current [Java_lexer].  One
   edit since: [Py] lexes a blank or whitespace-only line ending in
   [\r\n] as blank, as the new lexer does (it used to read it as a
   dedent). *)

module Py = struct
  type token =
    | Ident of string
    | Keyword of string
    | Number of string
    | String of string
    | Op of string
    | Newline
    | Indent
    | Dedent
    | Eof

  type loc_token = { tok : token; line : int }

  exception Lex_error = Namer_pylang.Py_lexer.Lex_error

  let keywords =
    [
      "def"; "class"; "return"; "if"; "elif"; "else"; "for"; "while"; "in";
      "not"; "and"; "or"; "import"; "from"; "as"; "pass"; "break"; "continue";
      "try"; "except"; "finally"; "raise"; "with"; "lambda"; "True"; "False";
      "None"; "is"; "assert"; "del"; "global"; "yield";
    ]

  let is_keyword s = List.mem s keywords

  let is_ident_start c =
    (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c = '_'

  let is_ident_char c = is_ident_start c || (c >= '0' && c <= '9')
  let is_digit c = c >= '0' && c <= '9'

  let operators =
    [
      "**="; "//="; "=="; "!="; "<="; ">="; "->"; "+="; "-="; "*="; "/="; "%=";
      "&="; "|="; "^="; "<<"; ">>"; "**"; "//"; "+"; "-"; "*"; "/"; "%"; "=";
      "<"; ">"; "("; ")"; "["; "]"; "{"; "}"; ","; ":"; "."; ";"; "@"; "&";
      "|"; "^"; "~";
    ]

  let tokenize src =
    let n = String.length src in
    let pos = ref 0 and line = ref 1 in
    let out = ref [] in
    let emit tok = out := { tok; line = !line } :: !out in
    let indents = ref [ 0 ] in
    let paren_depth = ref 0 in
    let peek i = if !pos + i < n then Some src.[!pos + i] else None in
    let cur () = peek 0 in
    let advance () = incr pos in
    let rec handle_line_start () =
      let width = ref 0 in
      let scanning = ref true in
      while !scanning do
        match cur () with
        | Some ' ' ->
            incr width;
            advance ()
        | Some '\t' ->
            width := !width + 8;
            advance ()
        | _ -> scanning := false
      done;
      match cur () with
      | None -> ()
      | Some '\n' ->
          advance ();
          incr line;
          handle_line_start ()
      | Some '#' ->
          while cur () <> Some '\n' && cur () <> None do
            advance ()
          done;
          handle_line_start ()
      | Some '\r' when peek 1 = Some '\n' || peek 1 = None ->
          advance ();
          handle_line_start ()
      | Some _ ->
          let top () = List.hd !indents in
          if !width > top () then begin
            indents := !width :: !indents;
            emit Indent
          end
          else
            while !width < top () do
              indents := List.tl !indents;
              if !width > top () then
                raise (Lex_error ("inconsistent dedent", !line));
              emit Dedent
            done
    in
    let read_triple_string quote =
      advance ();
      advance ();
      advance ();
      let buf = Buffer.create 64 in
      let rec go () =
        if
          !pos + 2 < n
          && src.[!pos] = quote
          && src.[!pos + 1] = quote
          && src.[!pos + 2] = quote
        then begin
          advance ();
          advance ();
          advance ()
        end
        else
          match cur () with
          | None -> raise (Lex_error ("unterminated triple-quoted string", !line))
          | Some '\n' ->
              incr line;
              Buffer.add_char buf '\n';
              advance ();
              go ()
          | Some c ->
              Buffer.add_char buf c;
              advance ();
              go ()
      in
      go ();
      emit (String (Buffer.contents buf))
    in
    let read_string quote =
      if peek 1 = Some quote && peek 2 = Some quote then read_triple_string quote
      else begin
        advance ();
        let buf = Buffer.create 16 in
        let rec go () =
          match cur () with
          | None -> raise (Lex_error ("unterminated string", !line))
          | Some '\\' -> (
              advance ();
              match cur () with
              | None -> raise (Lex_error ("unterminated string escape", !line))
              | Some c ->
                  Buffer.add_char buf
                    (match c with 'n' -> '\n' | 't' -> '\t' | c -> c);
                  advance ();
                  go ())
          | Some c when c = quote -> advance ()
          | Some '\n' -> raise (Lex_error ("newline in string", !line))
          | Some c ->
              Buffer.add_char buf c;
              advance ();
              go ()
        in
        go ();
        emit (String (Buffer.contents buf))
      end
    in
    let read_number () =
      let start = !pos in
      while
        match cur () with
        | Some c ->
            is_digit c || c = '.' || c = 'x' || c = 'X'
            || (c >= 'a' && c <= 'f')
            || (c >= 'A' && c <= 'F')
        | None -> false
      do
        advance ()
      done;
      emit (Number (String.sub src start (!pos - start)))
    in
    let read_ident () =
      let start = !pos in
      while match cur () with Some c -> is_ident_char c | None -> false do
        advance ()
      done;
      let s = String.sub src start (!pos - start) in
      match cur () with
      | Some (('"' | '\'') as q)
        when String.length s = 1 && (s = "r" || s = "b" || s = "u" || s = "f")
        ->
          read_string q
      | _ -> if is_keyword s then emit (Keyword s) else emit (Ident s)
    in
    let try_operator () =
      let matches op =
        let l = String.length op in
        !pos + l <= n && String.sub src !pos l = op
      in
      match List.find_opt matches operators with
      | Some op ->
          (match op with
          | "(" | "[" | "{" -> incr paren_depth
          | ")" | "]" | "}" -> paren_depth := max 0 (!paren_depth - 1)
          | _ -> ());
          pos := !pos + String.length op;
          emit (Op op);
          true
      | None -> false
    in
    handle_line_start ();
    let rec loop () =
      match cur () with
      | None -> ()
      | Some '\n' ->
          advance ();
          incr line;
          if !paren_depth = 0 then begin
            emit Newline;
            handle_line_start ()
          end;
          loop ()
      | Some '#' ->
          while cur () <> Some '\n' && cur () <> None do
            advance ()
          done;
          loop ()
      | Some (' ' | '\t' | '\r') ->
          advance ();
          loop ()
      | Some '\\' when peek 1 = Some '\n' ->
          advance ();
          advance ();
          incr line;
          loop ()
      | Some (('"' | '\'') as q) ->
          read_string q;
          loop ()
      | Some c when is_digit c ->
          read_number ();
          loop ()
      | Some c when is_ident_start c ->
          read_ident ();
          loop ()
      | Some _ ->
          if try_operator () then loop ()
          else
            raise
              (Lex_error
                 (Printf.sprintf "unexpected character %C" src.[!pos], !line))
    in
    loop ();
    (match !out with
    | { tok = Newline; _ } :: _ | [] -> ()
    | _ -> emit Newline);
    while List.hd !indents > 0 do
      indents := List.tl !indents;
      emit Dedent
    done;
    emit Eof;
    List.rev !out
end

module Java = struct
  open Namer_javalang.Java_lexer

  let keywords =
    [
      "abstract"; "assert"; "boolean"; "break"; "byte"; "case"; "catch";
      "char"; "class"; "const"; "continue"; "default"; "do"; "double"; "else";
      "enum"; "extends"; "final"; "finally"; "float"; "for"; "if";
      "implements"; "import"; "instanceof"; "int"; "interface"; "long";
      "native"; "new"; "package"; "private"; "protected"; "public"; "return";
      "short"; "static"; "strictfp"; "super"; "switch"; "synchronized";
      "this"; "throw"; "throws"; "transient"; "try"; "void"; "volatile";
      "while"; "true"; "false"; "null";
    ]

  let is_keyword s = List.mem s keywords

  let is_ident_start c =
    (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c = '_' || c = '$'

  let is_ident_char c = is_ident_start c || (c >= '0' && c <= '9')
  let is_digit c = c >= '0' && c <= '9'

  let operators =
    [
      ">>>="; "<<="; ">>="; ">>>"; "..."; "->"; "::"; "=="; "!="; "<="; ">=";
      "&&"; "||"; "++"; "--"; "+="; "-="; "*="; "/="; "%="; "&="; "|="; "^=";
      "<<"; ">>"; "+"; "-"; "*"; "/"; "%"; "="; "<"; ">"; "!"; "~"; "&"; "|";
      "^"; "?"; ":"; "("; ")"; "["; "]"; "{"; "}"; ";"; ","; "."; "@";
    ]

  let tokenize src =
    let n = String.length src in
    let pos = ref 0 and line = ref 1 in
    let out = ref [] in
    let emit tok = out := { tok; line = !line } :: !out in
    let cur () = if !pos < n then Some src.[!pos] else None in
    let peek k = if !pos + k < n then Some src.[!pos + k] else None in
    let advance () = incr pos in
    let read_escaped quote =
      advance ();
      let buf = Buffer.create 8 in
      let rec go () =
        match cur () with
        | None -> raise (Lex_error ("unterminated literal", !line))
        | Some '\\' -> (
            advance ();
            match cur () with
            | None -> raise (Lex_error ("unterminated escape", !line))
            | Some c ->
                Buffer.add_char buf
                  (match c with 'n' -> '\n' | 't' -> '\t' | c -> c);
                advance ();
                go ())
        | Some c when c = quote -> advance ()
        | Some '\n' -> raise (Lex_error ("newline in literal", !line))
        | Some c ->
            Buffer.add_char buf c;
            advance ();
            go ()
      in
      go ();
      Buffer.contents buf
    in
    let rec loop () =
      match cur () with
      | None -> ()
      | Some '\n' ->
          incr line;
          advance ();
          loop ()
      | Some (' ' | '\t' | '\r') ->
          advance ();
          loop ()
      | Some '/' when peek 1 = Some '/' ->
          while cur () <> Some '\n' && cur () <> None do
            advance ()
          done;
          loop ()
      | Some '/' when peek 1 = Some '*' ->
          advance ();
          advance ();
          let rec skip () =
            match (cur (), peek 1) with
            | Some '*', Some '/' ->
                advance ();
                advance ()
            | Some '\n', _ ->
                incr line;
                advance ();
                skip ()
            | Some _, _ ->
                advance ();
                skip ()
            | None, _ -> raise (Lex_error ("unterminated comment", !line))
          in
          skip ();
          loop ()
      | Some '"' ->
          emit (Str_lit (read_escaped '"'));
          loop ()
      | Some '\'' ->
          emit (Char_lit (read_escaped '\''));
          loop ()
      | Some c when is_digit c ->
          let start = !pos in
          let is_float = ref false in
          let scanning = ref true in
          while !scanning do
            match cur () with
            | Some c when is_digit c || c = '_' -> advance ()
            | Some ('x' | 'X' | 'b' | 'B') when !pos = start + 1 -> advance ()
            | Some ('a' .. 'f' | 'A' .. 'F')
              when String.length src > start + 1
                   && (src.[start + 1] = 'x' || src.[start + 1] = 'X') ->
                advance ()
            | Some '.'
              when match peek 1 with Some d -> is_digit d | None -> false ->
                is_float := true;
                advance ()
            | Some ('e' | 'E')
              when (not
                      (String.length src > start + 1
                      && (src.[start + 1] = 'x' || src.[start + 1] = 'X')))
                   && (match peek 1 with
                      | Some d -> is_digit d || d = '-' || d = '+'
                      | None -> false) ->
                is_float := true;
                advance ();
                advance ()
            | Some ('f' | 'F' | 'd' | 'D') ->
                is_float := true;
                advance ();
                scanning := false
            | Some ('l' | 'L') ->
                advance ();
                scanning := false
            | _ -> scanning := false
          done;
          let text = String.sub src start (!pos - start) in
          emit (if !is_float then Float_lit text else Int_lit text);
          loop ()
      | Some c when is_ident_start c ->
          let start = !pos in
          while match cur () with Some c -> is_ident_char c | None -> false do
            advance ()
          done;
          let s = String.sub src start (!pos - start) in
          emit (if is_keyword s then Keyword s else Ident s);
          loop ()
      | Some _ -> (
          let matches op =
            let l = String.length op in
            !pos + l <= n && String.sub src !pos l = op
          in
          match List.find_opt matches operators with
          | Some op ->
              pos := !pos + String.length op;
              emit (Op op);
              loop ()
          | None ->
              raise
                (Lex_error
                   (Printf.sprintf "unexpected character %C" src.[!pos], !line))
          )
    in
    loop ();
    emit Eof;
    List.rev !out
end
