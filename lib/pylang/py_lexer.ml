(** Indentation-aware lexer for the Python subset.

    Produces a flat token stream with explicit [Indent] / [Dedent] /
    [Newline] tokens, following the layout algorithm of the CPython
    reference lexer: a stack of indentation widths, with blank and
    comment-only lines ignored (a whitespace-only line ending in [\r\n]
    is blank too), and bracketed (implicit-continuation) regions
    suppressing layout tokens.

    The stream lives in the domain's {!Namer_util.Tokbuf}: each token is
    an immediate {!kind}, a text and a line.  The text of an identifier,
    keyword or numeral is its spelling from one {!Namer_util.Lexpool}
    shared by all domains, so a spelling seen before costs a hash of its
    source slice and no allocation; an operator's is its static spelling;
    a string literal's is its content (one [String.sub], or a [Buffer] on
    the rare escape path).  The scanner is a set of top-level functions
    over one small per-file state record and reads characters without
    building options, so a warmed lexer allocates next to nothing per
    token.  The stream is byte-identical to the historical list-building
    lexer (pinned by the golden test against [Ref_lexers.Py]). *)

module Lexpool = Namer_util.Lexpool

type kind =
  | Ident | Number | String | Newline | Indent | Dedent | Eof
  (* keywords *)
  | Kw_def | Kw_class | Kw_return | Kw_if | Kw_elif | Kw_else | Kw_for | Kw_while
  | Kw_in | Kw_not | Kw_and | Kw_or | Kw_import | Kw_from | Kw_as | Kw_pass
  | Kw_break | Kw_continue | Kw_try | Kw_except | Kw_finally | Kw_raise | Kw_with
  | Kw_lambda | Kw_true | Kw_false | Kw_none | Kw_is | Kw_assert | Kw_del
  | Kw_global | Kw_yield
  (* operators and punctuation *)
  | Pow_assign | Floordiv_assign | Eq | Not_eq | Le | Ge | Arrow | Plus_assign
  | Minus_assign | Star_assign | Slash_assign | Percent_assign | Amp_assign
  | Pipe_assign | Caret_assign | Lshift | Rshift | Pow | Floordiv | Plus | Minus
  | Star | Slash | Percent | Assign | Lt | Gt | Lparen | Rparen | Lbrack | Rbrack
  | Lbrace | Rbrace | Comma | Colon | Dot | Semi | At | Amp | Pipe | Caret | Tilde

exception Lex_error of string * int  (** message, line *)

let keywords =
  [
    ("def", Kw_def); ("class", Kw_class); ("return", Kw_return); ("if", Kw_if);
    ("elif", Kw_elif); ("else", Kw_else); ("for", Kw_for); ("while", Kw_while);
    ("in", Kw_in); ("not", Kw_not); ("and", Kw_and); ("or", Kw_or);
    ("import", Kw_import); ("from", Kw_from); ("as", Kw_as); ("pass", Kw_pass);
    ("break", Kw_break); ("continue", Kw_continue); ("try", Kw_try);
    ("except", Kw_except); ("finally", Kw_finally); ("raise", Kw_raise);
    ("with", Kw_with); ("lambda", Kw_lambda); ("True", Kw_true);
    ("False", Kw_false); ("None", Kw_none); ("is", Kw_is); ("assert", Kw_assert);
    ("del", Kw_del); ("global", Kw_global); ("yield", Kw_yield);
  ]

(* Operators and punctuation, longest first: the maximal munch that
   [read_operator] spells out. *)
let operators =
  [
    ("**=", Pow_assign); ("//=", Floordiv_assign); ("==", Eq); ("!=", Not_eq);
    ("<=", Le); (">=", Ge); ("->", Arrow); ("+=", Plus_assign);
    ("-=", Minus_assign); ("*=", Star_assign); ("/=", Slash_assign);
    ("%=", Percent_assign); ("&=", Amp_assign); ("|=", Pipe_assign);
    ("^=", Caret_assign); ("<<", Lshift); (">>", Rshift); ("**", Pow);
    ("//", Floordiv); ("+", Plus); ("-", Minus); ("*", Star); ("/", Slash);
    ("%", Percent); ("=", Assign); ("<", Lt); (">", Gt); ("(", Lparen);
    (")", Rparen); ("[", Lbrack); ("]", Rbrack); ("{", Lbrace); ("}", Rbrace);
    (",", Comma); (":", Colon); (".", Dot); (";", Semi); ("@", At); ("&", Amp);
    ("|", Pipe); ("^", Caret); ("~", Tilde);
  ]

let is_keyword = function
  | Kw_def | Kw_class | Kw_return | Kw_if | Kw_elif | Kw_else | Kw_for | Kw_while
  | Kw_in | Kw_not | Kw_and | Kw_or | Kw_import | Kw_from | Kw_as | Kw_pass
  | Kw_break | Kw_continue | Kw_try | Kw_except | Kw_finally | Kw_raise | Kw_with
  | Kw_lambda | Kw_true | Kw_false | Kw_none | Kw_is | Kw_assert | Kw_del
  | Kw_global | Kw_yield ->
      true
  | _ -> false

(** Spelling of a keyword or operator kind (error messages). *)
let kind_text k =
  match List.find_opt (fun (_, k') -> k' = k) (keywords @ operators) with
  | Some (s, _) -> s
  | None -> ""

(* A word or numeral: its kind (Ident, Number or a keyword) and text. *)
type spelling = { s_kind : kind; s_text : string }

let mk_ident s = { s_kind = Ident; s_text = s }
let mk_number s = { s_kind = Number; s_text = s }

(* One pool for every domain, so a spelling costs its [String.sub] once
   per process, and a fresh domain starts warm. *)
let pool : spelling Lexpool.t =
  let p = Lexpool.create () in
  List.iter (fun (kw, k) -> Lexpool.add p kw { s_kind = k; s_text = kw }) keywords;
  p

module Tokbuf = Namer_util.Tokbuf

type t = kind Tokbuf.t

let buffers = Tokbuf.per_domain Eof

(* The state of one file's scan: the buffer it fills, the source and the
   position in it, open brackets and the indentation stack. *)
type scanner = {
  b : t;
  src : string;
  mutable pos : int;
  mutable line : int;
  mutable depth : int;  (** open brackets *)
  mutable indents : int array;
  mutable n_indents : int;
}

(* ------------------------------------------------------------------ *)
(* Scanner                                                             *)
(* ------------------------------------------------------------------ *)

(* The append that {!Namer_util.Tokbuf} describes. *)
let[@inline] emit t k text =
  let b = t.b in
  let i = b.len in
  if i = Array.length b.kinds then Tokbuf.grow b;
  Array.unsafe_set b.kinds i k;
  Array.unsafe_set b.texts i text;
  Array.unsafe_set b.lines i t.line;
  b.len <- i + 1

let push_indent t w =
  if t.n_indents = Array.length t.indents then begin
    let a = Array.make (2 * t.n_indents) 0 in
    Array.blit t.indents 0 a 0 t.n_indents;
    t.indents <- a
  end;
  t.indents.(t.n_indents) <- w;
  t.n_indents <- t.n_indents + 1

let top_indent t = t.indents.(t.n_indents - 1)
let char_at t i = String.unsafe_get t.src i
let at_eof t = t.pos >= String.length t.src

let is_ident_start c = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c = '_'
let is_ident_char c = is_ident_start c || (c >= '0' && c <= '9')
let is_digit c = c >= '0' && c <= '9'

(* Numerals take digits, dots, x/X and hex letters ('e' exponents are
   covered by the hex range). *)
let is_number_char c =
  is_digit c || c = '.' || c = 'x' || c = 'X' || (c >= 'a' && c <= 'f') || (c >= 'A' && c <= 'F')

(* The end of the comment starting at [p]: its newline, or the end. *)
let skip_comment src n p =
  let p = ref p in
  while !p < n && String.unsafe_get src !p <> '\n' do
    incr p
  done;
  !p

(* Layout at the start of a logical line: measure the indentation, skip
   blank and comment-only lines, then emit Indent or Dedents. *)
let rec line_start t =
  let n = String.length t.src in
  let width = ref 0 in
  while
    t.pos < n
    &&
    match char_at t t.pos with
    | ' ' ->
        incr width;
        true
    | '\t' ->
        width := !width + 8;
        true
    | _ -> false
  do
    t.pos <- t.pos + 1
  done;
  if t.pos < n then
    match char_at t t.pos with
    | '\n' ->
        t.pos <- t.pos + 1;
        t.line <- t.line + 1;
        line_start t
    | '#' ->
        t.pos <- skip_comment t.src n t.pos;
        line_start t
    | '\r' when t.pos + 1 >= n || char_at t (t.pos + 1) = '\n' ->
        t.pos <- t.pos + 1;
        line_start t
    | _ ->
        if !width > top_indent t then begin
          push_indent t !width;
          emit t Indent ""
        end
        else
          while !width < top_indent t do
            t.n_indents <- t.n_indents - 1;
            if !width > top_indent t then raise (Lex_error ("inconsistent dedent", t.line));
            emit t Dedent ""
          done

(* Triple-quoted strings: scan to the closing delimiter, newlines
   included (docstrings); the content is one slice of the source. *)
let rec triple_body t quote start =
  let n = String.length t.src in
  if
    t.pos + 2 < n
    && char_at t t.pos = quote
    && char_at t (t.pos + 1) = quote
    && char_at t (t.pos + 2) = quote
  then begin
    let content = String.sub t.src start (t.pos - start) in
    t.pos <- t.pos + 3;
    emit t String content
  end
  else if t.pos >= n then raise (Lex_error ("unterminated triple-quoted string", t.line))
  else begin
    if char_at t t.pos = '\n' then t.line <- t.line + 1;
    t.pos <- t.pos + 1;
    triple_body t quote start
  end

(* Escape, newline or end of input ahead: byte at a time into [esc]. *)
let rec escaped_body t esc quote =
  if at_eof t then raise (Lex_error ("unterminated string", t.line));
  match char_at t t.pos with
  | '\\' ->
      t.pos <- t.pos + 1;
      if at_eof t then raise (Lex_error ("unterminated string escape", t.line));
      Buffer.add_char esc (match char_at t t.pos with 'n' -> '\n' | 't' -> '\t' | c -> c);
      t.pos <- t.pos + 1;
      escaped_body t esc quote
  | c when c = quote -> t.pos <- t.pos + 1
  | '\n' -> raise (Lex_error ("newline in string", t.line))
  | c ->
      Buffer.add_char esc c;
      t.pos <- t.pos + 1;
      escaped_body t esc quote

let read_string t quote =
  let n = String.length t.src in
  if t.pos + 2 < n && char_at t (t.pos + 1) = quote && char_at t (t.pos + 2) = quote
  then begin
    t.pos <- t.pos + 3;
    triple_body t quote t.pos
  end
  else begin
    (* opening quote; fast path: scan ahead for the close — if nothing
       needs escape processing the content is one slice *)
    let start = t.pos + 1 in
    let j = ref start in
    while
      !j < n
      &&
      let c = char_at t !j in
      c <> quote && c <> '\\' && c <> '\n'
    do
      incr j
    done;
    if !j < n && char_at t !j = quote then begin
      emit t String (String.sub t.src start (!j - start));
      t.pos <- !j + 1
    end
    else begin
      let esc = Buffer.create (!j - start + 16) in
      Buffer.add_substring esc t.src start (!j - start);
      t.pos <- !j;
      escaped_body t esc quote;
      emit t String (Buffer.contents esc)
    end
  end

(* The scanners below take the token's start and return its end. *)

let read_number t src n start =
  let p = ref (start + 1) in
  while !p < n && is_number_char (String.unsafe_get src !p) do
    incr p
  done;
  let sp = Lexpool.lookup pool ~src ~off:start ~len:(!p - start) ~make:mk_number in
  emit t sp.s_kind sp.s_text;
  !p

let read_word t src n start =
  let p = ref (start + 1) in
  while !p < n && is_ident_char (String.unsafe_get src !p) do
    incr p
  done;
  let e = !p in
  (* string prefixes like r"..." / b'...' *)
  if
    e = start + 1
    && e < n
    && (match String.unsafe_get src e with '"' | '\'' -> true | _ -> false)
    && match String.unsafe_get src start with 'r' | 'b' | 'u' | 'f' -> true | _ -> false
  then begin
    t.pos <- e;
    read_string t (String.unsafe_get src e);
    t.pos
  end
  else
    let sp = Lexpool.lookup pool ~src ~off:start ~len:(e - start) ~make:mk_ident in
    emit t sp.s_kind sp.s_text;
    e

let[@inline] op t k text p len =
  emit t k text;
  p + len

let[@inline] peek_is src n p c = p < n && String.unsafe_get src p = c

(* Maximal munch over [operators], spelled out by first byte. *)
let read_operator t src n p =
  match String.unsafe_get src p with
  | '(' ->
      t.depth <- t.depth + 1;
      op t Lparen "(" p 1
  | '[' ->
      t.depth <- t.depth + 1;
      op t Lbrack "[" p 1
  | '{' ->
      t.depth <- t.depth + 1;
      op t Lbrace "{" p 1
  | ')' ->
      t.depth <- max 0 (t.depth - 1);
      op t Rparen ")" p 1
  | ']' ->
      t.depth <- max 0 (t.depth - 1);
      op t Rbrack "]" p 1
  | '}' ->
      t.depth <- max 0 (t.depth - 1);
      op t Rbrace "}" p 1
  | ',' -> op t Comma "," p 1
  | ':' -> op t Colon ":" p 1
  | '.' -> op t Dot "." p 1
  | ';' -> op t Semi ";" p 1
  | '@' -> op t At "@" p 1
  | '~' -> op t Tilde "~" p 1
  | '*' ->
      if peek_is src n (p + 1) '*' then
        if peek_is src n (p + 2) '=' then op t Pow_assign "**=" p 3 else op t Pow "**" p 2
      else if peek_is src n (p + 1) '=' then op t Star_assign "*=" p 2
      else op t Star "*" p 1
  | '/' ->
      if peek_is src n (p + 1) '/' then
        if peek_is src n (p + 2) '=' then op t Floordiv_assign "//=" p 3
        else op t Floordiv "//" p 2
      else if peek_is src n (p + 1) '=' then op t Slash_assign "/=" p 2
      else op t Slash "/" p 1
  | '=' -> if peek_is src n (p + 1) '=' then op t Eq "==" p 2 else op t Assign "=" p 1
  | '<' ->
      if peek_is src n (p + 1) '=' then op t Le "<=" p 2 else if peek_is src n (p + 1) '<' then op t Lshift "<<" p 2 else op t Lt "<" p 1
  | '>' ->
      if peek_is src n (p + 1) '=' then op t Ge ">=" p 2 else if peek_is src n (p + 1) '>' then op t Rshift ">>" p 2 else op t Gt ">" p 1
  | '-' ->
      if peek_is src n (p + 1) '=' then op t Minus_assign "-=" p 2
      else if peek_is src n (p + 1) '>' then op t Arrow "->" p 2
      else op t Minus "-" p 1
  | '+' -> if peek_is src n (p + 1) '=' then op t Plus_assign "+=" p 2 else op t Plus "+" p 1
  | '%' -> if peek_is src n (p + 1) '=' then op t Percent_assign "%=" p 2 else op t Percent "%" p 1
  | '&' -> if peek_is src n (p + 1) '=' then op t Amp_assign "&=" p 2 else op t Amp "&" p 1
  | '|' -> if peek_is src n (p + 1) '=' then op t Pipe_assign "|=" p 2 else op t Pipe "|" p 1
  | '^' -> if peek_is src n (p + 1) '=' then op t Caret_assign "^=" p 2 else op t Caret "^" p 1
  | '!' when peek_is src n (p + 1) '=' -> op t Not_eq "!=" p 2
  | c -> raise (Lex_error (Printf.sprintf "unexpected character %C" c, t.line))

let scan t =
  let src = t.src in
  let n = String.length src in
  line_start t;
  let p = ref t.pos in
  while !p < n do
    match String.unsafe_get src !p with
    | 'a' .. 'z' | 'A' .. 'Z' | '_' -> p := read_word t src n !p
    | ' ' | '\t' | '\r' -> incr p
    | '\n' ->
        incr p;
        t.line <- t.line + 1;
        if t.depth = 0 then begin
          emit t Newline "";
          t.pos <- !p;
          line_start t;
          p := t.pos
        end
    | '0' .. '9' -> p := read_number t src n !p
    | '#' -> p := skip_comment src n !p
    | ('"' | '\'') as q ->
        t.pos <- !p;
        read_string t q;
        p := t.pos
    | '\\' when peek_is src n (!p + 1) '\n' ->
        p := !p + 2;
        t.line <- t.line + 1
    | _ -> p := read_operator t src n !p
  done;
  (* Close the final logical line and any open indentation levels. *)
  let len = t.b.Tokbuf.len in
  if len > 0 && t.b.Tokbuf.kinds.(len - 1) <> Newline then emit t Newline "";
  while top_indent t > 0 do
    t.n_indents <- t.n_indents - 1;
    emit t Dedent ""
  done;
  emit t Eof ""

let lex b src =
  scan { b; src; pos = 0; line = 1; depth = 0; indents = Array.make 16 0; n_indents = 1 }

(** [with_tokens src f] lexes [src] into the calling domain's buffer and
    applies [f] to it under the buffer's lock ({!Namer_util.Tokbuf.with_tokens}).
    [f] must not lex Python.  Raises {!Lex_error}. *)
let with_tokens src f = Tokbuf.with_tokens buffers lex src f

(** [tokenize src] lexes [src] into the calling domain's buffer and
    returns it; it ends with [Eof].  The buffer is valid until the next
    lexing on this domain, by any thread: a reader that other threads of
    its domain may interrupt uses {!with_tokens}.  Raises {!Lex_error}. *)
let tokenize src = with_tokens src Fun.id
