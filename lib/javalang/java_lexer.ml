(** Lexer for the Java subset.  Free-form (no layout tokens); line and block
    comments are skipped; string/char literals keep their unquoted content.

    The stream lives in the domain's {!Namer_util.Tokbuf}: each token is a
    {!token} (its kind, carrying its text) and a line.  Identifiers,
    keywords and numerals are the shared values of one
    {!Namer_util.Lexpool} for all domains (keywords pre-seeded), so a
    spelling seen before costs a hash of its source slice and no
    allocation; operators are pre-built tokens; a literal takes one
    [String.sub], a [Buffer] only on the rare escape path.  The scanner is
    a set of top-level functions over one small per-file state record and
    reads characters without building options.  The stream is
    byte-identical to the historical list-building lexer (pinned by the
    golden test against [Ref_lexers.Java]). *)

module Lexpool = Namer_util.Lexpool
module Tokbuf = Namer_util.Tokbuf

type token =
  | Ident of string
  | Keyword of string
  | Int_lit of string
  | Float_lit of string
  | Str_lit of string
  | Char_lit of string
  | Op of string
  | Eof

type t = token Tokbuf.t

exception Lex_error of string * int

let keywords =
  [
    "abstract"; "assert"; "boolean"; "break"; "byte"; "case"; "catch"; "char";
    "class"; "const"; "continue"; "default"; "do"; "double"; "else"; "enum";
    "extends"; "final"; "finally"; "float"; "for"; "if"; "implements";
    "import"; "instanceof"; "int"; "interface"; "long"; "native"; "new";
    "package"; "private"; "protected"; "public"; "return"; "short"; "static";
    "strictfp"; "super"; "switch"; "synchronized"; "this"; "throw"; "throws";
    "transient"; "try"; "void"; "volatile"; "while"; "true"; "false"; "null";
  ]

let operators =
  [
    ">>>="; "<<="; ">>="; ">>>"; "..."; "->"; "::"; "=="; "!="; "<="; ">=";
    "&&"; "||"; "++"; "--"; "+="; "-="; "*="; "/="; "%="; "&="; "|="; "^=";
    "<<"; ">>"; "+"; "-"; "*"; "/"; "%"; "="; "<"; ">"; "!"; "~"; "&"; "|";
    "^"; "?"; ":"; "("; ")"; "["; "]"; "{"; "}"; ";"; ","; "."; "@";
  ]

(* Operators bucketed by first byte, longest first within a bucket (same
   maximal-munch order as the flat list), each with its pre-built token. *)
let op_table : (string * token) array array =
  let t = Array.make 256 [||] in
  List.iter
    (fun op ->
      let i = Char.code op.[0] in
      t.(i) <- Array.append t.(i) [| (op, Op op) |])
    operators;
  t

let mk_ident s = Ident s
let mk_int s = Int_lit s
let mk_float s = Float_lit s
let mk_str s = Str_lit s
let mk_char s = Char_lit s

(* One pool for every domain, so a spelling costs its [String.sub] once
   per process and a fresh domain starts warm.  Words and numerals share
   it: a word never starts with a digit, and a numeral's class (int or
   float) is a function of its spelling. *)
let pool : token Lexpool.t =
  let p = Lexpool.create () in
  List.iter (fun kw -> Lexpool.add p kw (Keyword kw)) keywords;
  p

let buffers = Tokbuf.per_domain Eof

(* The state of one file's scan. *)
type scanner = { b : t; src : string; mutable pos : int; mutable line : int }

(* The append that {!Namer_util.Tokbuf} describes. *)
let[@inline] emit s tok =
  let b = s.b in
  let i = b.len in
  if i = Array.length b.kinds then Tokbuf.grow b;
  Array.unsafe_set b.kinds i tok;
  Array.unsafe_set b.lines i s.line;
  b.len <- i + 1
let[@inline] char_at s p = String.unsafe_get s.src p
let[@inline] peek_is s p c = p < String.length s.src && char_at s p = c
let is_digit c = c >= '0' && c <= '9'

let is_ident_char = function
  | 'a' .. 'z' | 'A' .. 'Z' | '_' | '$' | '0' .. '9' -> true
  | _ -> false

(* The comment opening at [pos] ("/*"): skip to past its close. *)
let skip_block_comment s =
  let n = String.length s.src in
  let p = ref (s.pos + 2) in
  while !p < n && not (char_at s !p = '*' && peek_is s (!p + 1) '/') do
    if char_at s !p = '\n' then s.line <- s.line + 1;
    incr p
  done;
  if !p >= n then raise (Lex_error ("unterminated comment", s.line));
  s.pos <- !p + 2

(* Escape, newline or end of input ahead: byte at a time into [esc]. *)
let rec escaped_body s esc quote =
  if s.pos >= String.length s.src then raise (Lex_error ("unterminated literal", s.line));
  match char_at s s.pos with
  | '\\' ->
      s.pos <- s.pos + 1;
      if s.pos >= String.length s.src then raise (Lex_error ("unterminated escape", s.line));
      Buffer.add_char esc (match char_at s s.pos with 'n' -> '\n' | 't' -> '\t' | c -> c);
      s.pos <- s.pos + 1;
      escaped_body s esc quote
  | c when c = quote -> s.pos <- s.pos + 1
  | '\n' -> raise (Lex_error ("newline in literal", s.line))
  | c ->
      Buffer.add_char esc c;
      s.pos <- s.pos + 1;
      escaped_body s esc quote

(* The literal opening with [quote] at [pos]; fast path: scan ahead for
   the close — if nothing needs escape processing the content is one
   slice. *)
let read_literal s quote make =
  let n = String.length s.src in
  let start = s.pos + 1 in
  let j = ref start in
  while
    !j < n
    &&
    let c = char_at s !j in
    c <> quote && c <> '\\' && c <> '\n'
  do
    incr j
  done;
  if !j < n && char_at s !j = quote then begin
    emit s (make (String.sub s.src start (!j - start)));
    s.pos <- !j + 1
  end
  else begin
    let esc = Buffer.create (!j - start + 16) in
    Buffer.add_substring esc s.src start (!j - start);
    s.pos <- !j;
    escaped_body s esc quote;
    emit s (make (Buffer.contents esc))
  end

let read_number s =
  let src = s.src and start = s.pos in
  let n = String.length src in
  let hex = start + 1 < n && (src.[start + 1] = 'x' || src.[start + 1] = 'X') in
  let p = ref start and is_float = ref false and scanning = ref true in
  while !scanning && !p < n do
    match String.unsafe_get src !p with
    | '0' .. '9' | '_' -> incr p
    | ('x' | 'X' | 'b' | 'B') when !p = start + 1 -> incr p
    | ('a' .. 'f' | 'A' .. 'F') when hex -> incr p
    | '.' when !p + 1 < n && is_digit (String.unsafe_get src (!p + 1)) ->
        is_float := true;
        incr p
    | ('e' | 'E')
      when !p + 1 < n
           && (match String.unsafe_get src (!p + 1) with
              | '0' .. '9' | '-' | '+' -> true
              | _ -> false) ->
        is_float := true;
        p := !p + 2
    | 'f' | 'F' | 'd' | 'D' ->
        is_float := true;
        incr p;
        scanning := false
    | 'l' | 'L' ->
        incr p;
        scanning := false
    | _ -> scanning := false
  done;
  let len = !p - start in
  emit s (Lexpool.lookup pool ~src ~off:start ~len ~make:(if !is_float then mk_float else mk_int));
  s.pos <- !p

let read_word s =
  let src = s.src and start = s.pos in
  let n = String.length src in
  let p = ref (start + 1) in
  while !p < n && is_ident_char (String.unsafe_get src !p) do
    incr p
  done;
  emit s (Lexpool.lookup pool ~src ~off:start ~len:(!p - start) ~make:mk_ident);
  s.pos <- !p

(* [op] matches at [pos] (its first byte already does). *)
let rec op_matches s op k =
  k >= String.length op || (peek_is s (s.pos + k) (String.unsafe_get op k) && op_matches s op (k + 1))

(* Maximal munch within the bucket of the first byte. *)
let rec read_operator s bucket i =
  if i >= Array.length bucket then
    raise (Lex_error (Printf.sprintf "unexpected character %C" (char_at s s.pos), s.line));
  let op, tok = Array.unsafe_get bucket i in
  if op_matches s op 1 then begin
    emit s tok;
    s.pos <- s.pos + String.length op
  end
  else read_operator s bucket (i + 1)

let scan s =
  let n = String.length s.src in
  while s.pos < n do
    match char_at s s.pos with
    | '\n' ->
        s.line <- s.line + 1;
        s.pos <- s.pos + 1
    | ' ' | '\t' | '\r' -> s.pos <- s.pos + 1
    | '/' when peek_is s (s.pos + 1) '/' ->
        while s.pos < n && char_at s s.pos <> '\n' do
          s.pos <- s.pos + 1
        done
    | '/' when peek_is s (s.pos + 1) '*' -> skip_block_comment s
    | '"' -> read_literal s '"' mk_str
    | '\'' -> read_literal s '\'' mk_char
    | '0' .. '9' -> read_number s
    | 'a' .. 'z' | 'A' .. 'Z' | '_' | '$' -> read_word s
    | c -> read_operator s (Array.unsafe_get op_table (Char.code c)) 0
  done;
  emit s Eof

let lex b src = scan { b; src; pos = 0; line = 1 }

(** [with_tokens src f] lexes [src] into the calling domain's buffer and
    applies [f] to it under the buffer's lock ({!Namer_util.Tokbuf.with_tokens}).
    [f] must not lex Java.  Raises {!Lex_error}. *)
let with_tokens src f = Tokbuf.with_tokens buffers lex src f

(** [tokenize src] lexes [src] into the calling domain's buffer and
    returns it; it ends with [Eof].  The buffer is valid until the next
    lexing on this domain, by any thread: a reader that other threads of
    its domain may interrupt uses {!with_tokens}.  Raises {!Lex_error}. *)
let tokenize src = with_tokens src Fun.id
