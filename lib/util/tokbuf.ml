(** Per-domain token buffers: the storage both lexers fill and both parsers
    read by index.

    A buffer holds one file's tokens as struct-of-arrays: per token a kind
    (the language's own type), a text and a line.  Each domain owns one
    buffer per language, reused from file to file.  It starts at
    [base_capacity] tokens and doubles to fit; one grown past
    [retained_capacity] by an oversized file returns to the base at the
    next file, so a long-lived process keeps a fixed amount per domain.

    A buffer is valid until the next lexing on its domain: a reader
    consumes it inside {!with_tokens}, which holds the buffer's lock
    against the domain's other threads, and never awaits anything that
    could run another lexing task on the same thread.

    A lexer appends a token itself, in its own module, so that the append
    is inlined and its kind store is typed (a generic store of a ['k] is a
    write barrier call):
    {[
      if b.len = Array.length b.kinds then Tokbuf.grow b;
      b.kinds.(b.len) <- kind; b.texts.(b.len) <- text; b.lines.(b.len) <- line;
      b.len <- b.len + 1
    ]} *)

type 'k t = {
  mutable kinds : 'k array;
  mutable texts : string array;  (** "" where the kind carries the text *)
  mutable lines : int array;
  mutable len : int;
  blank : 'k;  (** fills the unused kind slots *)
  lock : Mutex.t;  (** held while a thread of the domain lexes or reads *)
}

let base_capacity = 512
let retained_capacity = 1 lsl 16

let alloc t n =
  t.kinds <- Array.make n t.blank;
  t.texts <- Array.make n "";
  t.lines <- Array.make n 0

(** [per_domain blank]: one buffer per domain, whose unused kind slots
    hold [blank]. *)
let per_domain blank =
  Domain.DLS.new_key (fun () ->
      let t = { kinds = [||]; texts = [||]; lines = [||]; len = 0; blank; lock = Mutex.create () } in
      alloc t base_capacity;
      t)

(** Doubles the arrays of a full buffer. *)
let grow t =
  let n = t.len in
  let kinds = t.kinds and texts = t.texts and lines = t.lines in
  alloc t (2 * n);
  Array.blit kinds 0 t.kinds 0 n;
  Array.blit texts 0 t.texts 0 n;
  Array.blit lines 0 t.lines 0 n

(* A file's tokens overwrite the previous file's, so only the slots past
   its end can still hold the previous file's values (its literals): drop
   them, a write per slot of the difference rather than per token. *)
let drop t prev =
  if prev > t.len then begin
    Array.fill t.kinds t.len (prev - t.len) t.blank;
    Array.fill t.texts t.len (prev - t.len) ""
  end

(* Lex [src] into [t], back at base capacity after an oversized file. *)
let fill t lex src =
  let prev = if Array.length t.kinds > retained_capacity then (alloc t base_capacity; 0) else t.len in
  t.len <- 0;
  match lex t src with
  | () -> drop t prev
  | exception e ->
      drop t prev;
      raise e

(** [with_tokens d lex src f] fills the calling domain's buffer of [d]
    with [lex buf src] and applies [f] to it, holding its lock throughout:
    threads of one domain interleave at allocations, and another thread
    lexing meanwhile would overwrite the buffer under [f].  [f] must not
    lex in the same language. *)
let with_tokens d lex src f =
  let t = Domain.DLS.get d in
  Mutex.protect t.lock (fun () ->
      fill t lex src;
      f t)

let length t = t.len
let kind t i = t.kinds.(i)
let text t i = t.texts.(i)
let line t i = t.lines.(i)
let capacity t = Array.length t.kinds
