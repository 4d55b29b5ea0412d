(* Slice-interning pool for zero-copy lexing.

   A lexer that has just scanned a token holds its text only as a slice
   [off, off+len) of the source buffer.  [lookup] maps that slice to a
   previously built value (a shared token or spelling) without
   materialising the substring: the slice is hashed and compared in place,
   and a fresh [String.sub] happens exactly once per distinct spelling,
   inside [make].  Repeated identifiers, keywords and numerals — the
   overwhelming bulk of any real corpus — therefore cost no allocation.

   Lookups may run on several domains at once.  The bucket chains are
   immutable and only ever replaced whole, so a lookup reads them without a
   lock (a racy read sees an older chain at worst, never a torn one); a
   miss takes the pool's mutex, searches again and inserts.  A pool used
   by one domain never contends; one shared by all lexing domains pays
   each spelling once per process instead of once per domain.  The entry
   count is capped; once full, misses fall back to an un-pooled [make] so
   a pathological corpus (or a long-lived serve daemon fed unbounded fresh
   identifiers) cannot grow the pool without bound. *)

(* A bucket chain: one immutable block per entry. *)
type 'a chain = Nil | Entry of string * 'a * 'a chain

type 'a t = {
  mutable buckets : 'a chain array; (* length always a power of 2 *)
  mutable count : int;
  max_entries : int;
  lock : Mutex.t; (* held by inserts *)
}

let create ?(max_entries = 1 lsl 17) () =
  { buckets = Array.make 1024 Nil; count = 0; max_entries; lock = Mutex.create () }

(* FNV-1a over the slice: no allocation, decent dispersion for short
   ASCII tokens. *)
let hash_slice src off len =
  let h = ref 0xcbf29ce4 in
  for i = off to off + len - 1 do
    h := (!h lxor Char.code (String.unsafe_get src i)) * 0x01000193 land max_int
  done;
  !h

let slice_equal src off len key =
  String.length key = len
  &&
  let i = ref 0 in
  while !i < len && Char.equal (String.unsafe_get key !i) (String.unsafe_get src (off + !i)) do
    incr i
  done;
  !i = len

(* Top-level recursions below: a local [let rec] capturing its arguments
   would allocate a closure on every lookup. *)
let rec refile fresh mask = function
  | Nil -> ()
  | Entry (key, v, rest) ->
      let idx = hash_slice key 0 (String.length key) land mask in
      fresh.(idx) <- Entry (key, v, fresh.(idx));
      refile fresh mask rest

(* Inserts run under [lock]; a grown table is built aside and published
   whole. *)
let insert t key v =
  if t.count >= 2 * Array.length t.buckets then begin
    let size = 2 * Array.length t.buckets in
    let fresh = Array.make size Nil in
    Array.iter (refile fresh (size - 1)) t.buckets;
    t.buckets <- fresh
  end;
  let idx = hash_slice key 0 (String.length key) land (Array.length t.buckets - 1) in
  t.buckets.(idx) <- Entry (key, v, t.buckets.(idx));
  t.count <- t.count + 1

(* Pre-seed an entry (e.g. keyword -> Keyword token) before any lookups. *)
let add t key v = Mutex.protect t.lock (fun () -> if t.count < t.max_entries then insert t key v)

let rec find_in src off len = function
  | Nil -> None
  | Entry (key, v, rest) -> if slice_equal src off len key then Some v else find_in src off len rest

let miss t src off len make =
  Mutex.protect t.lock (fun () ->
      let bucket = t.buckets.(hash_slice src off len land (Array.length t.buckets - 1)) in
      match find_in src off len bucket with
      | Some v -> v
      | None ->
          let key = String.sub src off len in
          let v = make key in
          if t.count < t.max_entries then insert t key v;
          v)

let rec find t src off len make = function
  | Nil -> miss t src off len make
  | Entry (key, v, rest) ->
      if slice_equal src off len key then v else find t src off len make rest

let lookup t ~src ~off ~len ~make =
  let buckets = t.buckets in
  find t src off len make buckets.(hash_slice src off len land (Array.length buckets - 1))

let size t = t.count
