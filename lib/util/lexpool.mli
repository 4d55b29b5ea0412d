(** Slice-interning pool for zero-copy lexing.

    Maps substrings of a source buffer to previously built values (shared
    tokens or spellings) without allocating the substring on lookup: the
    slice is hashed and compared in place, and [String.sub] runs exactly
    once per distinct spelling.  Safe to share between domains: lookups
    read without a lock, a miss inserts under the pool's mutex. *)

type 'a t

val create : ?max_entries:int -> unit -> 'a t
(** [create ()] makes an empty pool.  Once [max_entries] (default 128k)
    distinct spellings are stored, further misses are served un-pooled so
    memory stays bounded. *)

val add : 'a t -> string -> 'a -> unit
(** Pre-seed an entry (e.g. each keyword mapped to its [Keyword] token). *)

val lookup : 'a t -> src:string -> off:int -> len:int -> make:(string -> 'a) -> 'a
(** [lookup t ~src ~off ~len ~make] returns the value stored for the slice
    [src.[off .. off+len-1]], building it with [make] (applied to the
    materialised substring) on first sight. *)

val size : 'a t -> int
(** Number of pooled entries. *)
