(** Frequent-pattern trees (Han, Pei & Yin, SIGMOD 2000) specialized for
    name-pattern mining: items are interned name-path ids; each inserted
    sequence is one [sort(condition) @ sort(deduction)] split, with the last
    node flagged as a pattern-assembly point (Figure 3(a)).  The tree is
    stored in flat int arrays; see the implementation header for the order
    in which {!iter_last} visits children, which fixes candidate and
    pattern ids. *)

type t

val create : unit -> t

(** [insert t items len] adds the sequence [items.(0) .. items.(len - 1)]
    (items in [[0, 2{^31})]); the buffer is only read, so callers reuse
    one.  [len = 0] is ignored. *)
val insert : t -> int array -> int -> unit

(** Number of nodes (excluding the root). *)
val size : t -> int

(** [iter_last t f] calls [f path len support] on every flagged node:
    [path.(0 .. len - 1)] are the item ids from the root, in a buffer that
    is rewritten between calls, and [support] is the node's occurrence
    count — the traversal skeleton of Algorithm 2.  Children are visited
    in per-node [Hashtbl.fold] order with the default hash seed, whatever
    [OCAMLRUNPARAM] says. *)
val iter_last : t -> (int array -> int -> int -> unit) -> unit

(** {!iter_last} as a fold over item lists. *)
val fold_last_nodes :
  t -> f:('a -> path_items:int list -> support:int -> 'a) -> 'a -> 'a
