(** Name paths (Definition 3.2) — the program abstraction for one
    identifier-name usage — and their relational operators (Definition 3.4).

    See the implementation comments for the extraction invariants (§3.1 of
    the paper): extracted paths are concrete and have pairwise-distinct
    prefixes. *)

(** One step of a prefix: a non-terminal's value and the index of the child
    taken. *)
type step = { value : string; index : int }

type t = {
  prefix : step list;  (** S — the root-to-parent steps *)
  end_node : string option;  (** the terminal subtoken; [None] is ϵ *)
}

(** Whether the end node is the symbolic ϵ. *)
val is_symbolic : t -> bool

(** [same_prefix a b] is the paper's [a ∼ b]: equal prefixes. *)
val same_prefix : t -> t -> bool

(** [equal a b] is the paper's [a = b]: equal prefixes, and equal end nodes
    or either ϵ. *)
val equal : t -> t -> bool

(** Forget the end node (make the path symbolic). *)
val to_symbolic : t -> t

(** Canonical text of the prefix alone — the interning key used by the
    pattern store's index. *)
val prefix_key : t -> string

(** Canonical text of the whole path, e.g.
    ["NumArgs(2) 0 Call 0 … NumST(2) 1 TestCase 0 True"]; ϵ renders as
    ["ϵ"]. *)
val to_string : t -> string

val pp : Format.formatter -> t -> unit

(** Ordering by canonical text — the [sort] of Algorithm 1, line 7. *)
val compare_canonical : t -> t -> int

(** [extract ?limit t] enumerates the concrete name paths of AST+ [t] in
    leaf order, keeping at most [limit] (default 10, the paper's
    regularization) and the first path per distinct prefix. *)
val extract : ?limit:int -> Namer_tree.Tree.t -> t list

(** Inverse of {!to_string}.  @raise Invalid_argument on malformed input. *)
val of_string : string -> t

(** Hash-consed name paths: canonical texts, prefixes and end subtokens
    become dense integer ids at extraction time, so the mining/scan hot
    loops compare, hash and sort machine integers.

    Interning normally targets the implicit {!Interned.global} table.  The
    multicore contract: populate sequentially — or digest into
    {!Interned.create_table} shard-local tables on worker domains and
    {!Interned.remap_into_global}-merge them in shard order, which
    reproduces the sequential id assignment exactly — then
    {!Interned.freeze} before domains fan out; a frozen table is read-only
    and safe to share.  Strings survive only at the serialization boundary
    ({!of_string}/{!to_string}, pattern persistence, report rendering). *)
module Interned : sig
  type path := t

  type t = {
    np : path;  (** the underlying name path *)
    pid : int;  (** id of the whole canonical text *)
    prefix : int;  (** id of the prefix text — the memoized prefix key *)
    end_ : int;  (** id of the end subtoken; [-1] is ϵ *)
    sym : int;  (** pid of the symbolic form (= [pid] when already ϵ) *)
  }

  (** One id space: interners for whole paths / prefixes / ends plus the
      derived lowercase-fold, path-of-pid and canonical-rank maps. *)
  type table

  val create_table : unit -> table
  val global : table

  (** Intern one path ([table] defaults to {!global}), rendering its texts
      exactly once.  @raise Invalid_argument on a frozen table when new. *)
  val of_path : ?table:table -> path -> t

  val of_paths : ?table:table -> path list -> t list

  (** Fused extract-and-intern: semantically
      [of_paths ?table (extract ?limit tree)] with bit-identical id
      assignment (and each path's [np] is the table's first path with that
      text).  The walk follows the table's prefix trie: a prefix's text is
      rendered once per table, not per path.  A frozen table is only read.
      The digest hot path. *)
  val extract_tree : ?table:table -> ?limit:int -> Namer_tree.Tree.t -> t list

  (** A read-only set of prefix texts, each tagged with a caller-chosen
      id, held in a trie of its own — no interning table is read or
      written.  Safe to share across domains. *)
  type prefix_set

  val prefix_set : (string * int) list -> prefix_set

  (** [walk_prefix_set ps ~limit tree] is [(n, kept)]: [n] is the number
      of paths [extract ~limit tree] returns, and [kept] lists, in leaf
      order, those of them whose prefix text is in [ps], as (id, end
      subtoken).  Paths under other prefixes still count toward [limit].
      Nothing is rendered unless a node value holds a space. *)
  val walk_prefix_set : prefix_set -> limit:int -> Namer_tree.Tree.t -> int * (int * string) list

  (** Global-table ids for pattern compilation: intern when unfrozen; when
      frozen, unknown strings map to the never-matching sentinel [-2]. *)
  val prefix_id : path -> int

  val end_id : string -> int

  (** String views (global table).  @raise Invalid_argument on unknown ids. *)
  val end_name : int -> string

  val prefix_name : int -> string
  val lookup_end : string -> int option
  val n_ends : unit -> int

  (** Lowercase-folded end id — consistency checks are case-insensitive. *)
  val lower_end : int -> int

  (** The name path behind a global path id. *)
  val path_of_pid : int -> path

  (** The prefix id and the end id ([-1] for ϵ) of a global path id —
      what {!of_path} gives that path, read back without rendering it. *)
  val prefix_of_pid : int -> int

  val end_of_pid : int -> int

  (** Freeze the global table read-only and precompute canonical-text ranks
      so {!compare_rank} is an integer comparison.  Pair with {!thaw}. *)
  val freeze : unit -> unit

  val thaw : unit -> unit
  val is_frozen : unit -> bool

  (** Canonical-text order ({!compare_canonical}) on interned paths; rank
      ints when frozen, text otherwise — identical sort either way. *)
  val compare_rank : t -> t -> int

  (** Same order on bare global path ids. *)
  val compare_pids : int -> int -> int

  (** A table's whole-path, prefix and end vocabularies, each in id order:
      for model snapshots (which keep the global prefixes and ends) and for
      checking that two ways of interning agree. *)
  val contents : table -> string list * string list * string list

  (** Number of nodes in a table's prefix trie, the empty prefix included
      (for checking that a frozen table is not written). *)
  val trie_nodes : table -> int

  (** Sizes of a table's whole-path, prefix and end interners. *)
  val sizes : table -> int * int * int

  (** Re-populate the global table from a snapshot in saved id order —
      exact id (and lowercase-fold) reproduction on an empty table, a
      harmless merge otherwise.  @raise Invalid_argument when frozen. *)
  val preload_global : prefixes:string list -> ends:string list -> unit

  (** Id translations from a shard-local table into the global one. *)
  type remap = { path_map : int array; prefix_map : int array; end_map : int array }

  (** Merge a shard-local table into {!global} (in first-seen order; call in
      shard order to reproduce the sequential id assignment). *)
  val remap_into_global : table -> remap

  val apply_remap : remap -> t -> t
end

(** Alias for {!Interned.extract_tree}. *)
val extract_interned :
  ?table:Interned.table -> ?limit:int -> Namer_tree.Tree.t -> Interned.t list
