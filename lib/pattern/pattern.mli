(** Name patterns (Definitions 3.6–3.9) and their match / satisfaction /
    violation relationships, plus the deduplicating pattern store with its
    inverted matching index.  Digests and pattern checks run in the
    hash-consed {!Namepath.Interned} id space; strings appear only in the
    [Violated] payloads and the persistence layer. *)

module Namepath = Namer_namepath.Namepath

type kind =
  | Consistency
      (** deduction = two symbolic paths whose subtokens must agree
          (case-insensitively), as in Example 3.8's [self.<n> = <n>] *)
  | Confusing_word of { correct : string }
      (** deduction = one path whose end must be the correct word w₂ of a
          mined confusing pair ⟨w₁, w₂⟩, as in Figure 2(e) *)
  | Ordering of { first : string; second : string }
      (** extension: deduction = two paths that must carry the word pair in
          canonical order ([resize(width, height)]); the exact swap
          violates — the argument-swap defect class of the paper's related
          work (Rice et al., DeepBugs) *)

(** A pattern lowered to the interned-id space; built lazily, memoized. *)
type compiled

type t = {
  kind : kind;
  condition : Namepath.t list;
  deduction : Namepath.t list;
  id : int;  (** dense id assigned by {!Store.add}; -1 before registration *)
  mutable compiled : compiled option;
}

val make : kind:kind -> condition:Namepath.t list -> deduction:Namepath.t list -> t

(** Canonical text, stable across runs; used for deduplication. *)
val canonical : t -> string

val pp : Format.formatter -> t -> unit

(** Whether the pattern constrains a callee name (feature 13 of Table 1). *)
val targets_function_name : t -> bool

(** A store's scan vocabulary ({!Store.vocab}): the prefixes and end words
    its compiled patterns mention, under their compiled ids.  Immutable;
    digesting against it reads no interning table, so any number of domains
    share one. *)
type vocab

(** Statements pre-digested for pattern checking. *)
module Stmt_paths : sig
  (** How ids turn back into text: through the global table, or through
      the digest's scan vocabulary and the end words of its index, which
      also name its statement-local ends. *)
  type names = Global | Vocab of vocab * string array

  type t = {
    ipaths : Namepath.Interned.t array;
        (** all paths, original order; [[||]] for a vocabulary digest *)
    index_prefix : int array;
        (** distinct concrete-path prefix ids, leaf order *)
    index_end : int array;  (** end id of the first path at that prefix *)
    n_paths : int;  (** paths extracted, kept or not *)
    names : names;
  }

  (** Digest a path list; [table] (default the global table) lets worker
      domains intern into shard-local tables and {!remap} later. *)
  val of_paths : ?table:Namepath.Interned.table -> Namepath.t list -> t

  (** Assemble a digest from already-interned paths — the partial-model
      replay path, where the vocabulary was interned once up front.
      [of_paths ps = of_interned (Interned.of_paths ps)]. *)
  val of_interned : Namepath.Interned.t list -> t

  val of_tree : ?table:Namepath.Interned.table -> ?limit:int -> Namer_tree.Tree.t -> t

  (** Digest against a scan vocabulary — the model scan's path.  Of the
      paths {!of_tree} would extract, only those whose prefix a pattern
      mentions are indexed, with the ids {!of_tree} gives them on the table
      the patterns were compiled against; an end word no pattern mentions
      gets a statement-local id.  {!Store.candidates} and {!check} answer
      both digests alike. *)
  val of_vocab : vocab -> ?limit:int -> Namer_tree.Tree.t -> t

  val paths : t -> Namepath.t list

  (** End id at a prefix id, [-1] when absent — the hot-path lookup. *)
  val end_id : t -> prefix:int -> int

  (** The digest's own prefix-id index (shared array — do not mutate). *)
  val prefix_ids : t -> int array

  (** Translate a shard-local digest into global ids, in place: the
      digest's own arrays are rewritten, so the caller must own it. *)
  val remap : Namepath.Interned.remap -> t -> unit
end

(** One violated occurrence: the offending subtoken and the deduced fix. *)
type violation_info = {
  offending_prefix : string;
  found : string;
  suggested : string;
}

type relation = No_match | Satisfied | Violated of violation_info

(** Classify a statement against a pattern per Definitions 3.7/3.9 —
    integer comparisons only on the hot path. *)
val check : t -> Stmt_paths.t -> relation

(** {2 Payload-free checks}

    What {!check} decides before it renders a [Violated] payload, over
    compiled ids, for callers that hold patterns as ids rather than as
    {!t} (the miner's candidate rows).  An outcome is [0] for no match,
    [1] for satisfied and [2] for violated. *)

(** Whether the condition item [(prefix, want)] holds: the digest's index
    has the prefix, with the wanted end unless [want] is [-1] (ϵ). *)
val item_holds : Stmt_paths.t -> prefix:int -> want:int -> bool

(** A consistency deduction over the prefix ids [d0] and [d1], whose
    condition holds. *)
val consistency_outcome : Stmt_paths.t -> int -> int -> int

(** A confusing-word deduction at prefix id [d0] with the correct word's
    end id, whose condition holds. *)
val confusing_outcome : Stmt_paths.t -> int -> correct:int -> int

(** An ordering deduction over the prefix ids [d0] and [d1] with the
    words' end ids, whose condition holds. *)
val ordering_outcome : Stmt_paths.t -> int -> int -> first:int -> second:int -> int

(** [make] with the compiled form given rather than derived: [cond] holds
    the condition items as {!condition_items} returns them, [ded] the
    (prefix id, end id) of each deduction path, in order.  For callers
    whose paths are already interned (the miner), so compiling renders and
    looks up nothing.  A [Confusing_word] or [Ordering] kind's word ids
    are taken from the deduction ends, so its words must be those ends. *)
val of_ids :
  kind:kind ->
  condition:Namepath.t list ->
  deduction:Namepath.t list ->
  cond:(int * int) array ->
  ded:(int * int) array ->
  t

(** Force the memoized compiled form (done automatically by {!Store.add}
    and {!check}); call before sharing a pattern across domains. *)
val ensure_compiled : t -> compiled

(** The compiled condition items, [(prefix id, wanted end id)]: the want
    is [-1] for ϵ, and a [-2] prefix or want is unknown-while-frozen and
    never holds.  A condition holds in a digest when, for every item, the
    digest's index has the prefix, with the wanted end unless it is ϵ.
    Shared array — do not mutate. *)
val condition_items : t -> (int * int) array

(** The compiled deduction prefix ids, in deduction order; {!check} matches
    only when the digest's index has the first of them.  Shared array — do
    not mutate. *)
val deduction_prefixes : t -> int array

module Store : sig
  type pattern := t

  (** A deduplicated pattern collection with an inverted index from
      deduction-prefix ids to patterns. *)
  type t

  val create : unit -> t
  val size : t -> int
  val get : t -> int -> pattern

  (** Register (deduplicating by canonical form); returns the pattern id. *)
  val add : t -> pattern -> int

  (** [of_list ps]: the store of the distinct patterns [ps] (a saved
      store, loaded) under ids [0, 1, …] in list order, without rendering
      their canonical text; a later {!add} still deduplicates against
      them. *)
  val of_list : pattern list -> t

  (** Patterns whose deduction prefix occurs in the statement, without
      repeats: a superset of those {!check} matches.  Scans use
      {!Matcher}; this stays as the reference the matcher is tested
      against, and because the benchmark's traced composition
      ([perfbench/compose.ml]) times it.  Its
      order — index slot of the first deduction prefix, then descending
      pattern id — is the order {!Matcher.match_file} keeps among one
      statement's violations. *)
  val candidates : t -> Stmt_paths.t -> pattern list

  (** Build the store's scan vocabulary.  Patterns added later are not in
      it. *)
  val vocab : t -> vocab

  val iter : (pattern -> unit) -> t -> unit
  val fold : ('a -> pattern -> 'a) -> t -> 'a -> 'a
end

(** The anchored matcher: the one way the prune, training's scan and model
    scans find a statement's matches.  An anchor table files each pattern
    once, under a key every statement it matches has in its index: the
    exact condition item ([(prefix, end)], wanted end not ϵ) of lowest
    rank, or, when there is none, its first deduction prefix.  A statement
    looks up its own index items and prefixes and runs {!check} on what it
    finds — a superset of the patterns it matches, each once — so the
    matches are those of {!Store.candidates} + {!check} under any rank;
    the rank decides only how many checks run. *)
module Matcher : sig
  type pattern := t

  (** {2 The anchor table}

      Dense ids [0 .. n - 1] filed under anchor keys: a store's pattern
      ids, or the miner's candidate ids. *)

  type table

  (** [anchor ~ded0 ~n ~prefix ~want ~rank] is the key of a pattern with
      first deduction prefix [ded0] and [n] condition items, item [i] being
      [(prefix i, want i)]: among the exact items ([want i >= 0]) the one
      of lowest [rank i], the first on a tie, packed as
      [(prefix lsl 31) lor want]; with no exact item, [ded0] as
      [-1 - ded0]. *)
  val anchor :
    ded0:int -> n:int -> prefix:(int -> int) -> want:(int -> int) -> rank:(int -> int) -> int

  (** [index ~n key] files every id [i < n] with [key i = Some k] under [k];
      an id without a key is never visited. *)
  val index : n:int -> (int -> int option) -> table

  (** [iter_ids tb f s] calls [f s id] for every id filed under one of
      [s]'s index items or index prefixes — each id at most once, a
      superset of the patterns that match [s] — and returns how many it
      visited. *)
  val iter_ids : table -> (Stmt_paths.t -> int -> unit) -> Stmt_paths.t -> int

  (** {2 Over a store} *)

  type t

  (** The key [p] is filed under ({!anchor} over {!condition_items} with
      [rank p]), or [None] when [p] can never match: a [-2] id in its
      condition or deduction prefixes never holds, and a pattern without
      deduction prefix is never a candidate. *)
  val anchor_key : rank:(pattern -> int -> int) -> pattern -> int option

  (** An anchor table over every pattern of the store.  Patterns added to
      the store later are not in it. *)
  val create : rank:(pattern -> int -> int) -> Store.t -> t

  (** [create] ranking each exact item by the number of the store's
      conditions that hold it — for a loaded model, which has no corpus
      counts. *)
  val of_store : Store.t -> t

  (** [iter_matches m f s] calls [f p rel] for every pattern [p] that
      matches [s] ([rel] is [Satisfied] or [Violated]), in table order, and
      returns the number of {!check}s run. *)
  val iter_matches : t -> (pattern -> relation -> unit) -> Stmt_paths.t -> int

  type 's file_matches = {
    violations : ('s * pattern * violation_info) list;
        (** after dedup, in the order their keys first occur *)
    raw : int;  (** violations before dedup *)
    checks : int;  (** {!check}s run *)
  }

  (** [match_file m ~digest ~line ~on_match stmts lo hi] matches one
      file's statements, [stmts.(lo) .. stmts.(hi - 1)], in order:
      [on_match] sees every match, and violations are deduplicated to one
      per (line, offending prefix, suggestion, kind) — the first, in
      statement order and within a statement in {!Store.candidates} order,
      of those with the longest condition. *)
  val match_file :
    t ->
    digest:('s -> Stmt_paths.t) ->
    line:('s -> int) ->
    on_match:('s -> pattern -> relation -> unit) ->
    's array ->
    int ->
    int ->
    's file_matches
end
