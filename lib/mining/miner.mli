(** Mining name patterns from Big Code — Algorithms 1 and 2 of §3.3, with
    the regularizations of §5.1 (path-frequency filter, statement path
    limit, condition-size limit, support and satisfaction-ratio pruning). *)

module Namepath = Namer_namepath.Namepath
module Pattern = Namer_pattern.Pattern

type config = {
  min_path_freq : int;  (** paper: 10 — Algorithm 1 line-5 filter *)
  max_stmt_paths : int;  (** paper: 10 *)
  max_condition_paths : int;  (** paper: 10 *)
  max_subset_size : int;  (** bound on enumerated condition subsets *)
  min_support : int;  (** paper: 100 (Python) / 500 (Java) at GitHub scale *)
  min_satisfaction_ratio : float;  (** paper: 0.8 *)
}

val default_config : config

(** Per-pattern occurrence statistics over the mining dataset (the
    "entire dataset" level of classifier features 6/9/12). *)
type pattern_stats = { mutable matches : int; mutable sats : int; mutable viols : int }

type result = {
  store : Pattern.Store.t;  (** patterns surviving [pruneUncommon] *)
  dataset_stats : (int, pattern_stats) Hashtbl.t;  (** pattern id → stats *)
  n_candidates : int;  (** patterns generated before pruning *)
  cond_counts : int array array;
      (** pattern id → the corpus count of each condition path (the line-5
          path frequencies), in condition order: anchor ranks for a
          {!Pattern.Matcher} over the mined patterns *)
}

(** All (condition, deduction) splits of one statement's paths
    (Algorithm 1, line 6).  Exposed for tests. *)
val split_paths :
  kind:[ `Confusing | `Consistency | `Ordering of (string * string) list ] ->
  pairs:Confusing_pairs.t ->
  Namepath.t list ->
  (Namepath.t list * Namepath.t list) list

(** Condition sets generated from the visited paths (Algorithm 2, line 7):
    the full set, the empty set, and every subset of bounded size.
    Exposed for tests. *)
val combinations : max_subset_size:int -> 'a list -> 'a list list

(** The candidate patterns {!mine} generates before pruning (Algorithm 1,
    lines 4–8), in a store under the ids [mine] gives them.  Exposed for
    tests. *)
val candidates :
  ?pool:Namer_parallel.Pool.t ->
  config:config ->
  kind:[ `Confusing | `Consistency | `Ordering of (string * string) list ] ->
  pairs:Confusing_pairs.t ->
  Pattern.Stmt_paths.t list ->
  Pattern.Store.t

(** [prune_tally ?pool ~rank candidates stmts] is [pruneUncommon]'s
    counting pass: per candidate id, its matches, satisfactions and
    violations over [stmts], plus the number of full {!Pattern.check}s run.
    Candidates are found through a {!Pattern.Matcher} built with [rank],
    so the tallies equal those of checking every
    {!Pattern.Store.candidates} entry, under any [rank]; the rank decides
    only how many checks run.  Exposed for tests. *)
val prune_tally :
  ?pool:Namer_parallel.Pool.t ->
  rank:(Pattern.t -> int -> int) ->
  Pattern.Store.t ->
  Pattern.Stmt_paths.t list ->
  (int, pattern_stats) Hashtbl.t * int

(** [mine ?pool ~config ~kind ~pairs stmts] runs the full mining pipeline
    over the digests of every statement in the corpus.  With [pool], the
    corpus-wide counting passes (path frequencies, [pruneUncommon]
    statistics) run sharded across its domains; the mined store is
    identical to the sequential run because both passes accumulate
    commutative sums. *)
val mine :
  ?pool:Namer_parallel.Pool.t ->
  config:config ->
  kind:[ `Confusing | `Consistency | `Ordering of (string * string) list ] ->
  pairs:Confusing_pairs.t ->
  Pattern.Stmt_paths.t list ->
  result
