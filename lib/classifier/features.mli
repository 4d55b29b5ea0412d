(** The defect classifier's feature extraction — Table 1 of the paper:
    17 high-level features per violation, most computed at three
    granularities (file / repository / entire dataset) from corpus-level
    aggregates ({!Agg}). *)

module Pattern = Namer_pattern.Pattern
module Confusing_pairs = Namer_mining.Confusing_pairs

(** Feature-relevant context of the violating statement. *)
type stmt_ctx = {
  file : string;  (** for report rendering — not a hot-path key *)
  repo : string;
  mutable file_id : int;  (** dense corpus-wide file id; -1 until assigned *)
  mutable repo_id : int;  (** dense corpus-wide repo id; -1 until assigned *)
  tree_hash : int;  (** structural hash of the parsed statement tree *)
  n_paths : int;  (** number of extracted name paths (feature 1) *)
}

(** Corpus-level aggregates: per (pattern, file), (pattern, repo) and
    pattern match tallies, and identical-statement counts per file and
    repo.  An aggregate is one of three kinds, and reads as the sum of
    the parts {!sum} joins, whatever their kinds:
    - {!create} records every key;
    - {!dataset} records only the corpus-wide pattern tallies;
    - {!keyed} records only the file, repo and identical-statement keys
      some violations read.

    A build needs every key of its violations and the corpus-wide
    tallies, not the per-file and per-repo tallies of every match.  So it
    scans the corpus into {!dataset} parts, and then replays the
    statements and matches of the repositories that hold a violation into
    {!keyed} parts made from those violations' {!keys}.  For each of those
    violations, {!extract} on the sum reads what it reads on one {!create}
    aggregate fed every statement and match. *)
module Agg : sig
  type t

  (** An aggregate that records every key. *)
  val create : unit -> t

  (** An aggregate that records statement and match counts, and the
      corpus-wide tallies of each pattern (f6, f9, f12), only. *)
  val dataset : unit -> t

  (** The keys the features of some violations read: each pair's
      (pattern, file), (pattern, repo), (file, statement hash) and (repo,
      statement hash).  Read-only once built: {!keyed} parts on any number
      of domains share it. *)
  type keys

  (** [keys [(stmt, pattern_id); ...]] — the keys of violations of those
      patterns on those statements. *)
  val keys : (stmt_ctx * int) list -> keys

  (** An aggregate that records only at [keys], and neither corpus-wide
      tallies nor statement and match counts: the statements it sees have
      been counted by another part. *)
  val keyed : keys -> t

  (** Record one scanned statement (identical-statement counts, f2/f3). *)
  val add_stmt : t -> stmt_ctx -> unit

  (** Record one pattern-check outcome (f4–f12); [No_match] is ignored.
      [pattern_id] is the pattern's dense store id, not negative. *)
  val add_outcome : t -> stmt_ctx -> pattern_id:int -> Pattern.relation -> unit

  (** [sum ts] reads as the sum of [ts]'s tallies — a sharded scan keeps
      one aggregate per shard and sums them here, at no merge cost:
      {!extract} adds up the shards on each lookup.  The result shares
      [ts]'s tables; a later [add_*] on it records into the first. *)
  val sum : t list -> t

  (** Add the statements and matches recorded since the last flush to the
      [agg.stmts] and [agg.pattern_matches] telemetry counters — once per
      shard, not once per outcome. *)
  val flush_counts : t -> unit
end

val n_features : int

(** Feature names, indexed as in Table 1 (for the Table 9 weight listing). *)
val names : string array

(** The 17-dimensional feature vector of one violation. *)
val extract :
  Agg.t -> Confusing_pairs.t -> stmt_ctx -> Pattern.t -> Pattern.violation_info ->
  float array
