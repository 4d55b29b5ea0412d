(** The defect classifier's feature extraction — Table 1 of the paper:
    17 high-level features per violation, most computed at three
    granularities (file / repository / entire dataset) from aggregates
    accumulated in one scan pass. *)

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

(** Corpus-level aggregates, accumulated during the scan pass: per
    (pattern, file), (pattern, repo) and pattern match tallies, and
    identical-statement counts per file and repo. *)
module Agg : sig
  type t

  val create : unit -> t

  (** Record one scanned statement (identical-statement counts, f2/f3). *)
  val add_stmt : t -> stmt_ctx -> unit

  (** Record one pattern-check outcome (f4–f12); [No_match] is ignored. *)
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
