(** Cross-run trend aggregation over the {!Ledger} — the history behind
    [namer report].

    Each ledger record reduces to one {!row} (wall clock, allocation,
    cache hit rate, skip count, peak RSS).  {!table} renders the last N
    rows with deltas against the immediately preceding run of the same
    subcommand, and {!check} turns the same comparison into a gate:
    the latest run of each subcommand is compared against the mean of its
    previous runs, and regressions past the configured thresholds are
    reported as failures (the history-based counterpart of
    [check_bench]'s single-baseline gate).  Wall clock and allocation are
    the run's own ([wall_s], [alloc_mb]), never a sum of stage rows, which
    nest and under [--jobs] add up the time of several domains. *)

type row = {
  ts : float;  (** wall-clock timestamp of the run (seconds since epoch) *)
  cmd : string;  (** subcommand: train/scan/fuzz/bench/... *)
  git : string;  (** [git describe] at run time *)
  wall_ms : float option;  (** the record's [wall_s], in ms *)
  alloc_mb : float option;  (** the record's program-wide [alloc_mb] *)
  cache_hits : int;
  cache_misses : int;
  skipped : int;
  peak_rss_kb : int;
}

val hit_rate : row -> float option
(** Cache hit ratio in [0,1], or [None] when the run probed no cache. *)

val row_of_record : Namer_util.Json.t -> row option
(** Decode one ledger record; [None] for records from an unknown schema
    or missing required fields (tolerated, never an error). *)

val rows_of_records : Namer_util.Json.t list -> row list
(** All decodable rows, ledger (chronological) order. *)

type thresholds = {
  wall_pct : float;
      (** flag when latest wall clock exceeds the baseline mean by more
          than this percentage (e.g. [25.0]) *)
  alloc_pct : float;  (** same, for allocation *)
  hit_rate_drop : float;
      (** flag when the cache hit ratio falls by more than this many
          percentage points (e.g. [10.0]) *)
}

val default_thresholds : thresholds
(** [{ wall_pct = 50.0; alloc_pct = 50.0; hit_rate_drop = 20.0 }] — loose
    enough for shared-CI noise, tight enough to catch a lost cache. *)

val table : ?last:int -> row list -> string
(** Trend table of the last [last] (default 10) rows: per-run wall/alloc/
    hit-rate/RSS plus the delta vs the previous run of the same
    subcommand. *)

val check :
  ?last:int -> ?thresholds:thresholds -> row list -> (unit, string list) result
(** Gate the latest run of each subcommand against the mean of up to
    [last] (default 10) preceding runs of that subcommand.  A record
    without [wall_s] or [alloc_mb] is left out of that field's gate.
    [Ok ()] when nothing regressed or there is no history to compare against;
    [Error msgs] with one human-readable message per regression. *)
