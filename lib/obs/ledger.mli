(** The run ledger: one append-only JSONL file of self-contained run
    records that survives the process.

    Every CLI/bench invocation appends exactly one record to
    [<dir>/ledger.jsonl] — schema-versioned, carrying the run's identity
    (argv, git describe, subcommand), its configuration, input/model
    digests, per-stage wall/alloc spans, counters, cache hit/miss, skip
    counts and peak RSS — so cost and precision trends can be compared
    {e across} runs, not just inside one ({!Trend}, [namer report]).

    {2 Crash safety}

    Appends are one [O_APPEND] write of a single complete line, so
    concurrent appends from separate processes never interleave.  A record
    torn by a crash mid-write leaves a partial line; {!read} drops any
    line that does not parse and the final fragment of a file without a
    trailing newline (counted in [dropped], never an error), and
    {!append} starts on a fresh line even after a torn write — one crash
    costs at most its own record. *)

val schema_version : int

val default_dir : unit -> string
(** [$XDG_STATE_HOME/namer] (fallback [~/.local/state/namer], then the
    temp dir) — the same state directory as the persisted metric
    registry. *)

val path : dir:string -> string
(** [<dir>/ledger.jsonl]. *)

val append : dir:string -> Namer_util.Json.t -> unit
(** Append one record as a single compact JSONL line (atomic [O_APPEND]
    write; creates [dir] as needed).  If the file ends in a torn partial
    line, a newline is prepended so this record still lands parseable.
    @raise Sys_error if the directory cannot be created or written. *)

type read_result = {
  records : Namer_util.Json.t list;  (** parseable records, file order *)
  dropped : int;  (** torn/corrupt lines skipped during recovery *)
}

val read : dir:string -> read_result
(** Read every recoverable record.  A missing file is an empty ledger. *)

val git_describe : unit -> string
(** [git describe --always --dirty] of the current directory, or
    ["unknown"] outside a repository / without git. *)

val peak_rss_kb : unit -> int
(** Peak resident set size of this process ([VmHWM] from
    [/proc/self/status]), or [-1] where unavailable. *)

val source_digest : (string * string) list -> string
(** Hex digest identifying a scanned input set: MD5 over the sorted
    [(path, MD5 source)] pairs, so the same tree always digests the same
    and any content or path change shows up in the ledger. *)

val source_digest_refs : (string * (unit -> string)) list -> string
(** {!source_digest} over lazily-loaded sources: each [(path, load)] is
    read and hashed one file at a time, so the input set never has to be
    resident at once.  Same digest as {!source_digest} on equal content.
    A file that cannot be read (a dangling link: the scan skipped it)
    digests as [-]. *)
