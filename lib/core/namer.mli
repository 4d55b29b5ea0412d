(** Namer — the end-to-end system (Figure 1 of the paper).

    [build] turns a corpus into a trained system: parse and analyze every
    file, transform statements to AST+, extract name paths, mine confusing
    word pairs from commit history, mine consistency and confusing-word
    name patterns, scan for violations, accumulate multi-level aggregates,
    extract the Table 1 features, and train the defect classifier on a
    small balanced labeled sample.  Inference and the paper's evaluation
    protocol (Tables 2/5) are provided on top. *)

module Pattern = Namer_pattern.Pattern
module Features = Namer_classifier.Features
module Corpus = Namer_corpus.Corpus
module Confusing_pairs = Namer_mining.Confusing_pairs

type config = {
  use_analysis : bool;  (** the "A" of Tables 2/5: §4.1 origin decoration *)
  use_classifier : bool;  (** the "C": without it, report every violation *)
  miner : Namer_mining.Miner.config;
  pair_min_count : int;  (** commit sightings required of a confusing pair *)
  n_labeled : int;  (** labeled training violations (paper: 120) *)
  label_noise : float;  (** training label flip rate (human labeling error) *)
  ordering_vocab : (string * string) list;  (** seeds for ordering patterns *)
  algo : Namer_ml.Pipeline.algo option;  (** [None] = cross-validated selection *)
  seed : int;
  jobs : int;
      (** worker domains for the sharded pipeline ([1] = fully sequential).
          Any [jobs] value produces bit-identical results: shards are
          deterministic ({!Namer_parallel.Shard}) and per-shard accumulators
          merge in shard order, so parallelism changes only wall-clock. *)
  cap_domains : bool;
      (** clamp [jobs] to [Domain.recommended_domain_count ()] (default
          [true]): more domains than cores is a pure pessimization in
          OCaml 5 and results are identical anyway.  Tests that must
          exercise real worker domains on small machines turn it off. *)
  digest_batch : int;
      (** files per streaming digest batch (default [1024]).  [build]
          holds at most one batch of sources and ASTs resident at a time —
          peak memory is O(batch × jobs), never O(corpus) —
          and every value produces bit-identical results (batches are
          contiguous corpus slices merged in order). *)
}

val default_config : config

(** The configuration for mining a raw directory of [n_files] files.  It
    has no commit history and no labeled data, so the classifier is off
    (the paper's "w/o C" configuration), and the mining thresholds scale
    with the corpus so that small directories still yield patterns:
    [min_support = max 5 (n_files / 20)], [min_path_freq = max 3
    (n_files / 50)].  CLI training and self-mining scans use it, and so
    does the fuzzer, so a saved model scans like a self-mining run. *)
val self_mining_config : n_files:int -> config

(** One scanned statement: its digest plus feature/reporting context. *)
type scanned_stmt = {
  sctx : Features.stmt_ctx;
  line : int;
  digest : Pattern.Stmt_paths.t;
}

(** One pattern violation — a potential naming issue. *)
type violation = {
  v_stmt : scanned_stmt;
  v_pattern : Pattern.t;
  v_info : Pattern.violation_info;
  mutable v_features : float array;
}

(** ["found -> suggested"], the rendered fix. *)
val describe_fix : violation -> string

(** A file the pipeline dropped instead of crashing on — unparseable,
    resource-bombed (deep-nesting [Stack_overflow]), or poisoned by an
    injected fault ({!Namer_util.Fault}).  Per-file failure isolation:
    the scan completes, the skip is counted ([scan.files_skipped]) and
    surfaced here with the offending path and the exception text. *)
type skipped = { sk_file : string; sk_reason : string }

type t = {
  cfg : config;
  lang : Corpus.lang;
  pairs : Confusing_pairs.t;
  store : Pattern.Store.t;
  agg : Features.Agg.t;
  violations : violation array;  (** deduplicated scan results *)
  classifier : Namer_ml.Pipeline.t option;
  cv_reports : (Namer_ml.Pipeline.algo * Namer_ml.Pipeline.cv_report) list;
  training_set : (int, unit) Hashtbl.t;
  oracle : Corpus.Oracle.t;
  source_of : string -> string option;
      (** file → source for report listings; streaming builds re-read the
          file on demand instead of pinning the corpus in memory *)
  n_stmts : int;
  n_files : int;
  n_repos : int;
  n_files_violating : int;
  n_repos_violating : int;
  n_candidates : int;
  skipped : skipped list;  (** files dropped by per-file isolation *)
}

(** Confusing pairs used when a corpus has no commit history. *)
val builtin_pairs : Corpus.lang -> (string * string) list

(** {1 Streaming file references}

    The frontend never requires a corpus in memory: a {!file_ref} names a
    file and knows how to load it.  [build]/{!build_refs} stream refs
    through the digest in bounded batches ([digest_batch]) and {!scan_refs}
    one file per task — the source and AST of a file exist only between
    its [fr_load] and the end of its digest. *)

type file_ref = {
  fr_repo : string;  (** shard key — files of one repo stay contiguous *)
  fr_path : string;
  fr_load : unit -> string;  (** called once per digest, on a worker domain *)
}

(** A ref over an already-loaded generated-corpus file. *)
val ref_of_file : Corpus.file -> file_ref

(** A ref that reads [file] from disk on demand (binary, whole file). *)
val ref_of_path : repo:string -> path:string -> file:string -> file_ref

(** [refs_of_dir ~lang dir] — a ref for each [lang] source file under
    [dir] (repo [dir], path the file's path), in {!Namer_util.Fs.walk}'s
    name order, so a model trained from them has the same bytes on any
    copy of [dir].  Nothing is read until a ref is loaded.
    @raise Sys_error when a directory cannot be listed. *)
val refs_of_dir : lang:Corpus.lang -> string -> file_ref list

(** Streaming-contract gauge (tests): the high-water mark of sources
    resident in digests since the last reset — O(batch × jobs) bounded. *)
val reset_in_flight_peak : unit -> unit

val in_flight_sources_peak : unit -> int

(** [build cfg corpus] runs the full training pipeline.  With
    [cfg.jobs > 1] the per-file digesting, pair mining, mining statistics,
    scan and feature extraction run sharded on a domain pool, merged
    deterministically — the result is bit-identical to a [jobs = 1]
    build. *)
val build : config -> Corpus.t -> t

(** [build_refs cfg ~lang refs] — the same pipeline over streaming refs:
    sources are loaded batch-by-batch and dropped after digesting, so a
    corpus far larger than memory trains in O(digest_batch × jobs) peak
    source residency.  No commit history (builtin confusing pairs apply)
    and an empty oracle — the CLI's on-disk training shape. *)
val build_refs : config -> lang:Corpus.lang -> file_ref list -> t

(** Re-draw the labeled sample and re-train the classifier on the same
    violations (variance reduction for evaluation; the paper averages its
    CV over 30 splits similarly). *)
val retrain : t -> seed:int -> t

(** Classifier decision: [true] = report (always [true] without C). *)
val classify : t -> violation -> bool

(** Oracle verdict (evaluation only — stands in for manual inspection). *)
val grade : t -> violation -> Corpus.Oracle.verdict

(** Uniform sample of violations, excluding the classifier's training rows
    (§5.1) and anything rejected by [filter]. *)
val sample_violations :
  ?filter:(violation -> bool) -> t -> n:int -> seed:int -> violation list

(** Source text of the violating line, for report listings. *)
val source_line : t -> violation -> string

(** Graded outcome of a report set — one row of Table 2 / 5. *)
type outcome = { n_reports : int; semantic : int; quality : int; false_pos : int }

val precision : outcome -> float
val grade_reports : t -> violation list -> outcome

(** The paper's protocol: sample [n] violations, classify, grade. *)
val evaluate : ?n:int -> ?seed:int -> t -> outcome

(** Trained classifier weights per original feature (Table 9). *)
val feature_weights : t -> float array

(** {1 Model snapshots — train once, scan many}

    A {!model} is the trained artifact of a build detached from its corpus:
    the compiled pattern store, the confusing-pair table, the classifier and
    the interner vocabulary they reference.  {!save_model} persists it as a
    versioned, checksummed binary snapshot (format: DESIGN.md §8) whose
    checksum doubles as the model's identity hash; {!load_model} restores it
    without re-digesting or re-mining anything.  {!scan_with_model} then
    scans arbitrary files against it, optionally through a per-file report
    cache keyed on (model hash, content digest). *)

type model = {
  m_lang : Corpus.lang;
  m_use_analysis : bool;  (** the build's "A" ablation switch *)
  m_max_stmt_paths : int;  (** paths kept per statement at digest time *)
  m_store : Pattern.Store.t;
  m_pairs : Confusing_pairs.t;
  m_classifier : Namer_ml.Pipeline.t option;
  m_hash : string;  (** checksum identity of the serialized form *)
  m_vocab : Pattern.vocab;
      (** the store's scan vocabulary, built once with the model: scans
          digest against it and never read or write the global interner *)
  m_matcher : Pattern.Matcher.t;
      (** the store's anchor table, built with the model and ranked from
          the store alone ({!Pattern.Matcher.of_store}), so a loaded model
          and the model of a build run the same checks *)
}

(** ["consistency" | "confusing-word" | "ordering"] — the stable kind tag
    used in reports, JSON output and cache entries. *)
val kind_name : Pattern.kind -> string

(** The model of a finished build (hash included; nothing touches disk). *)
val model_of : t -> model

(** Serialize the build's trained state to [path] (atomic write) and return
    the model. *)
val save_model : t -> path:string -> model

(** Restore a model from a snapshot file.
    @raise Namer_model.Snapshot.Error on unreadable, truncated, corrupted or
    version-mismatched files, with a message naming the file and the fix. *)
val load_model : path:string -> model

(** {1 Partial models — incremental, mergeable training}

    A partial model is the mergeable training state of one corpus slice:
    its digested statements (as indices into a first-seen-ordered
    whole-path vocabulary), its file list and its unpruned confusing-pair
    tallies, persisted as a versioned, checksummed [NAMERPRT] snapshot.
    The merge algebra (representation and laws:
    {!Namer_model.Partial_model}) is closed and associative with
    {!Partial.empty} as identity, and satisfies the contract

    {v train(A + B) ≡ merge(train A, train B) v}

    — finalizing the merge of slice partials yields a model whose scan
    reports are byte-identical to those of a model trained on the
    concatenated corpus, for every split, permutation and
    parenthesization (DESIGN.md §13; property-tested in
    [test/test_partial_model.ml]). *)
module Partial : sig
  type build := t

  type t = Namer_model.Partial_model.t
  (** The fields ([pm_files], [pm_pairs], …) are public — see
      {!Namer_model.Partial_model}. *)

  val empty : t
  (** Identity element of {!merge}. *)

  val is_empty : t -> bool
  val n_files : t -> int
  val n_stmts : t -> int
  val n_repos : t -> int

  val lang_tag : Corpus.lang -> string
  (** ["python" | "java"] — the tag stored in [pm_lang]. *)

  val lang_of : t -> Corpus.lang
  (** @raise Namer_model.Snapshot.Error on an unknown tag. *)

  val align_config : config -> t -> config
  (** Overlay the digest-shaping settings baked into the partial
      ([use_analysis], [max_stmt_paths]) onto [cfg] — digest an added
      slice with the aligned config or {!merge} will reject it. *)

  val of_refs : ?commits:(string * string) list -> config -> lang:Corpus.lang ->
    file_ref list -> t
  (** Digest one corpus slice into a partial: the streaming frontend of
      {!build_refs} with every downstream stage deferred to {!finalize}.
      [commits] are tallied into unpruned pair counts that sum under
      {!merge}. *)

  val of_corpus : config -> Corpus.t -> t
  (** [of_refs] over an in-memory corpus, commits included. *)

  val merge : t -> t -> t
  (** Combine two partials covering disjoint slices into the partial of
      their concatenation.  @raise Namer_model.Partial_model.Merge_error
      on incompatible config/language or overlapping files. *)

  val merge_all : t list -> t
  (** Left fold of {!merge}; {!empty} for [[]]. *)

  val finalize : ?oracle:(unit -> Corpus.Oracle.t) -> config -> t -> build
  (** Run mining, scanning and supervision over the partial's replayed
      statements — the build a direct train of the concatenated slices
      would produce.  [oracle] (default empty, as for directory training)
      grades the labeled sample when the slices came from a generated
      corpus. *)

  val save : t -> path:string -> string
  (** Atomic write; returns the partial's checksum identity. *)

  val load : path:string -> t * string
  (** @raise Namer_model.Snapshot.Error on unreadable or malformed files,
      naming the failing section. *)
end

(** One scan report, rendered down to strings — the cacheable shape. *)
type report = {
  r_file : string;
  r_line : int;
  r_prefix : string;  (** offending prefix key *)
  r_found : string;
  r_suggested : string;
  r_kind : string;  (** {!kind_name} of the violated pattern *)
}

type scan_result = {
  sr_reports : report array;  (** sorted by (file, line, prefix, …) *)
  sr_cache_hits : int;
  sr_cache_misses : int;  (** 0 unless a cache dir was given *)
  sr_skipped : skipped list;
      (** files dropped by per-file isolation — skipped files are never
          written to the cache, so they are re-attempted on every scan *)
}

(** {2 Rendering}

    Every scan output — the CLI's two scan modes, [namer serve] responses
    and their client-side text form — renders reports through these
    functions.  [statement] is the reported source line
    ({!statement_of}). *)

(** Line [line] of [src], trimmed; ["<unknown file>"] without a source,
    ["<line out of range>"] past its end. *)
val statement_of : src:string option -> line:int -> string

(** A build's violation as a report, for rendering. *)
val report_of_violation : violation -> report

(** The first [max_reports] reports as a JSON list of
    [{file, line, statement, found, suggested, pattern}] objects. *)
val reports_json :
  statement:(report -> string) -> max_reports:int -> report array -> Namer_util.Json.t

(** ["file:line: statement\n    suggested fix: found -> suggested\n"];
    [r_prefix] and [r_kind] are not shown. *)
val report_text : statement:string -> report -> string

(** [statement_lookup refs] — the [statement] of a report on a file of
    [refs]: the file's ref is loaded again ({!statement_of} gets [None]
    when it fails, or when no ref has the report's path).  It keeps the
    last file it loaded, so file-sorted reports load each file once; one
    caller at a time. *)
val statement_lookup : file_ref list -> report -> string

(** [[{file, reason}, …]]. *)
val skipped_json : skipped list -> Namer_util.Json.t

(** The fields of [namer scan --model --json], in order: [files], [model],
    [patterns], [violations], [cache_hits], [cache_misses],
    [files_skipped], [skipped] and the first [max_reports] [reports]. *)
val scan_json_fields :
  model -> files:int -> statement:(report -> string) -> max_reports:int ->
  scan_result -> (string * Namer_util.Json.t) list

(** [scan_with_model m files] digests and matches [files] against the model
    — no mining, no training.  With [cache_dir], per-file reports persist
    under [(model hash, content digest)] keys: unchanged files skip
    parse/analyze/name-path extraction entirely and replay byte-identically
    at any [jobs].  Deterministic: the report array is totally ordered.

    [pool] runs the per-file tasks on a caller-owned domain pool instead of
    creating one per call — the serve daemon loads a model once and
    multiplexes every request's scan onto one resident pool.  When [pool]
    is given, [jobs] and [cap_domains] are ignored.  A scan reads only the
    model (its vocabulary included) and never the global name-path
    interner, so concurrent scans, and a {!load_model} beside them, need no
    lock. *)
val scan_with_model :
  ?jobs:int -> ?cap_domains:bool -> ?pool:Namer_parallel.Pool.t ->
  ?cache_dir:string -> model -> Corpus.file list ->
  scan_result

(** [digest_for_model m file] — [file]'s statements digested as a model
    scan digests them, against the model's scan vocabulary; [None] when
    the scan would skip the file.  For checking the scan's matcher against
    a reference.  Like every model-scan digest, its contexts carry
    [tree_hash] 0: nothing a model scan reports reads it. *)
val digest_for_model : model -> Corpus.file -> scanned_stmt list option

(** [scan_refs m refs] — the streaming form of {!scan_with_model}: each
    file is loaded, cache-probed, digested, matched and dropped inside one
    task on a worker domain, so scanning a corpus never holds more than one
    source per domain.  Same determinism and cache contract. *)
val scan_refs :
  ?jobs:int -> ?cap_domains:bool -> ?pool:Namer_parallel.Pool.t ->
  ?cache_dir:string -> model -> file_ref list ->
  scan_result
