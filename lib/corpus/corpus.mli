(** Synthetic Big Code corpora and the grading oracle.

    The generator replaces the paper's GitHub dataset (see DESIGN.md §1):
    deterministic repositories of Python/Java source text built from a
    catalog of naming idioms with controlled rates of injected issues and
    benign anomalies, plus commit histories for confusing-pair mining.
    The {!Oracle} replaces the paper's manual inspection. *)

type lang = Python | Java

val lang_name : lang -> string

val lang_ext : lang -> string
(** [".py"] or [".java"]: the suffix of a language's source files. *)

type file = { repo : string; path : string; source : string }

type t = {
  lang : lang;
  files : file list;
  injections : Issue.injection list;  (** ground-truth issue log *)
  benigns : Issue.benign list;  (** false-positive-if-reported log *)
  commits : (string * string) list;  (** (before, after) source pairs *)
}

type config = {
  lang : lang;
  n_repos : int;
  files_per_repo : int * int;  (** inclusive min/max *)
  issue_rate : float;  (** per idiom instance *)
  benign_rate : float;
  n_commit_files : int;
  seed : int;
}

val default_config : lang -> config

(** Pure function of [config] (fixed seeds; see DESIGN.md §5). *)
val generate : config -> t

(** [write_scale ~lang ~seed ~files_per_repo ~n_files emit] streams a
    paper-scale corpus through [emit] one generated file at a time —
    nothing is retained, so 100k+ files cost O(1) generator memory.  Each
    repo draws from a PRNG seeded by (seed, repo index), independent of
    [n_files], so an [n_files] corpus is a byte-identical prefix of any
    larger corpus with the same seed — the bounded-memory gates double the
    corpus without changing a byte of the shared prefix. *)
val write_scale :
  lang:lang -> seed:int -> files_per_repo:int -> n_files:int ->
  (repo:string -> path:string -> source:string -> unit) -> unit

(** Word-boundary, line-targeted application of recorded fixes — used to
    produce commit "after" versions.  Exposed for tests. *)
val apply_fixes : string -> Issue.injection list -> string

type corpus = t

module Oracle : sig
  (** Mechanical grading of reports against the injection log. *)

  type verdict =
    | True_issue of Issue.category
    | False_positive
    | Known_benign  (** false positive that hit a recorded benign anomaly *)

  type t

  val of_corpus : corpus -> t

  (** Grade one report: a true issue iff an injection at (file, line)
      matches found/suggested (case-insensitively; [symmetric] also accepts
      the swapped direction — consistency fixes are bidirectional). *)
  val grade :
    t ->
    file:string ->
    line:int ->
    found:string ->
    suggested:string ->
    symmetric:bool ->
    verdict
end
