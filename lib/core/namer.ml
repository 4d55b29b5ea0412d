(** Namer — the end-to-end system (Figure 1).

    {v
      Big code ──► name-pattern mining ──┐
                                         ├──► violations ──► defect classifier ──► reports
      Small labeled data ────────────────┘
    v}

    [build] runs the full training pipeline on a corpus: parse and analyze
    every file, transform to AST+, extract name paths, mine confusing word
    pairs from the commit history, mine consistency and confusing-word name
    patterns, scan for violations, accumulate the multi-level aggregates,
    extract features, and train the defect classifier on a small balanced
    labeled sample (120 violations, as in §5.1).

    The two ablation switches of Tables 2 and 5 are configuration flags:
    [use_analysis] (the "A" of the tables — origin decoration from the
    §4.1 analyses) and [use_classifier] (the "C" — without it every
    violation is reported). *)

module Tree = Namer_tree.Tree
module Namepath = Namer_namepath.Namepath
module Pattern = Namer_pattern.Pattern
module Miner = Namer_mining.Miner
module Confusing_pairs = Namer_mining.Confusing_pairs
module Features = Namer_classifier.Features
module Corpus = Namer_corpus.Corpus
module Prng = Namer_util.Prng
module Telemetry = Namer_telemetry.Telemetry
module Pool = Namer_parallel.Pool
module Shard = Namer_parallel.Shard
module Accumulator = Namer_parallel.Accumulator
module Interner = Namer_util.Interner

type config = {
  use_analysis : bool;
  use_classifier : bool;
  miner : Miner.config;
  pair_min_count : int;  (** confusing pairs need this many commit sightings *)
  n_labeled : int;  (** size of the manually-labeled training set (120) *)
  label_noise : float;
      (** probability of a training label being flipped — models human
          labeling error/disagreement, which the oracle is otherwise free
          of (real inspectors of naming issues disagree; §5.1 notes the
          severity of quality issues "can be subjective") *)
  ordering_vocab : (string * string) list;
      (** canonical word orders seeding ordering patterns (extension; the
          mined patterns still need corpus support and satisfaction ratio) *)
  algo : Namer_ml.Pipeline.algo option;  (** [None] = cross-validated selection *)
  seed : int;
  jobs : int;
      (** worker domains for the sharded pipeline; [1] = fully sequential.
          Results are bit-identical for every value (deterministic shards,
          shard-order merges) — parallelism changes only wall-clock. *)
  cap_domains : bool;
      (** clamp [jobs] to the hardware ([Domain.recommended_domain_count]);
          oversubscribing domains beyond cores makes OCaml 5 slower
          (stop-the-world minor GCs) without changing any result.  Tests
          that need real domains on small machines switch it off. *)
  digest_batch : int;
      (** files per streaming digest batch: sources and ASTs live only
          while their batch is in flight, so peak frontend memory is
          O(batch × jobs) however large the corpus.  Results are
          bit-identical for every value — batches are contiguous corpus
          slices merged in order, so the global interning order is the
          sequential first-seen order regardless of batching. *)
}

let default_config =
  {
    use_analysis = true;
    use_classifier = true;
    miner = Miner.default_config;
    pair_min_count = 3;
    n_labeled = 120;
    label_noise = 0.1;
    ordering_vocab =
      [
        ("width", "height"); ("x", "y"); ("min", "max"); ("src", "dst");
        ("row", "column");
      ];
    algo = Some Namer_ml.Pipeline.Svm;
    seed = 7;
    jobs = 1;
    cap_domains = true;
    digest_batch = 1024;
  }

let self_mining_config ~n_files =
  {
    default_config with
    use_classifier = false;
    miner =
      {
        Miner.default_config with
        min_support = max 5 (n_files / 20);
        min_path_freq = max 3 (n_files / 50);
      };
  }

(** One scanned statement: digest plus everything feature extraction and
    reporting need. *)
type scanned_stmt = {
  sctx : Features.stmt_ctx;
  line : int;
  digest : Pattern.Stmt_paths.t;
}

(** One pattern violation — a *potential* naming issue. *)
type violation = {
  v_stmt : scanned_stmt;
  v_pattern : Pattern.t;
  v_info : Pattern.violation_info;
  mutable v_features : float array;
}

(** The suggested fix, rendered: replace [found] with [suggested]. *)
let describe_fix (v : violation) =
  Printf.sprintf "%s -> %s" v.v_info.Pattern.found v.v_info.Pattern.suggested

(** A file the pipeline dropped instead of crashing on: unparseable,
    resource-bombed, or poisoned by an injected fault.  Degradation is
    per-file and visible — skips ride the shard merges into {!t} and
    {!scan_result} and are reported, never silently swallowed. *)
type skipped = { sk_file : string; sk_reason : string }

type t = {
  cfg : config;
  lang : Corpus.lang;
  pairs : Confusing_pairs.t;
  store : Pattern.Store.t;
  violations : violation array;
  classifier : Namer_ml.Pipeline.t option;
  cv_reports : (Namer_ml.Pipeline.algo * Namer_ml.Pipeline.cv_report) list;
  training_set : (int, unit) Hashtbl.t;  (** violation indices used for training *)
  oracle : Corpus.Oracle.t;
  source_of : string -> string option;  (** file → source, for report listings *)
  (* corpus statistics (§5.2/§5.3 "Statistics on pattern mining") *)
  n_stmts : int;
  n_files : int;
  n_repos : int;
  n_files_violating : int;
  n_repos_violating : int;
  n_candidates : int;  (** patterns generated before pruning *)
  skipped : skipped list;
      (** files dropped by per-file failure isolation, in corpus order *)
}

(* ------------------------------------------------------------------ *)
(* Digesting a corpus                                                  *)
(* ------------------------------------------------------------------ *)

(** A file by reference: the streaming frontend's unit of input.  The
    source is produced by [fr_load] *inside* the digest worker and dropped
    as soon as the file's name paths are extracted — a corpus of file
    references costs a few words per file, not its bytes. *)
type file_ref = { fr_repo : string; fr_path : string; fr_load : unit -> string }

let ref_of_file (f : Corpus.file) : file_ref =
  { fr_repo = f.Corpus.repo; fr_path = f.Corpus.path;
    fr_load = (fun () -> f.Corpus.source) }

let ref_of_path ~repo ~path ~file : file_ref =
  { fr_repo = repo; fr_path = path; fr_load = (fun () -> Namer_util.Fs.read_file file) }

let refs_of_dir ~lang dir =
  Namer_util.Fs.walk ~ext:(Corpus.lang_ext lang) dir
  |> List.map (fun path -> ref_of_path ~repo:dir ~path ~file:path)

(* [source_lookup refs] — file → source over [refs], for report listings
   (one caller at a time).  Its path table is built on the first call, and
   it keeps the last file it read, since listings walk file-sorted reports.
   A file that fails to load, or that no ref names, has no source. *)
let source_lookup (refs : file_ref list) =
  let table =
    lazy
      (let tbl = Hashtbl.create 256 in
       List.iter (fun r -> Hashtbl.replace tbl r.fr_path r) refs;
       tbl)
  in
  let last = ref None in
  fun path ->
    match !last with
    | Some (p, src) when String.equal p path -> src
    | _ ->
        let src =
          match Hashtbl.find_opt (Lazy.force table) path with
          | Some r -> ( try Some (r.fr_load ()) with _ -> None)
          | None -> None
        in
        last := Some (path, src);
        src

(* Streaming-contract gauge: how many loaded sources are resident at once
   across all domains.  The bounded-memory test asserts the high-water
   mark stays O(batch), never O(corpus). *)
let in_flight = Atomic.make 0
let in_flight_peak = Atomic.make 0

let gauge_enter () =
  let v = Atomic.fetch_and_add in_flight 1 + 1 in
  let rec bump () =
    let p = Atomic.get in_flight_peak in
    if v > p && not (Atomic.compare_and_set in_flight_peak p v) then bump ()
  in
  bump ()

let gauge_exit () = ignore (Atomic.fetch_and_add in_flight (-1))

let reset_in_flight_peak () =
  Atomic.set in_flight 0;
  Atomic.set in_flight_peak 0

let in_flight_sources_peak () = Atomic.get in_flight_peak

(* [chunk n xs] splits [xs] into consecutive slices of [n] (last one may be
   shorter) — the streaming batch plan.  Contiguity is what makes batching
   invisible to interning: first-seen order over the concatenation of
   contiguous slices is first-seen order over the whole sequence. *)
let chunk n xs =
  let rec take k acc = function
    | rest when k = 0 -> (List.rev acc, rest)
    | [] -> (List.rev acc, [])
    | x :: rest -> take (k - 1) (x :: acc) rest
  in
  let rec go acc = function
    | [] -> List.rev acc
    | xs ->
        let batch, rest = take n [] xs in
        go (batch :: acc) rest
  in
  go [] xs

let skip_file ~path reason =
  Telemetry.count "scan.files_skipped";
  Telemetry.emit
    ~fields:
      [
        ("file", Namer_util.Json.String path);
        ("reason", Namer_util.Json.String reason);
      ]
    Telemetry.Warn "scan.file_skipped";
  ([], Some { sk_file = path; sk_reason = reason })

(* [hash_trees]: whether each statement's context carries [Tree.hash] of
   its tree, which only the classifier's features read; model scans pass
   [false] and leave it 0. *)
let digest_source ~digest ~hash_trees ~cfg ~lang ~repo ~path source :
    scanned_stmt list * skipped option =
  let skip reason = skip_file ~path reason in
  match Frontend.parse_file_res lang ~use_analysis:cfg.use_analysis source with
  | Error reason -> skip reason
  | Ok parsed -> (
      (* AST+ transformation (origin decoration), then name-path extraction —
         two per-file passes so each gets its own telemetry stage.  Both
         recurse over statement trees, so a nesting bomb that slipped past
         the parser can still blow the stack here: the same per-file
         isolation applies. *)
      let transform () =
        let trees =
          Telemetry.with_span "astplus" @@ fun () ->
          List.map
            (fun (s : Frontend.stmt) ->
              let origins = parsed.Frontend.origins ~cls:s.cls ~fn:s.fn in
              (s, Namer_namepath.Astplus.transform ~origins s.tree))
            parsed.Frontend.stmts
        in
        Telemetry.with_span "namepaths" @@ fun () ->
        List.map
          (fun ((s : Frontend.stmt), ast_plus) ->
            let digest = digest ast_plus in
            {
              sctx =
                {
                  Features.file = path;
                  repo;
                  file_id = -1;
                  repo_id = -1;
                  tree_hash = (if hash_trees then Tree.hash s.tree else 0);
                  n_paths = digest.Pattern.Stmt_paths.n_paths;
                };
              line = s.line;
              digest;
            })
          trees
      in
      match transform () with
      | stmts -> (stmts, None)
      | exception Out_of_memory -> raise Out_of_memory
      | exception e -> skip (Printexc.to_string e))

(** Load and digest one file reference.  The source exists only between
    [fr_load] and the return — the heart of the streaming contract; a read
    failure is per-file degradation like any parse failure. *)
let digest_file ?table ~cfg ~lang ~(file : file_ref) () :
    scanned_stmt list * skipped option =
  match file.fr_load () with
  | exception Out_of_memory -> raise Out_of_memory
  | exception e -> skip_file ~path:file.fr_path (Printexc.to_string e)
  | source ->
      gauge_enter ();
      Fun.protect ~finally:gauge_exit (fun () ->
          digest_source
            ~digest:(Pattern.Stmt_paths.of_tree ?table ~limit:cfg.miner.Miner.max_stmt_paths)
            ~hash_trees:true ~cfg ~lang ~repo:file.fr_repo ~path:file.fr_path source)

(* ------------------------------------------------------------------ *)
(* Building the system                                                 *)
(* ------------------------------------------------------------------ *)

(** Built-in confusing-word pairs, used when scanning a corpus that carries
    no commit history (e.g. a raw directory via the CLI).  These are the
    well-known confusions the paper lists as examples of mined pairs. *)
let builtin_pairs = function
  | Corpus.Python ->
      [
        ("True", "Equal"); ("Equals", "Equal"); ("xrange", "range");
        ("args", "kwargs"); ("N", "np"); ("name", "key"); ("value", "key");
        ("x", "y"); ("min", "max");
      ]
  | Corpus.Java ->
      [
        ("publick", "public"); ("Throwable", "Exception"); ("double", "int");
        ("i", "intent"); ("prog", "progress"); ("get", "print");
        ("name", "key"); ("min", "max");
      ]

module Pairs_acc = struct
  type t = Confusing_pairs.t

  let empty () = Confusing_pairs.create ()
  let merge = Confusing_pairs.merge
end

(* The builtin catalog as a table, each pair seeded at exactly the prune
   threshold — the no-history fallback shared by [mine_pairs] and partial
   finalization. *)
let builtin_table ~(cfg : config) ~lang =
  let pairs = Confusing_pairs.create () in
  List.iter
    (fun p -> Confusing_pairs.add_pair ~count:cfg.pair_min_count pairs p)
    (builtin_pairs lang);
  pairs

(* Unpruned commit-pair tallies: the mergeable shape partial models carry.
   One commit is independent of the next, so shards of the history are
   diffed on separate domains into per-shard pair sets; the pair merge
   sums commutative tallies, so any shard plan yields the same pairs. *)
let mine_commit_tallies ?pool ~shards ~lang ~commits () =
  Accumulator.sharded_reduce
    (module Pairs_acc)
    ?pool ~shards
    (fun commits ->
      let local = Confusing_pairs.create () in
      List.iter
        (fun (before_src, after_src) ->
          match
            (Frontend.whole_tree lang before_src, Frontend.whole_tree lang after_src)
          with
          | Some before, Some after -> Confusing_pairs.add_commit local ~before ~after
          | _ -> ())
        commits;
      local)
    commits

let mine_pairs ?pool ~shards ~cfg ~lang ~commits () =
  if commits = [] then builtin_table ~cfg ~lang
  else
    Confusing_pairs.prune
      (mine_commit_tallies ?pool ~shards ~lang ~commits ())
      ~min_count:cfg.pair_min_count

(* Draw a balanced labeled sample (with simulated labeling error) and train
   the classifier — the "small supervision" of §5.1.  Returns the
   classifier, its CV reports, and the violation indices consumed. *)
let train_classifier ~(cfg : config) ~prng ~(violations : violation array) ~grade_v =
  let training_set = Hashtbl.create 64 in
  if not cfg.use_classifier then (None, [], training_set)
  else begin
    let idx = Array.init (Array.length violations) (fun i -> i) in
    Prng.shuffle prng idx;
    let half = cfg.n_labeled / 2 in
    let pos = ref [] and neg = ref [] in
    Array.iter
      (fun i ->
        let is_issue =
          match grade_v violations.(i) with
          | Corpus.Oracle.True_issue _ -> true
          | _ -> false
        in
        if is_issue && List.length !pos < half then pos := i :: !pos
        else if (not is_issue) && List.length !neg < half then neg := i :: !neg)
      idx;
    let chosen = !pos @ !neg in
    List.iter (fun i -> Hashtbl.replace training_set i ()) chosen;
    let x = Array.of_list (List.map (fun i -> violations.(i).v_features) chosen) in
    let y =
      Array.of_list
        (List.map
           (fun i ->
             let label =
               match grade_v violations.(i) with
               | Corpus.Oracle.True_issue _ -> true
               | _ -> false
             in
             (* simulated labeling error *)
             if Prng.bool prng ~p:cfg.label_noise then not label else label)
           chosen)
    in
    if Array.length x < 10 then (None, [], training_set)
    else begin
      let algo, reports =
        match cfg.algo with
        | Some a -> (a, [ (a, Namer_ml.Pipeline.cross_validate ~prng ~algo:a x y) ])
        | None -> Namer_ml.Pipeline.select_model ~prng x y
      in
      (Some (Namer_ml.Pipeline.train ~algo ~prng x y), reports, training_set)
    end
  end

(* 1. digest every file: load → parse → analyze → AST+ → name paths.
   Files stream through in bounded batches of [cfg.digest_batch]: a batch
   is read, digested and dropped before the next one is touched, so at
   most O(batch) sources and ASTs are ever resident — never the corpus.
   Within a batch each shard (contiguous, repo-aligned) runs on its own
   domain; flattening the per-shard statement lists in shard order, batch
   after batch, reproduces the sequential statement order exactly, which
   everything downstream depends on.  With a pool, each shard interns
   name paths into its own local table — worker domains never touch the
   shared one — and the tables merge into the global id space in shard
   order afterwards.  Batches and shards are both contiguous slices of
   the corpus sequence merged in order, so the first-seen id assignment
   equals the sequential one for every [digest_batch] and [jobs].
   Shared by [build_core] and [Partial.of_refs]. *)
let digest_refs ?pool ~shards ~(cfg : config) ~lang (refs : file_ref list) :
    scanned_stmt list * skipped list =
  let n_files = List.length refs in
  let digest_shard ?table files =
    let skips_rev = ref [] in
    let stmts =
      List.concat_map
        (fun file ->
          let stmts, skip = digest_file ?table ~cfg ~lang ~file () in
          Option.iter (fun k -> skips_rev := k :: !skips_rev) skip;
          stmts)
        files
    in
    (stmts, List.rev !skips_rev)
  in
  let stmts_rev = ref [] and skips_rev = ref [] in
  List.iter
    (fun batch ->
      match pool with
      | None ->
          List.iter
            (fun file ->
              let stmts, skip = digest_file ~cfg ~lang ~file () in
              stmts_rev := List.rev_append stmts !stmts_rev;
              Option.iter (fun k -> skips_rev := k :: !skips_rev) skip)
            batch
      | Some _ ->
          let parts =
            Accumulator.sharded_map ?pool ~shards
              ~key:(fun r -> r.fr_repo)
              (fun files ->
                let table = Namepath.Interned.create_table () in
                let stmts, skips = digest_shard ~table files in
                (table, stmts, skips))
              batch
          in
          Telemetry.with_span "digest:remap" @@ fun () ->
          List.iter
            (fun (table, shard_stmts, shard_skips) ->
              let m = Namepath.Interned.remap_into_global table in
              List.iter (fun s -> Pattern.Stmt_paths.remap m s.digest) shard_stmts;
              stmts_rev := List.rev_append shard_stmts !stmts_rev;
              skips_rev := List.rev_append shard_skips !skips_rev)
            parts)
    (chunk (max 1 cfg.digest_batch) refs);
  let stmts = List.rev !stmts_rev and skipped = List.rev !skips_rev in
  if skipped <> [] then begin
    Telemetry.emit
      ~fields:
        [
          ("skipped", Namer_util.Json.Int (List.length skipped));
          ("total", Namer_util.Json.Int n_files);
        ]
      Telemetry.Warn "build.degraded"
  end;
  Telemetry.count ~by:(List.length stmts) "build.statements_digested";
  (stmts, skipped)

(* [runs_by_file stmts] splits a statement list into its runs of one
   file, in order. *)
let runs_by_file stmts =
  let close run acc = if run = [] then acc else List.rev run :: acc in
  let rec go run acc = function
    | [] -> List.rev (close run acc)
    | s :: rest -> (
        match run with
        | prev :: _ when prev.sctx.Features.file_id <> s.sctx.Features.file_id ->
            go [ s ] (close run acc) rest
        | _ -> go (s :: run) acc rest)
  in
  go [] [] stmts

(* One report per (file, statement line, offending name, suggestion,
   pattern type): subset-condition variants of one rule all fire on the
   same statement with the same fix, and the matcher kept the one with the
   largest condition — the most specific match — so features 14 and 15
   describe the strongest evidence.  The table only fixes the order of the
   sort's ties: its keys enter in first-seen order, as they always have. *)
let dedup_violations violations_in_order =
  let dedup = Hashtbl.create 1024 in
  List.iter
    (fun (v : violation) ->
      let key =
        ( v.v_stmt.sctx.Features.file,
          v.v_stmt.line,
          v.v_info.Pattern.offending_prefix,
          v.v_info.Pattern.suggested,
          match v.v_pattern.Pattern.kind with
          | Pattern.Consistency -> 0
          | Pattern.Confusing_word _ -> 1
          | Pattern.Ordering _ -> 2 )
      in
      Hashtbl.replace dedup key v)
    violations_in_order;
  Hashtbl.fold (fun _ v acc -> v :: acc) dedup []
  |> List.sort (fun a b ->
         compare
           (a.v_stmt.sctx.Features.file, a.v_stmt.line, a.v_info.Pattern.offending_prefix)
           (b.v_stmt.sctx.Features.file, b.v_stmt.line, b.v_info.Pattern.offending_prefix))
  |> Array.of_list

(* The scan's second pass: the statements of the [replayed] repositories,
   those that hold one of [violations], and their matches, into keyed
   aggregates that record only what those violations' features read — per
   shard, summed at read like the first pass's.  Nothing here is counted:
   the first pass saw these statements and matches. *)
let replay_keyed ?pool ~shards matcher ~replayed violations stmts =
  let keys =
    Features.Agg.keys
      (Array.to_list (Array.map (fun v -> (v.v_stmt.sctx, v.v_pattern.Pattern.id)) violations))
  in
  Accumulator.sharded_map ?pool ~shards
    ~key:(fun s -> s.sctx.Features.file)
    (fun shard ->
      let agg = Features.Agg.keyed keys in
      (* the statement being matched: one closure per shard, not one per
         statement *)
      let ctx = ref (List.hd shard).sctx in
      let on_match (p : Pattern.t) rel =
        Features.Agg.add_outcome agg !ctx ~pattern_id:p.Pattern.id rel
      in
      List.iter
        (fun s ->
          if replayed.(s.sctx.Features.repo_id) then begin
            ctx := s.sctx;
            Features.Agg.add_stmt agg s.sctx;
            ignore (Pattern.Matcher.iter_matches matcher on_match s.digest)
          end)
        shard;
      agg)
    stmts

(* Stages 2–6 over already-digested statements — everything downstream of
   the frontend, shared by [build_core] (fresh digests) and
   [Partial.finalize] (statements replayed from merged partials).
   [mk_pairs] supplies the confusing-pair table: commit mining for a
   direct build, summed tallies (or the builtin fallback) for a merge. *)
let train_digested ?pool (cfg : config) ~lang ~shards ~stmts ~skipped
    ~n_files ~n_repos ~mk_pairs ~oracle ~source_of : t =
  let prng = Prng.create cfg.seed in
  (* Dense per-build file/repo ids: the scan aggregates key on ints, not
     paths.  First-seen order over the statement list, so ids are shard-plan
     independent. *)
  let file_ids = Interner.create () and repo_ids = Interner.create () in
  List.iter
    (fun s ->
      s.sctx.Features.file_id <- Interner.intern file_ids s.sctx.Features.file;
      s.sctx.Features.repo_id <- Interner.intern repo_ids s.sctx.Features.repo)
    stmts;
  (* The corpus is fully interned: freeze the global table so the mining
     and scan stages — including their sharded passes — run against a
     read-only id space, and thaw on the way out (later builds or tests
     digest new statements against the same global table). *)
  Namepath.Interned.freeze ();
  Fun.protect ~finally:Namepath.Interned.thaw @@ fun () ->
  (* 2. confusing word pairs from history *)
  let pairs = Telemetry.with_span "pair-mining" @@ fun () -> mk_pairs () in
  Telemetry.count ~by:(Confusing_pairs.total_pairs pairs) "build.confusing_pairs";
  (* 3. mine all three pattern types *)
  let store, n_candidates, cond_counts =
    Telemetry.with_span "pattern-mining" @@ fun () ->
    let results =
      Miner.mine_kinds ?pool ~config:cfg.miner
        ~kinds:[ `Consistency; `Confusing; `Ordering cfg.ordering_vocab ]
        ~pairs
        (List.map (fun s -> s.digest) stmts)
    in
    let store = Pattern.Store.create () and cond_counts_rev = ref [] in
    List.iter
      (fun (r : Miner.result) ->
        Pattern.Store.iter
          (fun p ->
            let n = Pattern.Store.size store in
            if Pattern.Store.add store { p with id = -1 } = n then
              cond_counts_rev := r.Miner.cond_counts.(p.Pattern.id) :: !cond_counts_rev)
          r.Miner.store)
      results;
    ( store,
      List.fold_left (fun n (r : Miner.result) -> n + r.Miner.n_candidates) 0 results,
      Array.of_list (List.rev !cond_counts_rev) )
  in
  Telemetry.count ~by:n_candidates "build.pattern_candidates";
  Telemetry.count ~by:(Pattern.Store.size store) "build.patterns_kept";
  (* 4. scan: violations, then the aggregates their features read.  The
     store is read-only during the scan, so shards match concurrently.
     Shards split on file boundaries, so each file is matched and
     deduplicated whole in one task; each shard keeps its own aggregate,
     and [Features.Agg.sum] adds them up when features read them.  The
     anchor table ranks items by their line-5 counts from mining.  The
     first pass tallies every match corpus-wide only; once the violations
     are known, a second pass replays the statements of the repositories
     that hold one and tallies just the keys their features read. *)
  let agg, violations, violating_files, violating_repos =
    Telemetry.with_span "scan" @@ fun () ->
    let matcher =
      Pattern.Matcher.create ~rank:(fun p i -> cond_counts.(p.Pattern.id).(i)) store
    in
    let parts =
      Accumulator.sharded_map ?pool ~shards
        ~key:(fun s -> s.sctx.Features.file)
        (fun shard ->
          let agg = Features.Agg.dataset () in
          let on_match s (p : Pattern.t) rel =
            Features.Agg.add_outcome agg s.sctx ~pattern_id:p.id rel
          in
          let checks = ref 0 and raw = ref 0 in
          let viols =
            List.concat_map
              (fun file ->
                List.iter (fun s -> Features.Agg.add_stmt agg s.sctx) file;
                let r =
                  Pattern.Matcher.match_file matcher ~digest:(fun s -> s.digest)
                    ~line:(fun s -> s.line) ~on_match file
                in
                checks := !checks + r.checks;
                raw := !raw + r.raw;
                List.map
                  (fun (s, p, info) ->
                    { v_stmt = s; v_pattern = p; v_info = info; v_features = [||] })
                  r.violations)
              (runs_by_file shard)
          in
          Features.Agg.flush_counts agg;
          Telemetry.count ~by:!checks "build.scan_checks";
          Telemetry.count ~by:!raw "build.violations_raw";
          (agg, viols))
        stmts
    in
    let violations = dedup_violations (List.concat_map snd parts) in
    let violating_files = Array.make (Interner.size file_ids) false
    and violating_repos = Array.make (Interner.size repo_ids) false in
    Array.iter
      (fun v ->
        violating_files.(v.v_stmt.sctx.Features.file_id) <- true;
        violating_repos.(v.v_stmt.sctx.Features.repo_id) <- true)
      violations;
    let keyed = replay_keyed ?pool ~shards matcher ~replayed:violating_repos violations stmts in
    (Features.Agg.sum (List.map fst parts @ keyed), violations, violating_files, violating_repos)
  in
  let n_true flags = Array.fold_left (fun n b -> if b then n + 1 else n) 0 flags in
  Telemetry.count ~by:(Array.length violations) "build.violations_deduped";
  (* 5. features: every vector is independent (agg and pairs are read-only
     by now), so chunk the index space and extract concurrently — each task
     writes a disjoint slice of the array. *)
  Telemetry.with_span "features" (fun () ->
      let extract_range (lo, hi) =
        for i = lo to hi - 1 do
          let v = violations.(i) in
          v.v_features <- Features.extract agg pairs v.v_stmt.sctx v.v_pattern v.v_info
        done
      in
      let n = Array.length violations in
      match pool with
      | None -> extract_range (0, n)
      | Some pool ->
          let size = max 1 ((n + shards - 1) / shards) in
          List.init shards (fun i -> (i * size, min n ((i + 1) * size)))
          |> List.filter (fun (lo, hi) -> lo < hi)
          |> Pool.map_list pool extract_range
          |> ignore);
  (* 6. small supervision: balanced labeled sample, graded by the oracle
     (standing in for the paper's manual labeling). *)
  let oracle, classifier, cv_reports, training_set =
    Telemetry.with_span "classifier" @@ fun () ->
    let oracle = oracle () in
    let grade_v (v : violation) =
      Corpus.Oracle.grade oracle ~file:v.v_stmt.sctx.Features.file ~line:v.v_stmt.line
        ~found:v.v_info.Pattern.found ~suggested:v.v_info.Pattern.suggested
        ~symmetric:(v.v_pattern.Pattern.kind = Pattern.Consistency)
    in
    let classifier, cv_reports, training_set =
      train_classifier ~cfg ~prng ~violations ~grade_v
    in
    (oracle, classifier, cv_reports, training_set)
  in
  {
    cfg;
    lang;
    pairs;
    store;
    violations;
    classifier;
    cv_reports;
    training_set;
    oracle;
    source_of;
    n_stmts = List.length stmts;
    n_files;
    n_repos;
    n_files_violating = n_true violating_files;
    n_repos_violating = n_true violating_repos;
    n_candidates;
    skipped;
  }

(** [build_core cfg ~lang ~refs ~commits ~oracle ~source_of] — digest the
    refs, then run the downstream stages; see [build] for the contract.

    With [cfg.jobs > 1], the per-file stages (digest), the per-commit stage
    (pair mining), the corpus-wide counting passes inside mining, the scan
    and feature extraction all run sharded over a domain pool.  Every shard
    plan is deterministic and every merge happens in shard order over
    commutative accumulators, so a [jobs = N] build is bit-identical to a
    [jobs = 1] build — only wall-clock changes. *)
let build_core (cfg : config) ~lang ~(refs : file_ref list) ~commits
    ~oracle ~source_of : t =
  Pool.run ~cap_to_cores:cfg.cap_domains ~jobs:cfg.jobs @@ fun pool ->
  let shards =
    Shard.oversubscribe ~jobs:(match pool with Some p -> Pool.size p | None -> 1)
  in
  Telemetry.with_span "build" @@ fun () ->
  let stmts, skipped = digest_refs ?pool ~shards ~cfg ~lang refs in
  let repos = Hashtbl.create 64 in
  List.iter (fun r -> Hashtbl.replace repos r.fr_repo ()) refs;
  train_digested ?pool cfg ~lang ~shards ~stmts ~skipped
    ~n_files:(List.length refs) ~n_repos:(Hashtbl.length repos)
    ~mk_pairs:(fun () -> mine_pairs ?pool ~shards ~cfg ~lang ~commits ())
    ~oracle ~source_of

(** [build cfg corpus] — the in-memory entry point: digest a generated
    corpus whose sources are already resident.  Report listings and the
    oracle read straight from the corpus. *)
let build (cfg : config) (corpus : Corpus.t) : t =
  let refs = List.map ref_of_file corpus.Corpus.files in
  build_core cfg ~lang:corpus.Corpus.lang ~refs ~commits:corpus.Corpus.commits
    ~oracle:(fun () -> Corpus.Oracle.of_corpus corpus)
    ~source_of:(source_lookup refs)

(** [build_refs cfg ~lang refs] — the streaming entry point: digest files
    lazily through their [fr_load] thunks, never holding more than one
    batch of sources.  No commit history (builtin confusing pairs) and an
    empty oracle, exactly like training on unlabeled on-disk files; report
    listings re-read the file on demand. *)
let build_refs (cfg : config) ~lang (refs : file_ref list) : t =
  let empty =
    { Corpus.lang; files = []; injections = []; benigns = []; commits = [] }
  in
  build_core cfg ~lang ~refs ~commits:[]
    ~oracle:(fun () -> Corpus.Oracle.of_corpus empty)
    ~source_of:(source_lookup refs)

(** [retrain t ~seed] re-draws the labeled training sample and re-trains
    the classifier (mining and scanning are untouched).  Used by the bench
    to average evaluation rows over several supervision draws, the way the
    paper averages its cross-validation over 30 splits. *)
let retrain (t : t) ~seed : t =
  Telemetry.with_span "retrain" @@ fun () ->
  let prng = Prng.create seed in
  let grade_v (v : violation) =
    Corpus.Oracle.grade t.oracle ~file:v.v_stmt.sctx.Features.file ~line:v.v_stmt.line
      ~found:v.v_info.Pattern.found ~suggested:v.v_info.Pattern.suggested
      ~symmetric:(v.v_pattern.Pattern.kind = Pattern.Consistency)
  in
  let classifier, cv_reports, training_set =
    train_classifier ~cfg:t.cfg ~prng ~violations:t.violations ~grade_v
  in
  { t with classifier; cv_reports; training_set }

(* ------------------------------------------------------------------ *)
(* Inference and evaluation                                            *)
(* ------------------------------------------------------------------ *)

(** Classifier decision for one violation: [true] = report as a naming
    issue.  Without a classifier (the "w/o C" ablation) everything is
    reported. *)
let classify (t : t) (v : violation) =
  match t.classifier with
  | Some c -> Namer_ml.Pipeline.predict c v.v_features
  | None -> true

(** Oracle verdict for one violation (evaluation only — replaces the
    paper's manual inspection). *)
let grade (t : t) (v : violation) =
  Corpus.Oracle.grade t.oracle ~file:v.v_stmt.sctx.Features.file ~line:v.v_stmt.line
    ~found:v.v_info.Pattern.found ~suggested:v.v_info.Pattern.suggested
    ~symmetric:(v.v_pattern.Pattern.kind = Pattern.Consistency)

(** [sample_violations t ~n ~seed] draws [n] violations uniformly,
    excluding those used to train the classifier (§5.1: "excluding the
    samples used for training"). *)
let sample_violations ?(filter = fun (_ : violation) -> true) (t : t) ~n ~seed =
  let prng = Prng.create seed in
  let eligible =
    Array.to_list (Array.mapi (fun i v -> (i, v)) t.violations)
    |> List.filter (fun (i, v) -> (not (Hashtbl.mem t.training_set i)) && filter v)
    |> List.map snd
  in
  Prng.sample prng n eligible

(** Line [line] of [src], trimmed — the statement a report listing shows;
    placeholders when the source or the line is unavailable. *)
let statement_of ~src ~line =
  match src with
  | Some src -> (
      match List.nth_opt (String.split_on_char '\n' src) (line - 1) with
      | Some l -> String.trim l
      | None -> "<line out of range>")
  | None -> "<unknown file>"

(** The source line of a violation (for example listings). *)
let source_line (t : t) (v : violation) =
  statement_of ~src:(t.source_of v.v_stmt.sctx.Features.file) ~line:v.v_stmt.line

(** Outcome counts over a set of *reports* (classifier-accepted
    violations), graded by the oracle — one row of Table 2 / 5. *)
type outcome = {
  n_reports : int;
  semantic : int;
  quality : int;
  false_pos : int;
}

let precision (o : outcome) =
  if o.n_reports = 0 then 0.0
  else float_of_int (o.semantic + o.quality) /. float_of_int o.n_reports

let grade_reports (t : t) (reports : violation list) : outcome =
  List.fold_left
    (fun o v ->
      match grade t v with
      | Corpus.Oracle.True_issue Namer_corpus.Issue.Semantic_defect ->
          { o with semantic = o.semantic + 1 }
      | Corpus.Oracle.True_issue (Namer_corpus.Issue.Code_quality _) ->
          { o with quality = o.quality + 1 }
      | Corpus.Oracle.False_positive | Corpus.Oracle.Known_benign ->
          { o with false_pos = o.false_pos + 1 })
    { n_reports = List.length reports; semantic = 0; quality = 0; false_pos = 0 }
    reports

(** The paper's headline protocol (Tables 2 and 5): sample [n] violations,
    run the classifier, grade what it reports. *)
let evaluate ?(n = 300) ?(seed = 123) (t : t) : outcome =
  let sampled = sample_violations t ~n ~seed in
  let reports = List.filter (classify t) sampled in
  Telemetry.count ~by:(List.length sampled) "evaluate.violations_sampled";
  Telemetry.count ~by:(List.length reports) "evaluate.violations_reported";
  grade_reports t reports

(** Feature weights of the trained classifier in original feature space
    (Table 9).  Empty when the classifier is disabled. *)
let feature_weights (t : t) =
  match t.classifier with
  | Some c -> Namer_ml.Pipeline.effective_weights c
  | None -> [||]

(* ------------------------------------------------------------------ *)
(* Model snapshots: train once, scan many                              *)
(* ------------------------------------------------------------------ *)

module Snapshot = Namer_model.Snapshot
module W = Namer_model.Binio.W
module R = Namer_model.Binio.R

(** The trained artifact of a build, detached from the corpus it was mined
    on: everything a scan needs and nothing it re-derives.  The deployment
    shape of §7 — mine over Big Code once, serve scans from the snapshot. *)
type model = {
  m_lang : Corpus.lang;
  m_use_analysis : bool;
  m_max_stmt_paths : int;
  m_store : Pattern.Store.t;
  m_pairs : Confusing_pairs.t;
  m_classifier : Namer_ml.Pipeline.t option;
  m_hash : string;  (** checksum identity of the serialized form *)
  m_vocab : Pattern.vocab;
      (** read-only: scans digest against it, never against the global table *)
  m_matcher : Pattern.Matcher.t;  (** read-only: scans match through it *)
}

let model_magic = "NAMERMDL"
let model_version = 1

let kind_name = function
  | Pattern.Consistency -> "consistency"
  | Pattern.Confusing_word _ -> "confusing-word"
  | Pattern.Ordering _ -> "ordering"

let encode_model ~lang ~use_analysis ~max_stmt_paths ~(store : Pattern.Store.t) ~pairs
    ~classifier =
  let meta =
    let w = W.create () in
    W.u8 w (match lang with Corpus.Python -> 0 | Corpus.Java -> 1);
    W.bool w use_analysis;
    W.u32 w max_stmt_paths;
    W.contents w
  in
  let interner =
    (* whole-path ids are per-scan digest state (every scan re-derives them
       from its input), so only prefixes and ends are part of the model *)
    let _, prefixes, ends = Namepath.Interned.(contents global) in
    let w = W.create ~size:(1 lsl 16) () in
    W.u32 w (List.length prefixes);
    List.iter (W.str w) prefixes;
    W.u32 w (List.length ends);
    List.iter (W.str w) ends;
    W.contents w
  in
  let patterns =
    let w = W.create ~size:(1 lsl 16) () in
    W.u32 w (Pattern.Store.size store);
    Pattern.Store.iter
      (fun p ->
        (match p.Pattern.kind with
        | Pattern.Consistency -> W.u8 w 0
        | Pattern.Confusing_word { correct } ->
            W.u8 w 1;
            W.str w correct
        | Pattern.Ordering { first; second } ->
            W.u8 w 2;
            W.str w first;
            W.str w second);
        let paths ps =
          W.u32 w (List.length ps);
          List.iter (fun np -> W.str w (Namepath.to_string np)) ps
        in
        paths p.Pattern.condition;
        paths p.Pattern.deduction)
      store;
    W.contents w
  in
  let pairs_sec =
    let w = W.create () in
    let bs = Confusing_pairs.bindings pairs in
    W.u32 w (List.length bs);
    List.iter
      (fun ((w1, w2), c) ->
        W.str w w1;
        W.str w w2;
        W.i64 w c)
      bs;
    W.contents w
  in
  let classifier_sec =
    let w = W.create () in
    (match classifier with
    | None -> W.bool w false
    | Some c ->
        W.bool w true;
        let (r : Namer_ml.Pipeline.repr) = Namer_ml.Pipeline.to_repr c in
        W.u8 w
          (match r.r_algo with
          | Namer_ml.Pipeline.Svm -> 0
          | Namer_ml.Pipeline.Logreg -> 1
          | Namer_ml.Pipeline.Lda -> 2);
        W.floats w r.r_mu;
        W.floats w r.r_sigma;
        W.matrix w r.r_components;
        W.floats w r.r_mean;
        W.floats w r.r_explained;
        W.floats w r.r_weights;
        W.f64 w r.r_bias);
    W.contents w
  in
  Snapshot.encode ~magic:model_magic ~version:model_version
    [
      ("meta", meta); ("interner", interner); ("patterns", patterns);
      ("pairs", pairs_sec); ("classifier", classifier_sec);
    ]

let encode_of (t : t) =
  encode_model ~lang:t.lang ~use_analysis:t.cfg.use_analysis
    ~max_stmt_paths:t.cfg.miner.Miner.max_stmt_paths ~store:t.store ~pairs:t.pairs
    ~classifier:t.classifier

let model_of_build (t : t) ~hash : model =
  {
    m_lang = t.lang;
    m_use_analysis = t.cfg.use_analysis;
    m_max_stmt_paths = t.cfg.miner.Miner.max_stmt_paths;
    m_store = t.store;
    m_pairs = t.pairs;
    m_classifier = t.classifier;
    m_hash = hash;
    m_vocab = Pattern.Store.vocab t.store;
    m_matcher = Pattern.Matcher.of_store t.store;
  }

let model_of (t : t) : model =
  let _bytes, hash = encode_of t in
  model_of_build t ~hash

let save_model (t : t) ~path : model =
  Telemetry.with_span "model:save" @@ fun () ->
  let bytes, hash = encode_of t in
  Snapshot.write ~path bytes;
  Telemetry.count ~by:(String.length bytes) "model.bytes_written";
  model_of_build t ~hash

let load_model ~path : model =
  Telemetry.with_span "model:load" @@ fun () ->
  let desc = "model snapshot" in
  let bytes = Snapshot.read_file ~desc ~path in
  let sections, hash =
    Snapshot.decode ~magic:model_magic ~desc ~version:model_version ~path bytes
  in
  let desc = Printf.sprintf "%s %s" desc path in
  (* per-section decoding: a malformed payload names the failing section *)
  let read name f = Snapshot.read_section ~desc sections name f in
  let fail fmt = Printf.ksprintf (fun s -> raise (Snapshot.Error s)) fmt in
  let read_strings r =
    let n = R.u32 r in
    let acc = ref [] in
    for _ = 1 to n do
      acc := R.str r :: !acc
    done;
    List.rev !acc
  in
  let lang, use_analysis, max_stmt_paths =
    read "meta" (fun r ->
        let lang =
          match R.u8 r with
          | 0 -> Corpus.Python
          | 1 -> Corpus.Java
          | k -> fail "%s: unknown language tag %d" desc k
        in
        let use_analysis = R.bool r in
        let max_stmt_paths = R.u32 r in
        (lang, use_analysis, max_stmt_paths))
  in
  let prefixes, ends =
    read "interner" (fun r ->
        let prefixes = read_strings r in
        let ends = read_strings r in
        (prefixes, ends))
  in
  if Namepath.Interned.is_frozen () then
    fail "cannot load %s: the name-path interner is frozen (a build is in flight)"
      desc;
  Namepath.Interned.preload_global ~prefixes ~ends;
  let store =
    read "patterns" (fun r ->
        let n = R.u32 r in
        let store = Pattern.Store.create () in
        for _ = 1 to n do
          let kind =
            match R.u8 r with
            | 0 -> Pattern.Consistency
            | 1 ->
                let correct = R.str r in
                Pattern.Confusing_word { correct }
            | 2 ->
                let first = R.str r in
                let second = R.str r in
                Pattern.Ordering { first; second }
            | k -> fail "%s: unknown pattern kind tag %d" desc k
          in
          let condition = List.map Namepath.of_string (read_strings r) in
          let deduction = List.map Namepath.of_string (read_strings r) in
          (* saved stores are already canonical-deduplicated; nodedup
             insertion preserves the training-time pattern ids *)
          ignore
            (Pattern.Store.add_nodedup store (Pattern.make ~kind ~condition ~deduction))
        done;
        store)
  in
  let pairs =
    read "pairs" (fun r ->
        let n = R.u32 r in
        let pairs = Confusing_pairs.create () in
        for _ = 1 to n do
          let w1 = R.str r in
          let w2 = R.str r in
          let c = R.i64 r in
          Confusing_pairs.add_pair ~count:c pairs (w1, w2)
        done;
        pairs)
  in
  let classifier =
    read "classifier" (fun r ->
        if not (R.bool r) then None
        else begin
          let r_algo =
            match R.u8 r with
            | 0 -> Namer_ml.Pipeline.Svm
            | 1 -> Namer_ml.Pipeline.Logreg
            | 2 -> Namer_ml.Pipeline.Lda
            | k -> fail "%s: unknown classifier algorithm tag %d" desc k
          in
          let r_mu = R.floats r in
          let r_sigma = R.floats r in
          let r_components = R.matrix r in
          let r_mean = R.floats r in
          let r_explained = R.floats r in
          let r_weights = R.floats r in
          let r_bias = R.f64 r in
          Some
            (Namer_ml.Pipeline.of_repr
               {
                 Namer_ml.Pipeline.r_algo; r_mu; r_sigma; r_components; r_mean;
                 r_explained; r_weights; r_bias;
               })
        end)
  in
  Telemetry.count "model.loads";
  {
    m_lang = lang;
    m_use_analysis = use_analysis;
    m_max_stmt_paths = max_stmt_paths;
    m_store = store;
    m_pairs = pairs;
    m_classifier = classifier;
    m_hash = hash;
    m_vocab = Pattern.Store.vocab store;
    m_matcher = Pattern.Matcher.of_store store;
  }

(* ------------------------------------------------------------------ *)
(* Partial models: incremental, mergeable training                     *)
(* ------------------------------------------------------------------ *)

module Partial = struct
  module P = Namer_model.Partial_model

  type nonrec t = P.t

  let empty = P.empty
  let is_empty = P.is_empty
  let n_files = P.n_files
  let n_stmts = P.n_stmts
  let n_repos = P.n_repos
  let merge = P.merge
  let merge_all = P.merge_all
  let lang_tag = function Corpus.Python -> "python" | Corpus.Java -> "java"

  let lang_of (p : P.t) =
    match p.P.pm_lang with
    | "python" -> Corpus.Python
    | "java" -> Corpus.Java
    | tag ->
        raise
          (Snapshot.Error (Printf.sprintf "partial model: unknown language tag %S" tag))

  (** The digest-shaping settings baked into [p], applied over [cfg] —
      merge compatibility requires digesting an added slice with them. *)
  let align_config (cfg : config) (p : P.t) =
    {
      cfg with
      use_analysis = p.P.pm_use_analysis;
      miner = { cfg.miner with Miner.max_stmt_paths = p.P.pm_max_stmt_paths };
    }

  (* Package one digested slice as a partial: files in corpus order,
     statements as vocab-index arrays, the vocabulary in first-seen order —
     the order a sequential digest first interned each distinct whole path,
     which [finalize] replays to reproduce the id assignment. *)
  let export ~(cfg : config) ~lang ~(refs : file_ref list) ~stmts ~skipped
      ~pair_tallies ~n_commits : P.t =
    let files = Array.of_list (List.map (fun r -> (r.fr_repo, r.fr_path)) refs) in
    let file_idx = Hashtbl.create (max 16 (Array.length files)) in
    Array.iteri
      (fun i (_, path) ->
        if not (Hashtbl.mem file_idx path) then Hashtbl.add file_idx path i)
      files;
    let idx_of_file path =
      match Hashtbl.find_opt file_idx path with
      | Some i -> i
      | None -> invalid_arg ("Partial.export: statement from unknown file " ^ path)
    in
    let vocab_idx : (int, int) Hashtbl.t = Hashtbl.create 4096 in
    let vocab_rev = ref [] and n_vocab = ref 0 in
    let idx_of (it : Namepath.Interned.t) =
      match Hashtbl.find_opt vocab_idx it.Namepath.Interned.pid with
      | Some i -> i
      | None ->
          let i = !n_vocab in
          Hashtbl.add vocab_idx it.Namepath.Interned.pid i;
          vocab_rev := Namepath.to_string it.Namepath.Interned.np :: !vocab_rev;
          incr n_vocab;
          i
    in
    let pstmts =
      List.map
        (fun (s : scanned_stmt) ->
          let ipaths = s.digest.Pattern.Stmt_paths.ipaths in
          let paths = Array.make (Array.length ipaths) 0 in
          (* left-to-right walk: vocab indices are assigned first-seen *)
          Array.iteri (fun i it -> paths.(i) <- idx_of it) ipaths;
          {
            P.ps_file = idx_of_file s.sctx.Features.file;
            ps_line = s.line;
            ps_tree_hash = s.sctx.Features.tree_hash;
            ps_paths = paths;
          })
        stmts
    in
    {
      P.pm_lang = lang_tag lang;
      pm_use_analysis = cfg.use_analysis;
      pm_max_stmt_paths = cfg.miner.Miner.max_stmt_paths;
      pm_vocab = Array.of_list (List.rev !vocab_rev);
      pm_files = files;
      pm_stmts = Array.of_list pstmts;
      pm_skipped =
        Array.of_list (List.map (fun k -> (idx_of_file k.sk_file, k.sk_reason)) skipped);
      pm_pairs = pair_tallies;
      pm_n_commits = n_commits;
    }

  (** [of_refs cfg ~lang refs] digests one corpus slice into a partial —
      the frontend of [build_refs] with the downstream stages deferred to
      {!finalize}.  Commit histories are tallied unpruned so tallies sum
      under {!merge}. *)
  let of_refs ?(commits = []) (cfg : config) ~lang (refs : file_ref list) : P.t =
    Pool.run ~cap_to_cores:cfg.cap_domains ~jobs:cfg.jobs @@ fun pool ->
    let shards =
      Shard.oversubscribe ~jobs:(match pool with Some pl -> Pool.size pl | None -> 1)
    in
    Telemetry.with_span "partial:train" @@ fun () ->
    let stmts, skipped = digest_refs ?pool ~shards ~cfg ~lang refs in
    let pair_tallies, n_commits =
      if commits = [] then ([], 0)
      else
        ( Confusing_pairs.bindings (mine_commit_tallies ?pool ~shards ~lang ~commits ()),
          List.length commits )
    in
    export ~cfg ~lang ~refs ~stmts ~skipped ~pair_tallies ~n_commits

  let of_corpus (cfg : config) (corpus : Corpus.t) : P.t =
    of_refs ~commits:corpus.Corpus.commits cfg ~lang:corpus.Corpus.lang
      (List.map ref_of_file corpus.Corpus.files)

  (* The finalize-time pair table: prune the summed tallies exactly as a
     direct build prunes its mined ones; a history-less partial falls back
     to the builtin catalog, like a history-less build. *)
  let pairs_of (cfg : config) ~lang (p : P.t) =
    if p.P.pm_n_commits = 0 then builtin_table ~cfg ~lang
    else begin
      let t = Confusing_pairs.create () in
      List.iter (fun (pr, c) -> Confusing_pairs.add_pair ~count:c t pr) p.P.pm_pairs;
      Confusing_pairs.prune t ~min_count:cfg.pair_min_count
    end

  (** [finalize cfg p] runs stages 2–6 over the partial's replayed
      statements, producing the same build a direct [train] of the
      concatenated slices would: vocabulary replay reproduces the
      sequential id assignment, statements rebuild in corpus order, and
      summed pair tallies prune to the mined table.  [oracle] (default
      empty) grades the labeled sample when the slices came from a
      generated corpus. *)
  let finalize ?oracle (cfg : config) (p : P.t) =
    let lang = lang_of p in
    let cfg = align_config cfg p in
    if Namepath.Interned.is_frozen () then
      raise
        (Snapshot.Error
           "cannot finalize a partial model: the name-path interner is frozen (a \
            build is in flight)");
    Pool.run ~cap_to_cores:cfg.cap_domains ~jobs:cfg.jobs @@ fun pool ->
    let shards =
      Shard.oversubscribe ~jobs:(match pool with Some pl -> Pool.size pl | None -> 1)
    in
    Telemetry.with_span "build" @@ fun () ->
    (* Replay the vocabulary in first-seen order: [of_path] interns each
       path's prefix / whole / end / symbolic texts in the same sequence a
       sequential digest of the original statements did, so the id
       assignment — and everything downstream keyed on it — matches. *)
    let interned =
      Telemetry.with_span "partial:replay" @@ fun () ->
      Array.map
        (fun text ->
          match Namepath.Interned.of_path (Namepath.of_string text) with
          | it -> it
          | exception Invalid_argument msg ->
              raise
                (Snapshot.Error
                   (Printf.sprintf
                      "partial model: its %S section holds a malformed name path \
                       %S: %s"
                      "vocab" text msg)))
        p.P.pm_vocab
    in
    let stmts =
      Array.to_list
        (Array.map
           (fun (s : P.pstmt) ->
             let repo, file = p.P.pm_files.(s.P.ps_file) in
             let digest =
               Pattern.Stmt_paths.of_interned
                 (Array.to_list (Array.map (fun i -> interned.(i)) s.P.ps_paths))
             in
             {
               sctx =
                 {
                   Features.file;
                   repo;
                   file_id = -1;
                   repo_id = -1;
                   tree_hash = s.P.ps_tree_hash;
                   n_paths = digest.Pattern.Stmt_paths.n_paths;
                 };
               line = s.P.ps_line;
               digest;
             })
           p.P.pm_stmts)
    in
    let skipped =
      Array.to_list
        (Array.map
           (fun (i, reason) -> { sk_file = snd p.P.pm_files.(i); sk_reason = reason })
           p.P.pm_skipped)
    in
    let repos = Hashtbl.create 64 in
    Array.iter (fun (repo, _) -> Hashtbl.replace repos repo ()) p.P.pm_files;
    let oracle =
      match oracle with
      | Some o -> o
      | None ->
          fun () ->
            Corpus.Oracle.of_corpus
              { Corpus.lang; files = []; injections = []; benigns = []; commits = [] }
    in
    train_digested ?pool cfg ~lang ~shards ~stmts ~skipped
      ~n_files:(Array.length p.P.pm_files) ~n_repos:(Hashtbl.length repos)
      ~mk_pairs:(fun () -> pairs_of cfg ~lang p)
      ~oracle
      ~source_of:
        (source_lookup
           (Array.to_list
              (Array.map (fun (repo, path) -> ref_of_path ~repo ~path ~file:path) p.P.pm_files)))

  let save (p : P.t) ~path =
    Telemetry.with_span "partial:save" @@ fun () ->
    let hash = P.save p ~path in
    Telemetry.count "partial.saves";
    hash

  let load ~path =
    Telemetry.with_span "partial:load" @@ fun () ->
    let p, hash = P.load ~path in
    Telemetry.count "partial.loads";
    (p, hash)
end

(* ------------------------------------------------------------------ *)
(* Scanning against a model, with an incremental cache                 *)
(* ------------------------------------------------------------------ *)

(** One scan report: a violation rendered down to strings — the stable,
    cacheable shape (no pattern ids, no interned ids). *)
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
      (** files dropped by per-file failure isolation, in scan order *)
}

(* ------------------------------------------------------------------ *)
(* Rendering reports: the one text and JSON form of every scan output  *)
(* ------------------------------------------------------------------ *)

module J = Namer_util.Json

let report_of_violation (v : violation) : report =
  {
    r_file = v.v_stmt.sctx.Features.file;
    r_line = v.v_stmt.line;
    r_prefix = v.v_info.Pattern.offending_prefix;
    r_found = v.v_info.Pattern.found;
    r_suggested = v.v_info.Pattern.suggested;
    r_kind = kind_name v.v_pattern.Pattern.kind;
  }

let report_json ~statement (r : report) =
  J.Obj
    [
      ("file", J.String r.r_file);
      ("line", J.Int r.r_line);
      ("statement", J.String statement);
      ("found", J.String r.r_found);
      ("suggested", J.String r.r_suggested);
      ("pattern", J.String r.r_kind);
    ]

let report_text ~statement (r : report) =
  Printf.sprintf "%s:%d: %s\n    suggested fix: %s -> %s\n" r.r_file r.r_line statement
    r.r_found r.r_suggested

let statement_lookup refs =
  let source_of = source_lookup refs in
  fun (r : report) -> statement_of ~src:(source_of r.r_file) ~line:r.r_line

let skipped_json (skipped : skipped list) =
  J.List
    (List.map
       (fun s -> J.Obj [ ("file", J.String s.sk_file); ("reason", J.String s.sk_reason) ])
       skipped)

let reports_json ~statement ~max_reports reports =
  J.List
    (Array.to_list reports
    |> List.filteri (fun i _ -> i < max_reports)
    |> List.map (fun r -> report_json ~statement:(statement r) r))

let scan_json_fields (m : model) ~files ~statement ~max_reports (res : scan_result) =
  [
    ("files", J.Int files);
    ("model", J.String m.m_hash);
    ("patterns", J.Int (Pattern.Store.size m.m_store));
    ("violations", J.Int (Array.length res.sr_reports));
    ("cache_hits", J.Int res.sr_cache_hits);
    ("cache_misses", J.Int res.sr_cache_misses);
    ("files_skipped", J.Int (List.length res.sr_skipped));
    ("skipped", skipped_json res.sr_skipped);
    ("reports", reports_json ~statement ~max_reports res.sr_reports);
  ]

let config_of_model (m : model) ~jobs ~cap_domains =
  {
    default_config with
    use_analysis = m.m_use_analysis;
    use_classifier = false;
    jobs;
    cap_domains;
    miner = { Miner.default_config with Miner.max_stmt_paths = m.m_max_stmt_paths };
  }

(* Match one digested file against the model and render its deduplicated,
   sorted reports — the per-file unit of work the cache persists — with
   the number of checks run.  Same matcher and dedup rule as [build]: one
   report per (line, offending name, suggestion, pattern type), keeping
   the most specific condition. *)
let match_stmts (m : model) stmts : Scan_cache.entry list * int =
  let r =
    Pattern.Matcher.match_file m.m_matcher ~digest:(fun s -> s.digest)
      ~line:(fun s -> s.line) ~on_match:(fun _ _ _ -> ()) stmts
  in
  ( List.map
      (fun (s, (p : Pattern.t), (info : Pattern.violation_info)) ->
        {
          Scan_cache.e_line = s.line;
          e_prefix = info.Pattern.offending_prefix;
          e_found = info.Pattern.found;
          e_suggested = info.Pattern.suggested;
          e_kind = kind_name p.kind;
        })
      r.violations
    |> List.sort compare,
    r.checks )

(* A model scan's digest of one file: its statements against the model's
   scan vocabulary. *)
let digest_with_model (m : model) ~cfg ~repo ~path source =
  digest_source
    ~digest:(Pattern.Stmt_paths.of_vocab m.m_vocab ~limit:m.m_max_stmt_paths)
    ~hash_trees:false ~cfg ~lang:m.m_lang ~repo ~path source

let digest_for_model (m : model) (f : Corpus.file) =
  match
    digest_with_model m ~cfg:(config_of_model m ~jobs:1 ~cap_domains:true)
      ~repo:f.Corpus.repo ~path:f.Corpus.path f.Corpus.source
  with
  | stmts, None -> Some stmts
  | _, Some _ -> None

(** [scan_refs m refs] reports the violations of [refs] against a trained
    model: digest (parse → analyze → AST+ → name paths) only, no mining, no
    training — the paper's "w/o C" reporting shape, like the CLI's
    self-mining scan.  Each file is one unit of work on a worker domain:
    its source is loaded, cache-probed, digested against the model's
    read-only vocabulary ({!Pattern.Store.vocab}), matched and dropped, so
    at most one source per domain is resident and no interning table is
    read or written.  With [cache_dir], per-file reports are persisted
    keyed by (model hash, content digest): files whose entry is present
    skip digesting entirely and replay byte-identically, at any [jobs].
    Reports are sorted on (file, line, prefix, suggested, found, kind) — a
    total order, so the output is deterministic however it was
    produced. *)
let scan_refs ?(jobs = 1) ?(cap_domains = true) ?pool ?cache_dir (m : model)
    (refs : file_ref list) : scan_result =
  let cfg = config_of_model m ~jobs ~cap_domains in
  Telemetry.with_span "scan:model" @@ fun () ->
  (* a caller-owned pool (the serve daemon's, shared across requests)
     short-circuits the per-call pool lifecycle; otherwise one pool lives
     for the duration of this scan, as before *)
  let with_pool f =
    match pool with
    | Some _ -> f pool
    | None -> Pool.run ~cap_to_cores:cfg.cap_domains ~jobs:cfg.jobs f
  in
  with_pool @@ fun pool ->
  (* files are independent of each other, so small shards only balance the
     domains better *)
  let shards =
    max
      (Shard.oversubscribe ~jobs:(match pool with Some p -> Pool.size p | None -> 1))
      (List.length refs / 64)
  in
  let scan_source checks (r : file_ref) source =
    let stmts, skip = digest_with_model m ~cfg ~repo:r.fr_repo ~path:r.fr_path source in
    let entries, n = Telemetry.with_span "scan" @@ fun () -> match_stmts m stmts in
    checks := !checks + n;
    (entries, skip)
  in
  (* one file: load it, probe the cache on its content digest, digest and
     match on a miss, and store the reports of a cleanly scanned file — the
     source lives only inside this call (a store is one whole-record append
     and entries are content-addressed, so racing stores agree).  A skipped
     file is never cached: caching its (empty) report list would make later
     warm scans replay it as cleanly scanned, hiding the degradation; it is
     re-attempted on every scan instead. *)
  let process checks (r : file_ref) =
    match r.fr_load () with
    | exception Out_of_memory -> raise Out_of_memory
    | exception e ->
        let _, skip = skip_file ~path:r.fr_path (Printexc.to_string e) in
        (r.fr_path, [], skip, false)
    | source -> (
        gauge_enter ();
        Fun.protect ~finally:gauge_exit @@ fun () ->
        match cache_dir with
        | None ->
            let entries, skip = scan_source checks r source in
            (r.fr_path, entries, skip, false)
        | Some dir -> (
            let d = Scan_cache.src_digest source in
            match Scan_cache.find ~dir ~model_hash:m.m_hash ~src_digest:d with
            | Some entries -> (r.fr_path, entries, None, true)
            | None ->
                let entries, skip = scan_source checks r source in
                if skip = None then
                  Scan_cache.store ~dir ~model_hash:m.m_hash ~src_digest:d entries;
                (r.fr_path, entries, skip, false)))
  in
  let rows =
    Accumulator.sharded_concat_map ?pool ~shards
      (fun files ->
        let checks = ref 0 in
        let rows = List.map (process checks) files in
        Telemetry.count ~by:!checks "scan.match_checks";
        rows)
      refs
  in
  let n_hits, n_misses =
    match cache_dir with
    | None -> (0, 0)
    | Some _ ->
        let hits = List.length (List.filter (fun (_, _, _, hit) -> hit) rows) in
        let misses = List.length rows - hits in
        Telemetry.count ~by:hits "scan_cache.hits";
        Telemetry.count ~by:misses "scan_cache.misses";
        (hits, misses)
  in
  let skipped = List.filter_map (fun (_, _, skip, _) -> skip) rows in
  if skipped <> [] then begin
    Telemetry.emit
      ~fields:
        [
          ("skipped", Namer_util.Json.Int (List.length skipped));
          ("total", Namer_util.Json.Int (List.length refs));
        ]
      Telemetry.Warn "scan.degraded"
  end;
  let reports =
    List.concat_map
      (fun (path, entries, _, _) ->
        List.map
          (fun (e : Scan_cache.entry) ->
            {
              r_file = path;
              r_line = e.Scan_cache.e_line;
              r_prefix = e.Scan_cache.e_prefix;
              r_found = e.Scan_cache.e_found;
              r_suggested = e.Scan_cache.e_suggested;
              r_kind = e.Scan_cache.e_kind;
            })
          entries)
      rows
    |> List.sort (fun a b ->
           compare
             (a.r_file, a.r_line, a.r_prefix, a.r_suggested, a.r_found, a.r_kind)
             (b.r_file, b.r_line, b.r_prefix, b.r_suggested, b.r_found, b.r_kind))
    |> Array.of_list
  in
  Telemetry.count ~by:(Array.length reports) "scan_model.reports";
  { sr_reports = reports; sr_cache_hits = n_hits; sr_cache_misses = n_misses;
    sr_skipped = skipped }

(** [scan_with_model m files] — {!scan_refs} over already-loaded sources
    (generated corpora, the serve daemon's request bodies, tests). *)
let scan_with_model ?jobs ?cap_domains ?pool ?cache_dir (m : model)
    (files : Corpus.file list) : scan_result =
  scan_refs ?jobs ?cap_domains ?pool ?cache_dir m (List.map ref_of_file files)
