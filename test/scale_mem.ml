(* Bounded-memory property checks for the streaming frontend, each mode
   run as its own process so the top-heap watermark starts clean (it is
   monotonic per process — a prior pass's allocations would mask growth).

   [scan N] scans a generated N-file corpus from disk, records the
   watermark, then scans 2N files: because the scan streams sources
   through the digest in bounded batches and retains only reports, the
   watermark after the doubled pass must stay within a noise margin
   (1.35x) of the first.  A regression that holds sources (or digests)
   across the whole corpus shows up as a near-2x ratio.

   [train N JOBS] trains on N then 2N files the same way, on JOBS domains
   (default 1; more than the cores is allowed).  Training retains every
   file's digest for mining, so its watermark may grow at most linearly
   (2.3x); more means the build frontend retains more than the digests.
   The 2N-file watermark must also stay under a per-file ceiling, set 10%
   above the value measured at 2N = 1000 (Python) under [dune build
   @scale-mem]: 10.6 KB per file at jobs 1, and at jobs 2, whose heap
   varies with the schedule, the highest of four runs, 18.0 KB.  So a
   fatter retained statement, or transient mining garbage that raises the
   top heap, fails even when it grows both passes alike.  The heap's growth differs between compilers,
   so the ceilings hold for the OCaml minor version they were measured
   with; any other prints a notice and checks the ratio only.

   Usage: scale_mem.exe (scan N | train N [JOBS]) *)

module Corpus = Namer_corpus.Corpus
module Namer = Namer_core.Namer

let gen_refs tmp ~n_files =
  let refs_rev = ref [] and last_dir = ref "" in
  Corpus.write_scale ~lang:Corpus.Python ~seed:42 ~files_per_repo:50 ~n_files
    (fun ~repo ~path ~source ->
      let full = Filename.concat tmp path in
      let dir = Filename.dirname full in
      if dir <> !last_dir then begin
        Namer_util.Fs.mkdir_p dir;
        last_dir := dir
      end;
      let oc = open_out_bin full in
      output_string oc source;
      close_out oc;
      refs_rev := Namer.ref_of_path ~repo ~path ~file:full :: !refs_rev);
  List.rev !refs_rev

let top_heap_mb () =
  float_of_int (Gc.quick_stat ()).Gc.top_heap_words
  *. float_of_int (Sys.word_size / 8)
  /. 1e6

let fail fmt = Printf.ksprintf (fun s -> prerr_endline ("FAIL: " ^ s); exit 1) fmt

let scan ~n ~half refs =
  let t =
    Namer.build
      { Namer.default_config with Namer.use_classifier = false }
      (Corpus.generate
         { (Corpus.default_config Corpus.Python) with Corpus.n_repos = 10 })
  in
  let m = Namer.model_of t in
  let sr_half = Namer.scan_refs m half in
  let heap_half = top_heap_mb () in
  Namer.reset_in_flight_peak ();
  let sr_full = Namer.scan_refs m refs in
  let heap_full = top_heap_mb () in
  let in_flight = Namer.in_flight_sources_peak () in
  let ratio = heap_full /. Float.max 1.0 heap_half in
  Printf.printf
    "scale_mem scan: %d -> %d files, top-heap %.1f MB -> %.1f MB (%.2fx), %d source(s) \
     in flight, %d -> %d reports\n"
    n (2 * n) heap_half heap_full ratio in_flight
    (Array.length sr_half.Namer.sr_reports)
    (Array.length sr_full.Namer.sr_reports);
  if Array.length sr_full.Namer.sr_reports < Array.length sr_half.Namer.sr_reports
  then fail "doubled corpus produced fewer reports — the prefix property broke";
  if in_flight > 1 then
    fail "%d sources in flight during a sequential scan (expected 1)" in_flight;
  if ratio > 1.35 then
    fail
      "top-heap grew %.2fx across a 2x corpus doubling (gate: <= 1.35x) — the scan \
       is no longer streaming"
      ratio

(* KB (1,000 bytes) of top heap per trained file, the 2N-file pass, on
   OCaml [ceiling_ocaml], by jobs *)
let train_kb_per_file = function 1 -> 11.7 | 2 -> 19.8 | jobs -> fail "no ceiling for jobs %d" jobs
let ceiling_ocaml = "5.1"

(* each build is configured as CLI training of that many files *)
let train ~jobs ~n ~half refs =
  let ceiling = train_kb_per_file jobs in
  let build n refs =
    let cfg = { (Namer.self_mining_config ~n_files:n) with Namer.jobs; cap_domains = false } in
    let t = Namer.build_refs cfg ~lang:Corpus.Python refs in
    Namer_pattern.Pattern.Store.size t.Namer.store
  in
  let p_half = build n half in
  let heap_half = top_heap_mb () in
  let p_full = build (2 * n) refs in
  let heap_full = top_heap_mb () in
  let ratio = heap_full /. Float.max 1.0 heap_half in
  let kb_per_file = heap_full *. 1000.0 /. float_of_int (2 * n) in
  Printf.printf
    "scale_mem train: %d -> %d files at jobs %d, top-heap %.1f MB -> %.1f MB (%.2fx, %.1f \
     KB per file), %d -> %d patterns\n"
    n (2 * n) jobs heap_half heap_full ratio kb_per_file p_half p_full;
  if ratio > 2.3 then
    fail
      "train top-heap grew %.2fx across a 2x corpus doubling (gate: <= 2.3x, i.e. at \
       most linear in retained digests) — the build frontend is retaining more than \
       the digests"
      ratio;
  if not (String.starts_with ~prefix:(ceiling_ocaml ^ ".") Sys.ocaml_version) then
    Printf.eprintf
      "NOTICE: scale_mem's per-file train ceiling is pinned for OCaml %s; OCaml %s checks \
       the ratio only\n"
      ceiling_ocaml Sys.ocaml_version
  else if kb_per_file > ceiling then
    fail "train top-heap is %.1f KB per trained file at %d files, jobs %d (ceiling: %.1f KB)"
      kb_per_file (2 * n) jobs ceiling

let () =
  let mode, n, jobs =
    match Sys.argv with
    | [| _; ("scan" | "train") as mode; n |] -> (mode, int_of_string n, 1)
    | [| _; "train"; n; jobs |] -> ("train", int_of_string n, int_of_string jobs)
    | _ -> fail "usage: scale_mem.exe (scan N | train N [JOBS])"
  in
  let tmp = Filename.temp_file "namer_scale_mem" "" in
  Sys.remove tmp;
  Unix.mkdir tmp 0o700;
  Fun.protect
    ~finally:(fun () ->
      ignore (Sys.command (Printf.sprintf "rm -rf %s" (Filename.quote tmp))))
  @@ fun () ->
  (* write_scale's prefix property: the N-file corpus is byte-identical
     to the first half of the 2N-file corpus, so the doubled pass
     revisits the same files plus as many again *)
  let refs = gen_refs tmp ~n_files:(2 * n) in
  let half = List.filteri (fun i _ -> i < n) refs in
  if mode = "scan" then scan ~n ~half refs else train ~jobs ~n ~half refs
