(* Bounded-memory property checks for the streaming frontend, each mode
   run as its own process so the top-heap watermark starts clean (it is
   monotonic per process — a prior pass's allocations would mask growth).

   [scan N] scans a generated N-file corpus from disk, records the
   watermark, then scans 2N files: because the scan streams sources
   through the digest in bounded batches and retains only reports, the
   watermark after the doubled pass must stay within a noise margin
   (1.35x) of the first.  A regression that holds sources (or digests)
   across the whole corpus shows up as a near-2x ratio.

   [train N] trains on N then 2N files the same way.  Training retains
   every file's digest for mining, so its watermark may grow at most
   linearly (2.3x); more means the build frontend retains more than the
   digests.

   Usage: scale_mem.exe (scan|train) N *)

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

(* each build is configured as CLI training of that many files *)
let train ~n ~half refs =
  let build n refs =
    let t = Namer.build_refs (Namer.self_mining_config ~n_files:n) ~lang:Corpus.Python refs in
    Namer_pattern.Pattern.Store.size t.Namer.store
  in
  let p_half = build n half in
  let heap_half = top_heap_mb () in
  let p_full = build (2 * n) refs in
  let heap_full = top_heap_mb () in
  let ratio = heap_full /. Float.max 1.0 heap_half in
  Printf.printf
    "scale_mem train: %d -> %d files, top-heap %.1f MB -> %.1f MB (%.2fx), %d -> %d \
     patterns\n"
    n (2 * n) heap_half heap_full ratio p_half p_full;
  if ratio > 2.3 then
    fail
      "train top-heap grew %.2fx across a 2x corpus doubling (gate: <= 2.3x, i.e. at \
       most linear in retained digests) — the build frontend is retaining more than \
       the digests"
      ratio

let () =
  let mode, n =
    match Sys.argv with
    | [| _; ("scan" | "train") as mode; n |] -> (mode, int_of_string n)
    | _ -> fail "usage: scale_mem.exe (scan|train) N"
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
  if mode = "scan" then scan ~n ~half refs else train ~n ~half refs
