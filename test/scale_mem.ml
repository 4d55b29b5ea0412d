(* Bounded-memory property check for the streaming frontend, run as its
   own executable so the top-heap watermark starts clean (it is
   monotonic per process — a prior test's allocations would mask growth).

   Scans a generated N-file corpus from disk, records the watermark,
   then scans 2N files: because the scan streams sources through the
   digest in bounded batches and retains only reports, the watermark
   after the doubled pass must stay within a noise margin of the first.
   A regression that holds sources (or digests) across the whole corpus
   shows up as a near-2x ratio.

   Usage: scale_mem.exe [N]   (default 2000; the bench gates the same
   property at paper scale, this is the fast @runtest guard) *)

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

let () =
  let n = if Array.length Sys.argv > 1 then int_of_string Sys.argv.(1) else 2000 in
  let tmp = Filename.temp_file "namer_scale_mem" "" in
  Sys.remove tmp;
  Unix.mkdir tmp 0o700;
  Fun.protect
    ~finally:(fun () ->
      ignore (Sys.command (Printf.sprintf "rm -rf %s" (Filename.quote tmp))))
  @@ fun () ->
  (* write_scale's prefix property: the N-file corpus is byte-identical
     to the first half of the 2N-file corpus, so the doubled scan
     revisits the same files plus as many again *)
  let refs = gen_refs tmp ~n_files:(2 * n) in
  let half = List.filteri (fun i _ -> i < n) refs in
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
    "scale_mem: %d -> %d files, top-heap %.1f MB -> %.1f MB (%.2fx), %d source(s) \
     in flight, %d -> %d reports\n"
    n (2 * n) heap_half heap_full ratio in_flight
    (Array.length sr_half.Namer.sr_reports)
    (Array.length sr_full.Namer.sr_reports);
  let fail fmt = Printf.ksprintf (fun s -> prerr_endline ("FAIL: " ^ s); exit 1) fmt in
  if Array.length sr_full.Namer.sr_reports < Array.length sr_half.Namer.sr_reports
  then fail "doubled corpus produced fewer reports — the prefix property broke";
  if in_flight > 1 then
    fail "%d sources in flight during a sequential scan (expected 1)" in_flight;
  if ratio > 1.35 then
    fail
      "top-heap grew %.2fx across a 2x corpus doubling (gate: <= 1.35x) — the scan \
       is no longer streaming"
      ratio
