(* Model snapshots and the incremental scan cache: save → load → scan
   round-trips byte-identically at any jobs setting, damaged snapshot
   files are rejected with actionable errors, and a warm cache replays
   reports without re-parsing anything but the files that changed. *)

module Namer = Namer_core.Namer
module Corpus = Namer_corpus.Corpus
module Miner = Namer_mining.Miner
module Snapshot = Namer_model.Snapshot
module Telemetry = Namer_telemetry.Telemetry

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_string = Alcotest.(check string)

let corpus_cfg ?(lang = Corpus.Python) ?(seed = 11) () =
  {
    (Corpus.default_config lang) with
    Corpus.n_repos = 8;
    files_per_repo = (4, 6);
    seed;
  }

let namer_cfg =
  {
    Namer.default_config with
    use_classifier = false;
    miner = { Miner.default_config with Miner.min_support = 5; min_path_freq = 3 };
  }

let built = lazy (Corpus.generate (corpus_cfg ()), Namer.build namer_cfg (Corpus.generate (corpus_cfg ())))
let corpus () = fst (Lazy.force built)
let namer () = snd (Lazy.force built)

let temp_dir prefix =
  let d = Filename.temp_file prefix "" in
  Sys.remove d;
  Sys.mkdir d 0o700;
  d

let model_path () = Filename.temp_file "test_model" ".nmdl"

let reports (r : Namer.scan_result) =
  Array.to_list r.Namer.sr_reports
  |> List.map (fun (x : Namer.report) ->
         Printf.sprintf "%s:%d:%s:%s:%s:%s" x.Namer.r_file x.Namer.r_line
           x.Namer.r_prefix x.Namer.r_found x.Namer.r_suggested x.Namer.r_kind)
  |> String.concat "\n"

(* -------- round trip -------- *)

let test_round_trip_identity () =
  let t = namer () and c = corpus () in
  let path = model_path () in
  let saved = Namer.save_model t ~path in
  let loaded = Namer.load_model ~path in
  Sys.remove path;
  check_string "hash survives the disk round trip" saved.Namer.m_hash
    loaded.Namer.m_hash;
  let in_mem = Namer.scan_with_model ~jobs:1 (Namer.model_of t) c.Corpus.files in
  let from_disk = Namer.scan_with_model ~jobs:1 loaded c.Corpus.files in
  check_bool "some reports to compare" true (Array.length in_mem.Namer.sr_reports > 0);
  check_string "loaded model scans byte-identically (jobs=1)" (reports in_mem)
    (reports from_disk);
  let par =
    Namer.scan_with_model ~jobs:4 ~cap_domains:false loaded c.Corpus.files
  in
  check_string "loaded model scans byte-identically (jobs=4)" (reports in_mem)
    (reports par)

let test_save_is_deterministic () =
  let t = namer () in
  let p1 = model_path () and p2 = model_path () in
  let m1 = Namer.save_model t ~path:p1 and m2 = Namer.save_model t ~path:p2 in
  let bytes p =
    let ic = open_in_bin p in
    let s = really_input_string ic (in_channel_length ic) in
    close_in ic;
    s
  in
  let b1 = bytes p1 and b2 = bytes p2 in
  Sys.remove p1;
  Sys.remove p2;
  check_string "same build serializes to the same hash" m1.Namer.m_hash m2.Namer.m_hash;
  check_bool "and to the same bytes" true (String.equal b1 b2)

let test_ordering_round_trip () =
  let module Pattern = Namer_pattern.Pattern in
  let np = Namer_namepath.Namepath.of_string in
  let kind = Pattern.Ordering { first = "width"; second = "height" } in
  let store = Pattern.Store.create () in
  ignore
    (Pattern.Store.add store
       (Pattern.make ~kind
          ~condition:[ np "NumArgs(2) 0 Call 0 AttributeLoad 1 Attr 0 NumST(1) 0 resize" ]
          ~deduction:
            [
              np "NumArgs(2) 0 Call 1 NameLoad 0 NumST(1) 0 width";
              np "NumArgs(2) 0 Call 2 NameLoad 0 NumST(1) 0 height";
            ]));
  let path = model_path () in
  ignore (Namer.save_model { (namer ()) with Namer.store } ~path);
  let loaded = Namer.load_model ~path in
  Sys.remove path;
  check_int "one pattern" 1 (Pattern.Store.size loaded.Namer.m_store);
  check_bool "ordering kind preserved" true
    ((Pattern.Store.get loaded.Namer.m_store 0).Pattern.kind = kind)

(* -------- rejection -------- *)

let expect_error name f fragment =
  match f () with
  | (_ : Namer.model) -> Alcotest.failf "%s: load_model accepted a damaged file" name
  | exception Snapshot.Error msg ->
      check_bool
        (Printf.sprintf "%s: error mentions %S (got %S)" name fragment msg)
        true
        (let flen = String.length fragment and mlen = String.length msg in
         let rec scan i =
           i + flen <= mlen && (String.sub msg i flen = fragment || scan (i + 1))
         in
         scan 0)

let damaged_copy ~transform =
  let t = namer () in
  let path = model_path () in
  ignore (Namer.save_model t ~path);
  let ic = open_in_bin path in
  let s = really_input_string ic (in_channel_length ic) in
  close_in ic;
  let oc = open_out_bin path in
  output_string oc (transform s);
  close_out oc;
  path

let test_rejects_truncated () =
  let path = damaged_copy ~transform:(fun s -> String.sub s 0 (String.length s / 2)) in
  expect_error "half file" (fun () -> Namer.load_model ~path) "truncated";
  let oc = open_out_bin path in
  output_string oc "NAME";
  close_out oc;
  expect_error "4-byte file" (fun () -> Namer.load_model ~path) "truncated";
  Sys.remove path

let test_rejects_corrupted () =
  let flip s =
    let b = Bytes.of_string s in
    let i = Bytes.length b / 2 in
    Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor 0xff));
    Bytes.to_string b
  in
  let path = damaged_copy ~transform:flip in
  expect_error "flipped byte" (fun () -> Namer.load_model ~path) "checksum";
  Sys.remove path

let test_rejects_bad_magic () =
  let path =
    damaged_copy ~transform:(fun s ->
        "NOTMODEL" ^ String.sub s 8 (String.length s - 8))
  in
  expect_error "bad magic" (fun () -> Namer.load_model ~path) "bad magic";
  Sys.remove path

let test_rejects_version_mismatch () =
  let bytes, _hash = Snapshot.encode ~magic:"NAMERMDL" ~version:99 [] in
  let path = model_path () in
  Snapshot.write ~path bytes;
  expect_error "future version" (fun () -> Namer.load_model ~path) "format version 99";
  expect_error "future version names the fix"
    (fun () -> Namer.load_model ~path)
    "re-run `namer train`";
  Sys.remove path

let test_rejects_missing_file () =
  expect_error "missing file"
    (fun () -> Namer.load_model ~path:"/nonexistent/model.nmdl")
    "cannot read"

(* Rewrite one section of a valid snapshot and re-encode the container
   (magic/version/checksum all pass): the error must name the damaged
   section, not just a byte offset into the file. *)
let with_replaced_section name payload =
  let t = namer () in
  let path = model_path () in
  ignore (Namer.save_model t ~path);
  let ic = open_in_bin path in
  let bytes = really_input_string ic (in_channel_length ic) in
  close_in ic;
  let sections, _ =
    Snapshot.decode ~magic:"NAMERMDL" ~desc:"model snapshot" ~version:1 bytes
  in
  let sections =
    List.map (fun (n, pl) -> if n = name then (n, payload) else (n, pl)) sections
  in
  let bytes, _ = Snapshot.encode ~magic:"NAMERMDL" ~version:1 sections in
  Snapshot.write ~path bytes;
  path

let test_error_names_corrupt_section () =
  (* one pattern record announced, payload truncated mid-record *)
  let truncated =
    let w = Namer_model.Binio.W.create () in
    Namer_model.Binio.W.u32 w 1;
    Namer_model.Binio.W.u8 w 0;
    Namer_model.Binio.W.contents w
  in
  let path = with_replaced_section "patterns" truncated in
  expect_error "truncated patterns payload"
    (fun () -> Namer.load_model ~path)
    "\"patterns\" section is corrupt";
  Sys.remove path;
  let path = with_replaced_section "pairs" "\x02\x00\x00\x00" in
  expect_error "truncated pairs payload"
    (fun () -> Namer.load_model ~path)
    "\"pairs\" section is corrupt";
  Sys.remove path

let test_rejects_missing_section () =
  let t = namer () in
  let path = model_path () in
  ignore (Namer.save_model t ~path);
  let ic = open_in_bin path in
  let bytes = really_input_string ic (in_channel_length ic) in
  close_in ic;
  let sections, _ =
    Snapshot.decode ~magic:"NAMERMDL" ~desc:"model snapshot" ~version:1 bytes
  in
  let bytes, _ =
    Snapshot.encode ~magic:"NAMERMDL" ~version:1
      (List.filter (fun (n, _) -> n <> "classifier") sections)
  in
  Snapshot.write ~path bytes;
  expect_error "dropped classifier section"
    (fun () -> Namer.load_model ~path)
    "missing its \"classifier\" section";
  Sys.remove path

(* -------- scan cache -------- *)

let scan_stage_count name =
  match List.find_opt (fun s -> s.Telemetry.stage = name) (Telemetry.stages ()) with
  | Some s -> s.Telemetry.s_count
  | None -> 0

let with_telemetry f =
  Telemetry.reset ();
  Telemetry.set_sink Telemetry.Memory;
  f ()

(* A stage's allocation is that of the domain that ran it, so a per-file
   stage allocates the same at jobs=2 as at jobs=1 on the same files: no
   domain is charged for another's work.  Every domain that scans has
   lexed every file first, so no measured span pays a domain's one-time
   state (its token buffer, grown to the largest file it has seen), and
   the comparison does not depend on which files stealing hands to which
   domain. *)
let test_per_file_alloc_across_jobs () =
  let m = Namer.model_of (namer ()) and files = (corpus ()).Corpus.files in
  let warm () =
    List.iter (fun (f : Corpus.file) -> ignore (Namer_pylang.Py_parser.parse_module f.source)) files
  in
  let stages ?pool jobs =
    with_telemetry (fun () ->
        ignore (Namer.scan_with_model ~jobs ~cap_domains:false ?pool m files);
        Telemetry.stages ())
  in
  let pool = Namer_parallel.Pool.create ~domains:2 () in
  let one, two =
    Fun.protect ~finally:(fun () -> Namer_parallel.Pool.shutdown pool) @@ fun () ->
    (* one warm-up per worker: each waits for the other to start, so the
       two cannot run on one worker *)
    let started = Atomic.make 0 in
    let warm_worker () =
      Atomic.incr started;
      while Atomic.get started < 2 do
        Domain.cpu_relax ()
      done;
      warm ()
    in
    List.iter Namer_parallel.Pool.await
      (List.init 2 (fun on -> Namer_parallel.Pool.submit ~on pool warm_worker));
    warm ();
    let one = stages 1 in
    (one, stages ~pool 2)
  in
  let n = List.length files in
  List.iter
    (fun name ->
      let find l = List.find (fun s -> s.Telemetry.stage = name) l in
      let a = (find one).Telemetry.alloc_mb and b = (find two).Telemetry.alloc_mb in
      check_int (name ^ ": one span per file") n (find two).Telemetry.s_count;
      check_bool
        (Printf.sprintf "%s: %.3f MB at jobs=2 within 10%% of %.3f MB at jobs=1" name b a)
        true
        (a > 0.0 && Float.abs (b -. a) <= 0.1 *. a))
    [ "parse"; "analyze"; "astplus"; "namepaths"; "scan" ]

let test_cache_warm_replay () =
  let t = namer () and c = corpus () in
  let m = Namer.model_of t in
  let dir = temp_dir "test_cache" in
  let files = c.Corpus.files in
  let n = List.length files in
  let cold = Namer.scan_with_model ~jobs:1 ~cache_dir:dir m files in
  check_int "cold scan misses every file" n cold.Namer.sr_cache_misses;
  let warm = with_telemetry (fun () -> Namer.scan_with_model ~jobs:1 ~cache_dir:dir m files) in
  check_int "warm scan hits every file" n warm.Namer.sr_cache_hits;
  check_int "warm scan misses nothing" 0 warm.Namer.sr_cache_misses;
  check_int "warm scan parses nothing" 0 (scan_stage_count "parse");
  check_string "warm reports byte-identical to cold" (reports cold) (reports warm);
  let warm4 =
    Namer.scan_with_model ~jobs:4 ~cap_domains:false ~cache_dir:dir m files
  in
  check_string "warm reports identical at jobs=4" (reports cold) (reports warm4)

let test_cache_edit_one_file () =
  let t = namer () and c = corpus () in
  let m = Namer.model_of t in
  let dir = temp_dir "test_cache_edit" in
  let files = c.Corpus.files in
  ignore (Namer.scan_with_model ~jobs:1 ~cache_dir:dir m files);
  (* append a comment to exactly one file: new content digest, same code *)
  let edited =
    List.mapi
      (fun i (f : Corpus.file) ->
        if i = 0 then { f with Corpus.source = f.Corpus.source ^ "\n# touched\n" }
        else f)
      files
  in
  let rescan =
    with_telemetry (fun () -> Namer.scan_with_model ~jobs:1 ~cache_dir:dir m edited)
  in
  check_int "only the edited file misses" 1 rescan.Namer.sr_cache_misses;
  check_int "every other file hits" (List.length files - 1) rescan.Namer.sr_cache_hits;
  check_int "only the edited file re-parses" 1 (scan_stage_count "parse");
  let uncached = Namer.scan_with_model ~jobs:1 m edited in
  check_string "merged report equals an uncached scan" (reports uncached)
    (reports rescan)

let test_cache_invalidated_by_model_hash () =
  let t = namer () and c = corpus () in
  let m1 = Namer.model_of t in
  (* different training corpus → different patterns → different hash *)
  let t2 = Namer.build namer_cfg (Corpus.generate (corpus_cfg ~seed:99 ())) in
  let m2 = Namer.model_of t2 in
  check_bool "the two models hash differently" true
    (not (String.equal m1.Namer.m_hash m2.Namer.m_hash));
  let dir = temp_dir "test_cache_inval" in
  let files = c.Corpus.files in
  ignore (Namer.scan_with_model ~jobs:1 ~cache_dir:dir m1 files);
  let other = Namer.scan_with_model ~jobs:1 ~cache_dir:dir m2 files in
  check_int "a different model hash sees zero hits" 0 other.Namer.sr_cache_hits;
  check_int "and misses every file" (List.length files) other.Namer.sr_cache_misses

let flip_byte path off =
  let fd = Unix.openfile path [ Unix.O_RDWR ] 0 in
  let b = Bytes.create 1 in
  ignore (Unix.lseek fd off Unix.SEEK_SET);
  ignore (Unix.read fd b 0 1);
  Bytes.set b 0 (Char.chr (Char.code (Bytes.get b 0) lxor 0x5a));
  ignore (Unix.lseek fd off Unix.SEEK_SET);
  ignore (Unix.write fd b 0 1);
  Unix.close fd

let test_cache_survives_garbage_entry () =
  let t = namer () and c = corpus () in
  let m = Namer.model_of t in
  let dir = temp_dir "test_cache_garbage" in
  let files = c.Corpus.files in
  let cold = Namer.scan_with_model ~jobs:1 ~cache_dir:dir m files in
  (* flip one payload byte of the pack's first record (its 28-byte header
     comes first): that entry must degrade to a miss *)
  flip_byte (Filename.concat dir (m.Namer.m_hash ^ ".pack")) 48;
  let warm = Namer.scan_with_model ~jobs:1 ~cache_dir:dir m files in
  check_int "garbage entry degrades to exactly one miss" 1 warm.Namer.sr_cache_misses;
  check_string "reports still byte-identical" (reports cold) (reports warm)

module Scan_cache = Namer_core.Scan_cache

let pack_hash = "feedfacefeedface"
let pack_of_dir dir = Filename.concat dir (pack_hash ^ ".pack")
let file_size path = (Unix.stat path).Unix.st_size

let read_bytes path =
  let ic = open_in_bin path in
  let s = really_input_string ic (in_channel_length ic) in
  close_in ic;
  s

let write_bytes path s =
  let oc = open_out_bin path in
  output_string oc s;
  close_out oc

let cache_find dir d = Scan_cache.find ~dir ~model_hash:pack_hash ~src_digest:d
let cache_store dir d entries =
  Scan_cache.store ~dir ~model_hash:pack_hash ~src_digest:d entries

let entries_of label =
  [
    {
      Scan_cache.e_line = 1;
      e_prefix = label;
      e_found = "a";
      e_suggested = "b";
      e_kind = "ordering";
    };
  ]

let entries_gen =
  QCheck.Gen.(
    list_size (int_range 0 4)
      (map
         (fun (line, (prefix, found)) ->
           {
             Scan_cache.e_line = line;
             e_prefix = prefix;
             e_found = found;
             e_suggested = "receive";
             e_kind = "consistency";
           })
         (pair small_nat (pair string_small string_small))))

type damage = Truncate | Splice of int * string | Flip of int * int

(* A pack of N stored entries, damaged three ways: cut at every byte
   offset inside its last record, a garbage run spliced between two
   records, one payload byte flipped.  Through the handle that stored
   them, every find returns exactly the stored entries or None; through a
   fresh handle, exactly the undamaged records are found; and a store
   after the damage is found by both. *)
let prop_pack_damage =
  QCheck.Test.make ~name:"cache: pack damage is a miss, never a wrong answer" ~count:25
    (QCheck.make
       QCheck.Gen.(
         list_size (int_range 1 6) entries_gen >>= fun stored ->
         let n = List.length stored in
         oneof
           [
             return Truncate;
             map2
               (fun i g -> Splice (i, g))
               (int_range 1 (max 1 (n - 1)))
               (string_size (int_range 1 80));
             map2 (fun i j -> Flip (i, j)) (int_bound (n - 1)) nat;
           ]
         >>= fun damage -> map (fun salt -> (stored, damage, salt)) nat))
    (fun (stored, damage, salt) ->
      let stored = Array.of_list stored in
      let n = Array.length stored in
      let key i = Digest.to_hex (Digest.string (Printf.sprintf "%d/%d" salt i)) in
      let dir = temp_dir "test_pack_damage" in
      let path = pack_of_dir dir in
      Scan_cache.close_all ();
      let bounds = Array.make (n + 1) 0 in
      Array.iteri
        (fun i e ->
          cache_store dir (key i) e;
          bounds.(i + 1) <- file_size path)
        stored;
      let original = read_bytes path in
      let payload i = bounds.(i) + 28 in
      let instances =
        match damage with
        | Truncate ->
            List.init (bounds.(n) - bounds.(n - 1)) (fun k ->
                (String.sub original 0 (bounds.(n - 1) + k), Some (n - 1)))
        | Splice (i, garbage) ->
            let cut = bounds.(i) in
            [
              ( String.sub original 0 cut ^ garbage
                ^ String.sub original cut (String.length original - cut),
                None );
            ]
        | Flip (i, j) ->
            let at = payload i + (j mod (bounds.(i + 1) - 8 - payload i)) in
            let b = Bytes.of_string original in
            Bytes.set b at (Char.chr (Char.code (Bytes.get b at) lxor 0x01));
            [ (Bytes.to_string b, Some i) ]
      in
      let exact_or_none i =
        match cache_find dir (key i) with None -> true | Some e -> e = stored.(i)
      in
      let fresh_exact damaged =
        Scan_cache.close_all ();
        List.for_all
          (fun i ->
            cache_find dir (key i) = if Some i = damaged then None else Some stored.(i))
          (List.init n Fun.id)
      in
      List.for_all
        (fun (bytes, damaged) ->
          write_bytes path bytes;
          let live = List.for_all exact_or_none (List.init n Fun.id) in
          let fresh = fresh_exact damaged in
          let extra = entries_of "extra" in
          cache_store dir (key n) extra;
          let stored_live = cache_find dir (key n) = Some extra in
          let after = fresh_exact damaged in
          let stored_fresh = cache_find dir (key n) = Some extra in
          live && fresh && stored_live && after && stored_fresh)
        instances)

let test_cache_deleted_pack () =
  let dir = temp_dir "test_cache_deleted" in
  let path = pack_of_dir dir in
  let one = Digest.to_hex (Digest.string "one")
  and two = Digest.to_hex (Digest.string "two") in
  Scan_cache.close_all ();
  cache_store dir one (entries_of "one");
  check_bool "stored entry found" true (cache_find dir one = Some (entries_of "one"));
  Sys.remove path;
  check_bool "a miss on a deleted pack" true
    (cache_find dir (Digest.to_hex (Digest.string "three")) = None);
  check_bool "a find never creates the pack" false (Sys.file_exists path);
  cache_store dir two (entries_of "two");
  check_bool "the next store recreates the pack" true (Sys.file_exists path);
  Scan_cache.close_all ();
  check_bool "a fresh handle finds the new entry" true
    (cache_find dir two = Some (entries_of "two"));
  check_bool "the deleted entry is gone" true (cache_find dir one = None);
  check_int "one entry indexed" 1
    (fst (Scan_cache.pack_stats ~dir ~model_hash:pack_hash));
  (* another writer replaces the pack under the open handle: the next
     miss must reopen the path, not keep reading the old inode *)
  let other = temp_dir "test_cache_other" in
  cache_store other one (entries_of "one");
  Sys.rename (pack_of_dir other) path;
  check_bool "a replaced pack is reopened" true
    (cache_find dir one = Some (entries_of "one"))

let test_cache_index_grows () =
  let dir = temp_dir "test_cache_grow" in
  let key i = Digest.to_hex (Digest.string (string_of_int i)) in
  let n = 3000 in
  Scan_cache.close_all ();
  for i = 0 to n - 1 do
    cache_store dir (key i) (entries_of (string_of_int i))
  done;
  let all_found () =
    List.for_all
      (fun i -> cache_find dir (key i) = Some (entries_of (string_of_int i)))
      (List.init n Fun.id)
  in
  check_bool "every entry found through the growing index" true (all_found ());
  Scan_cache.close_all ();
  check_bool "and through a fresh handle's catch-up" true (all_found ());
  check_int "one index entry per key" n
    (fst (Scan_cache.pack_stats ~dir ~model_hash:pack_hash))

let test_cache_prefix_collision () =
  let dir = temp_dir "test_cache_collide" in
  let a = "0123456789abcdef" ^ String.make 16 '0'
  and b = "0123456789abcdef" ^ String.make 16 'f' in
  Scan_cache.close_all ();
  cache_store dir a (entries_of "a");
  check_bool "a key sharing 8 bytes misses" true (cache_find dir b = None);
  cache_store dir b (entries_of "b");
  check_bool "the newer key is found" true (cache_find dir b = Some (entries_of "b"));
  check_bool "the older key never reads the newer's entries" true
    (cache_find dir a <> Some (entries_of "b"))

(* Concurrent writers racing on one cache entry (the serve daemon and a
   CLI scan populating the same key): publication is temp + rename, so a
   reader must only ever see a complete entry — never a torn interleaving
   and never a decode failure. *)
let test_cache_concurrent_stores_never_torn () =
  let module Scan_cache = Namer_core.Scan_cache in
  let dir = temp_dir "test_cache_race" in
  let entries =
    List.init 40 (fun i ->
        {
          Scan_cache.e_line = i + 1;
          e_prefix = Printf.sprintf "prefix_%d" i;
          e_found = "recieve";
          e_suggested = "receive";
          e_kind = "confusing-word";
        })
  in
  let model_hash = "feedfacefeedface" in
  let src_digest = String.make 32 'a' in
  let failures = ref [] in
  let lock = Mutex.create () in
  let worker _ =
    Thread.create
      (fun () ->
        try
          for _ = 1 to 25 do
            Scan_cache.store ~dir ~model_hash ~src_digest entries;
            match Scan_cache.find ~dir ~model_hash ~src_digest with
            | Some got when got = entries -> ()
            | Some _ -> failwith "torn entry read back"
            | None -> failwith "entry undecodable mid-race"
          done
        with e ->
          Mutex.lock lock;
          failures := Printexc.to_string e :: !failures;
          Mutex.unlock lock)
      ()
  in
  let threads = List.init 8 worker in
  List.iter Thread.join threads;
  check_string "no torn or undecodable reads under concurrent writers" ""
    (String.concat "; " !failures);
  match Scan_cache.find ~dir ~model_hash ~src_digest with
  | Some got -> check_bool "final entry intact" true (got = entries)
  | None -> Alcotest.fail "entry missing after the race"

(* -------- scans never touch the global interner -------- *)

module Interned = Namer_namepath.Namepath.Interned

(* Files the model never saw: another seed's corpus, and names no
   generator produces. *)
let unseen_files () =
  (Corpus.generate (corpus_cfg ~seed:977 ())).Corpus.files
  @ [
      {
        Corpus.repo = "novel";
        path = "novel/zq.py";
        source =
          "class Qzx(object):\n\
          \    def __init__(self, wobbleFrob):\n\
          \        self.wobble_frob = wobbleFrob\n\
          \        self.glorp.quuxify(wobbleFrob, 3)\n";
      };
    ]

let test_scan_leaves_interner () =
  let path = model_path () in
  ignore (Namer.save_model (namer ()) ~path);
  let m = Namer.load_model ~path in
  Sys.remove path;
  let files = unseen_files () in
  let sizes = Interned.(sizes global) and contents = Interned.(contents global) in
  let nodes = Interned.(trie_nodes global) in
  List.iter
    (fun jobs ->
      let r = Namer.scan_with_model ~jobs ~cap_domains:false m files in
      check_bool "the scan reports something" true (Array.length r.Namer.sr_reports > 0);
      let label what = Printf.sprintf "%s unchanged (jobs=%d)" what jobs in
      check_bool (label "interner sizes") true (Interned.(sizes global) = sizes);
      check_bool (label "interner contents") true (Interned.(contents global) = contents);
      check_int (label "prefix trie") nodes Interned.(trie_nodes global))
    [ 1; 4 ]

let test_scan_ignores_unrelated_build () =
  let path = model_path () in
  ignore (Namer.save_model (namer ()) ~path);
  let files = (corpus ()).Corpus.files @ unseen_files () in
  let m = Namer.load_model ~path in
  let before = Namer.scan_with_model ~jobs:1 m files in
  (* a build over other files grows the global interner under the model
     captured before it and the one loaded after it *)
  ignore (Namer.build namer_cfg (Corpus.generate (corpus_cfg ~seed:4242 ())));
  let again = Namer.scan_with_model ~jobs:1 m files in
  let reloaded = Namer.load_model ~path in
  Sys.remove path;
  let after = Namer.scan_with_model ~jobs:4 ~cap_domains:false reloaded files in
  check_bool "some reports to compare" true (Array.length before.Namer.sr_reports > 0);
  check_string "same model, after the build" (reports before) (reports again);
  check_string "model loaded after the build" (reports before) (reports after)

(* -------- model-hash pin -------- *)

(* The hash of a model trained on a fixed generated corpus per language:
   Python's recorded before the miner's anchor index went in, Java's after
   the points-to solver began re-deriving facts added after a query.  A
   frontend, analysis or miner change that alters a mined store, its
   pattern ids or its dataset statistics changes these bytes.  The hash
   covers the global interner and a pattern order that follows interned
   ids, both shaped by everything the process interned before, so each
   training runs in a fresh process: this test binary re-invoked as
   [test_main.exe model-pin LANG JOBS PATH], which runs {!pin_child}.  No
   classifier: its floats pass through libm, which may differ between
   hosts. *)
let pinned_model_hashes =
  [ (Corpus.Python, "744aee132a3a0fde"); (Corpus.Java, "c0d68914990b2915") ]

let pin_child ~lang ~jobs ~path =
  let cfg = { namer_cfg with Namer.jobs; cap_domains = false } in
  let corpus = Corpus.generate { (corpus_cfg ~lang ()) with Corpus.n_repos = 24 } in
  let m = Namer.save_model (Namer.build cfg corpus) ~path in
  print_string ("\nmodel-hash " ^ m.Namer.m_hash)

(* [runparam] is the children's OCAMLRUNPARAM, [None] to inherit ours. *)
let check_model_hash_pin ~runparam =
  let env =
    match runparam with
    | None -> Unix.environment ()
    | Some v ->
        Unix.environment () |> Array.to_list
        |> List.filter (fun e -> not (String.starts_with ~prefix:"OCAMLRUNPARAM=" e))
        |> List.cons ("OCAMLRUNPARAM=" ^ v)
        |> Array.of_list
  in
  List.iter
    (fun (lang, pinned) ->
      List.iter
        (fun jobs ->
          let path = model_path () in
          let exe = Sys.executable_name in
          let ((ic, _, err) as child) =
            Unix.open_process_args_full exe
              [| exe; "model-pin"; Corpus.lang_name lang; string_of_int jobs; path |]
              env
          in
          (* the hash is the last line: module set-up may print before it *)
          let hash =
            In_channel.input_all ic |> String.split_on_char '\n' |> List.rev |> List.hd
          in
          ignore (In_channel.input_all err);
          let status = Unix.close_process_full child in
          Sys.remove path;
          check_bool "the training process exits 0" true (status = Unix.WEXITED 0);
          check_string
            (Printf.sprintf "%s model hash (jobs=%d)" (Corpus.lang_name lang) jobs)
            ("model-hash " ^ pinned)
            hash)
        [ 1; 4 ])
    pinned_model_hashes

let test_model_hash_pin () = check_model_hash_pin ~runparam:None

(* Randomized hash tables ([OCAMLRUNPARAM=R]) change every [Hashtbl]'s
   iteration order.  No training step may let that order reach the model:
   the FP-tree visits children in a fixed order of its own. *)
let test_model_hash_pin_randomized () = check_model_hash_pin ~runparam:(Some "R")

(* -------- the anchored matcher -------- *)

(* On a small corpus, the build's [build.scan_checks] and a model scan's
   [scan.match_checks] lie between the number of matches and the checks of
   the plain reference — every {!Pattern.Store.candidates} entry of every
   statement. *)
let test_match_checks_counters () =
  let module Pattern = Namer_pattern.Pattern in
  let c = corpus () in
  let was = Telemetry.enabled () in
  Telemetry.reset ();
  Telemetry.set_sink Telemetry.Memory;
  Fun.protect ~finally:(fun () ->
      Telemetry.set_sink (if was then Telemetry.Memory else Telemetry.Null))
  @@ fun () ->
  let t = Namer.build namer_cfg c in
  let build_checks = Telemetry.counter "build.scan_checks"
  and build_matches = Telemetry.counter "agg.pattern_matches" in
  let m = Namer.model_of t in
  Telemetry.reset ();
  ignore (Namer.scan_with_model ~jobs:1 m c.Corpus.files);
  let scan_checks = Telemetry.counter "scan.match_checks" in
  let ref_checks = ref 0 and ref_matches = ref 0 in
  List.iter
    (fun f ->
      match Namer.digest_for_model m f with
      | None -> ()
      | Some stmts ->
          List.iter
            (fun (s : Namer.scanned_stmt) ->
              List.iter
                (fun p ->
                  incr ref_checks;
                  if Pattern.check p s.Namer.digest <> Pattern.No_match then incr ref_matches)
                (Pattern.Store.candidates t.Namer.store s.Namer.digest))
            stmts)
    c.Corpus.files;
  check_bool "some matches" true (!ref_matches > 0);
  check_int "the build matched what the reference matches" !ref_matches build_matches;
  let between name n =
    check_bool
      (Printf.sprintf "%s: matches %d <= checks %d <= reference checks %d" name !ref_matches n
         !ref_checks)
      true
      (!ref_matches <= n && n <= !ref_checks)
  in
  between "build.scan_checks" build_checks;
  between "scan.match_checks" scan_checks

(* Two statements on one line violate one pattern with the same offending
   prefix, suggestion and kind but different found words: the report keeps
   the first statement's, so the matcher must keep statement order. *)
let test_same_line_statements_keep_order () =
  let module Pattern = Namer_pattern.Pattern in
  let module Namepath = Namer_namepath.Namepath in
  let module Frontend = Namer_core.Frontend in
  let src = "self.assertTrue(a, b); self.assertEquals(a, b)\n" in
  let parsed = Frontend.parse_file Corpus.Python ~use_analysis:true src in
  check_int "two statements" 2 (List.length parsed.Frontend.stmts);
  (* the deduction: the first callee's second subtoken, which must be Equal *)
  let first = List.hd parsed.Frontend.stmts in
  let paths =
    Namepath.extract
      (Namer_namepath.Astplus.transform
         ~origins:(parsed.Frontend.origins ~cls:first.Frontend.cls ~fn:first.Frontend.fn)
         first.Frontend.tree)
  in
  let d = List.find (fun (np : Namepath.t) -> np.Namepath.end_node = Some "True") paths in
  let store = Pattern.Store.create () in
  ignore
    (Pattern.Store.add store
       (Pattern.make
          ~kind:(Pattern.Confusing_word { correct = "Equal" })
          ~condition:[]
          ~deduction:[ { d with Namepath.end_node = Some "Equal" } ]));
  let path = model_path () in
  ignore (Namer.save_model { (namer ()) with Namer.store } ~path);
  let m = Namer.load_model ~path in
  Sys.remove path;
  let files = [ { Corpus.repo = "r"; path = "f.py"; source = src } ] in
  let statement (r : Namer.report) = Namer.statement_of ~src:(Some src) ~line:r.Namer.r_line in
  List.iter
    (fun jobs ->
      let res = Namer.scan_with_model ~jobs ~cap_domains:false m files in
      let text =
        Array.to_list res.Namer.sr_reports
        |> List.map (fun r -> Namer.report_text ~statement:(statement r) r)
        |> String.concat ""
      in
      check_string "scan --model text"
        "f.py:1: self.assertTrue(a, b); self.assertEquals(a, b)\n\
        \    suggested fix: True -> Equal\n"
        text;
      check_string "scan --model JSON reports"
        "[\n\
        \  {\n\
        \    \"file\": \"f.py\",\n\
        \    \"line\": 1,\n\
        \    \"statement\": \"self.assertTrue(a, b); self.assertEquals(a, b)\",\n\
        \    \"found\": \"True\",\n\
        \    \"suggested\": \"Equal\",\n\
        \    \"pattern\": \"confusing-word\"\n\
        \  }\n\
         ]"
        (Namer_util.Json.to_string ~indent:2
           (Namer.reports_json ~statement ~max_reports:10 res.Namer.sr_reports)))
    [ 1; 4 ]

let suite =
  [
    Alcotest.test_case "round trip: save → load → scan identical" `Quick
      test_round_trip_identity;
    Alcotest.test_case "save is deterministic" `Quick test_save_is_deterministic;
    Alcotest.test_case "ordering pattern survives save/load" `Quick
      test_ordering_round_trip;
    Alcotest.test_case "rejects truncated snapshots" `Quick test_rejects_truncated;
    Alcotest.test_case "rejects corrupted snapshots" `Quick test_rejects_corrupted;
    Alcotest.test_case "rejects wrong magic" `Quick test_rejects_bad_magic;
    Alcotest.test_case "rejects version mismatch" `Quick test_rejects_version_mismatch;
    Alcotest.test_case "rejects missing file" `Quick test_rejects_missing_file;
    Alcotest.test_case "errors name the corrupt section" `Quick
      test_error_names_corrupt_section;
    Alcotest.test_case "rejects a missing section" `Quick
      test_rejects_missing_section;
    Alcotest.test_case "cache: warm replay hits everything" `Quick
      test_cache_warm_replay;
    Alcotest.test_case "cache: editing one file re-parses one file" `Quick
      test_cache_edit_one_file;
    Alcotest.test_case "cache: model hash change invalidates" `Quick
      test_cache_invalidated_by_model_hash;
    Alcotest.test_case "cache: garbage entry degrades to a miss" `Quick
      test_cache_survives_garbage_entry;
    Alcotest.test_case "scan leaves the global interner alone" `Quick
      test_scan_leaves_interner;
    Alcotest.test_case "scan ignores an unrelated build" `Quick
      test_scan_ignores_unrelated_build;
    Alcotest.test_case "cache: concurrent stores never torn" `Quick
      test_cache_concurrent_stores_never_torn;
    QCheck_alcotest.to_alcotest prop_pack_damage;
    Alcotest.test_case "cache: a deleted pack is recreated" `Quick test_cache_deleted_pack;
    Alcotest.test_case "cache: key-prefix collision is a miss" `Quick
      test_cache_prefix_collision;
    Alcotest.test_case "cache: index grows past its first table" `Quick
      test_cache_index_grows;
    Alcotest.test_case "model hash pin (jobs=1, jobs=4)" `Quick test_model_hash_pin;
    Alcotest.test_case "model hash pin under OCAMLRUNPARAM=R" `Quick
      test_model_hash_pin_randomized;
    Alcotest.test_case "per-file stage alloc same at jobs=1 and 2" `Quick
      test_per_file_alloc_across_jobs;
    Alcotest.test_case "matcher: check counters bounded" `Quick test_match_checks_counters;
    Alcotest.test_case "matcher: same-line statements keep order" `Quick
      test_same_line_statements_keep_order;
  ]
