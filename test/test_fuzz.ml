(* The fuzzing & fault-injection harness: mutation determinism, crash
   triage, per-file isolation under real and injected faults, the
   metamorphic oracles, and the jobs-1 / jobs-N golden differential. *)

module Fuzz = Namer_fuzz.Fuzz
module Mutate = Namer_fuzz.Mutate
module Triage = Namer_fuzz.Triage
module Oracles = Namer_fuzz.Oracles
module Fault = Namer_util.Fault
module Prng = Namer_util.Prng
module Namer = Namer_core.Namer
module Corpus = Namer_corpus.Corpus

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_string = Alcotest.(check string)

let contains hay needle =
  let n = String.length hay and m = String.length needle in
  let rec go i = i + m <= n && (String.sub hay i m = needle || go (i + 1)) in
  go 0

let corpus_cfg =
  {
    (Corpus.default_config Corpus.Python) with
    Corpus.n_repos = 4;
    files_per_repo = (4, 6);
    seed = 11;
  }

let build =
  lazy
    (let corpus = Corpus.generate corpus_cfg in
     let n_files = List.length corpus.Corpus.files in
     let t = Namer.build (Namer.self_mining_config ~n_files) corpus in
     (corpus, t, Namer.model_of t))

(* ---------------- mutation engine ---------------- *)

let mutant_trail seed =
  let rng = Prng.create seed in
  let src = "def resize(width, height):\n    total_width = width\n    return total_width\n" in
  List.init 30 (fun _ ->
      let m =
        Mutate.mutate ~rng ~pairs:[ ("width", "height") ] ~bomb_depth:50
          ~lang:Corpus.Python src
      in
      (Mutate.kind_name m.Mutate.m_kind, m.Mutate.m_desc, m.Mutate.m_source))

let test_mutation_deterministic () =
  check_bool "same seed, same 30-mutant trail" true (mutant_trail 7 = mutant_trail 7);
  check_bool "different seeds diverge" true (mutant_trail 7 <> mutant_trail 8)

let test_mutation_covers_palette () =
  let rng = Prng.create 3 in
  let src = "def resize(width, height):\n    total_width = width\n    return total_width\n" in
  let seen = Hashtbl.create 8 in
  for _ = 1 to 300 do
    let m =
      Mutate.mutate ~rng ~pairs:[ ("width", "height") ] ~bomb_depth:50
        ~lang:Corpus.Python src
    in
    Hashtbl.replace seen m.Mutate.m_kind ()
  done;
  List.iter
    (fun k ->
      check_bool (Mutate.kind_name k ^ " drawn in 300 iterations") true
        (Hashtbl.mem seen k))
    Mutate.all_kinds

(* ---------------- per-file isolation ---------------- *)

let clean_files =
  [
    { Corpus.repo = "r"; path = "a.py"; source = "alpha = 1\nbeta = alpha\n" };
    { Corpus.repo = "r"; path = "b.py"; source = "gamma = 2\ndelta = gamma\n" };
  ]

(* A genuine resource bomb: deep nesting overflows the recursive-descent
   parser.  The scan must drop the file, not the process. *)
let test_bomb_becomes_skipped_file () =
  let _, _, m = Lazy.force build in
  let bomb =
    { Corpus.repo = "r"; path = "bomb.py";
      source = "x = 1\n" ^ Mutate.nest_bomb ~lang:Corpus.Python ~depth:Mutate.default_bomb_depth }
  in
  let sr = Namer.scan_with_model ~jobs:1 m (bomb :: clean_files) in
  check_int "exactly the bomb is skipped" 1 (List.length sr.Namer.sr_skipped);
  let sk = List.hd sr.Namer.sr_skipped in
  check_string "skip names the bomb" "bomb.py" sk.Namer.sk_file;
  check_bool "reason is non-empty" true (String.length sk.Namer.sk_reason > 0)

let test_injected_parse_fault_skips_one_file () =
  let _, _, m = Lazy.force build in
  Fault.reset ();
  Fun.protect ~finally:Fault.reset @@ fun () ->
  Fault.arm "frontend.parse";
  let sr = Namer.scan_with_model ~jobs:1 m clean_files in
  check_int "one file skipped" 1 (List.length sr.Namer.sr_skipped);
  let sk = List.hd sr.Namer.sr_skipped in
  check_string "first file hit the armed fault" "a.py" sk.Namer.sk_file;
  check_bool "reason names the fault point" true
    (contains sk.Namer.sk_reason "frontend.parse");
  check_int "fault fired exactly once" 1 (Fault.fired ())

(* ---------------- scan-cache corruption ---------------- *)

let temp_dir prefix =
  let path = Filename.temp_file prefix "" in
  Sys.remove path;
  Sys.mkdir path 0o755;
  path

let test_corrupt_cache_entry_self_heals () =
  let corpus, _, m = Lazy.force build in
  let files = corpus.Corpus.files in
  let dir = temp_dir "namer_fuzz_cache" in
  Fault.reset ();
  Fun.protect ~finally:Fault.reset @@ fun () ->
  let cold = Namer.scan_with_model ~jobs:1 ~cache_dir:dir m files in
  let warm = Namer.scan_with_model ~jobs:1 ~cache_dir:dir m files in
  check_int "warm scan is all hits" (List.length files) warm.Namer.sr_cache_hits;
  Fault.arm "scan_cache.read";
  let hurt = Namer.scan_with_model ~jobs:1 ~cache_dir:dir m files in
  check_bool "corrupted entry degraded to a miss" true (hurt.Namer.sr_cache_misses >= 1);
  check_bool "reports identical through the corruption" true
    (hurt.Namer.sr_reports = cold.Namer.sr_reports)

(* ---------------- pool containment ---------------- *)

let test_pool_task_fault_contained () =
  let corpus, _, m = Lazy.force build in
  let files = corpus.Corpus.files in
  let baseline = Namer.scan_with_model ~jobs:4 ~cap_domains:false m files in
  Fault.reset ();
  Fun.protect ~finally:Fault.reset @@ fun () ->
  Fault.arm "pool.task";
  let hurt = Namer.scan_with_model ~jobs:4 ~cap_domains:false m files in
  check_int "fault fired" 1 (Fault.fired ());
  check_bool "scan completed byte-identically despite the poisoned task" true
    (hurt.Namer.sr_reports = baseline.Namer.sr_reports)

(* ---------------- metamorphic oracles ---------------- *)

let test_oracles_pass () =
  let corpus, t, m = Lazy.force build in
  let rng = Prng.create 5 in
  List.iter
    (fun (o : Oracles.result) ->
      check_bool (o.Oracles.o_name ^ ": " ^ o.Oracles.o_detail) true o.Oracles.o_pass)
    (Oracles.run_all ~rng ~t ~model:m ~files:corpus.Corpus.files
       ~commits:corpus.Corpus.commits)

(* The golden differential behind oracle 4, pinned at both ends of the
   parallelism range: self-mining build, jobs-1 model scan and jobs-4
   model scan must all tell the same story. *)
let test_model_scan_differential () =
  let corpus, t, m = Lazy.force build in
  let files = corpus.Corpus.files in
  let r1 = Namer.scan_with_model ~jobs:1 m files in
  let r4 = Namer.scan_with_model ~jobs:4 ~cap_domains:false m files in
  check_bool "jobs 1 = jobs 4" true (r1.Namer.sr_reports = r4.Namer.sr_reports);
  let o = Oracles.model_agreement t m files in
  check_bool ("build agrees with model scan: " ^ o.Oracles.o_detail) true
    o.Oracles.o_pass

(* ---------------- triage ---------------- *)

let test_bucket_stable_across_details () =
  let b1 = Triage.bucket ~lang:Corpus.Python ~exn_text:"Failure(\"parse error at line 123\")" in
  let b2 = Triage.bucket ~lang:Corpus.Python ~exn_text:"Failure(\"parse  error at\nline 7\")" in
  let b3 = Triage.bucket ~lang:Corpus.Java ~exn_text:"Failure(\"parse error at line 123\")" in
  let b4 = Triage.bucket ~lang:Corpus.Python ~exn_text:"Stack overflow" in
  check_string "same defect, same bucket" b1 b2;
  check_bool "language separates buckets" true (b1 <> b3);
  check_bool "different defect, different bucket" true (b1 <> b4);
  check_int "bucket id is 12 hex chars" 12 (String.length b1)

let test_minimizer_shrinks () =
  let filler = List.init 60 (fun i -> Printf.sprintf "line_%03d = %d" i i) in
  let src = String.concat "\n" (filler @ [ "trigger_BOOM_here = 1" ] @ filler) in
  let still_crashes candidate = contains candidate "BOOM" in
  let min = Triage.minimize ~still_crashes src in
  check_bool "minimized still crashes" true (still_crashes min);
  check_bool
    (Printf.sprintf "minimized to a fraction (%d of %d bytes)" (String.length min)
       (String.length src))
    true
    (String.length min * 10 < String.length src)

let test_crash_corpus_write () =
  let out = temp_dir "namer_fuzz_crashes" in
  let crash =
    {
      Triage.c_lang = Corpus.Python;
      c_exn = "Stack overflow";
      c_bucket = Triage.bucket ~lang:Corpus.Python ~exn_text:"Stack overflow";
      c_input = "bomb = ((((1))))\n";
      c_desc = "iter 3: append 4-deep nesting bomb";
      c_iter = 3;
    }
  in
  match Triage.write ~out crash with
  | None -> Alcotest.fail "write returned None"
  | Some path ->
      check_bool "reproducer written under its bucket" true
        (Sys.file_exists path
        && Filename.basename (Filename.dirname path) = crash.Triage.c_bucket);
      check_bool "info sidecar written" true
        (Sys.file_exists (Filename.remove_extension path ^ ".info"))

(* ---------------- the campaign driver ---------------- *)

let test_campaign_smoke () =
  let cfg =
    {
      (Fuzz.default_config Corpus.Python) with
      Fuzz.f_seed = 9;
      f_iters = 12;
      f_repos = 3;
      (* deep enough to exercise the bomb path, shallow enough to parse *)
      f_bomb_depth = 10_000;
    }
  in
  let s = Fuzz.run cfg in
  check_int "every iteration scanned a mutant" 12 s.Fuzz.s_mutants;
  check_int "no crashes" 0 (List.length s.Fuzz.s_crashes);
  check_bool "campaign green" true (Fuzz.ok s)

let suite =
  [
    Alcotest.test_case "mutations are seed-deterministic" `Quick test_mutation_deterministic;
    Alcotest.test_case "mutation palette fully drawn" `Quick test_mutation_covers_palette;
    Alcotest.test_case "nesting bomb degrades to a skipped file" `Slow
      test_bomb_becomes_skipped_file;
    Alcotest.test_case "injected parse fault skips one file" `Quick
      test_injected_parse_fault_skips_one_file;
    Alcotest.test_case "corrupt cache entry self-heals" `Quick
      test_corrupt_cache_entry_self_heals;
    Alcotest.test_case "poisoned pool task is contained" `Quick
      test_pool_task_fault_contained;
    Alcotest.test_case "metamorphic oracles pass" `Slow test_oracles_pass;
    Alcotest.test_case "build / model-scan differential (jobs 1 and 4)" `Slow
      test_model_scan_differential;
    Alcotest.test_case "crash buckets are stable" `Quick test_bucket_stable_across_details;
    Alcotest.test_case "minimizer shrinks while preserving the bucket" `Quick
      test_minimizer_shrinks;
    Alcotest.test_case "crash corpus layout" `Quick test_crash_corpus_write;
    Alcotest.test_case "campaign smoke (12 iterations)" `Slow test_campaign_smoke;
  ]
