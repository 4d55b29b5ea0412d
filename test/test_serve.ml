(* The serve daemon: protocol round-trips, concurrent requests answering
   byte-identically, model hot-swap atomicity under traffic, timeout and
   backpressure paths, fault-injection degradation, and graceful drain —
   all against real daemons on ephemeral TCP ports, one per test. *)

module Namer = Namer_core.Namer
module Corpus = Namer_corpus.Corpus
module Miner = Namer_mining.Miner
module Serve = Namer_serve.Serve
module Client = Namer_serve.Client
module Fault = Namer_util.Fault
module J = Namer_util.Json

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_string = Alcotest.(check string)

let temp_dir prefix =
  let d = Filename.temp_file prefix "" in
  Sys.remove d;
  Sys.mkdir d 0o700;
  d

let namer_cfg =
  {
    Namer.default_config with
    use_classifier = false;
    miner = { Miner.default_config with Miner.min_support = 5; min_path_freq = 3 };
  }

let build_model ~seed ~path =
  let corpus =
    Corpus.generate
      {
        (Corpus.default_config Corpus.Python) with
        Corpus.n_repos = 6;
        files_per_repo = (3, 4);
        seed;
      }
  in
  let t = Namer.build namer_cfg corpus in
  (corpus, Namer.save_model t ~path)

(* One corpus on disk and two distinct model snapshots, built once. *)
let env =
  lazy
    (let dir = temp_dir "test_serve_corpus" in
     let model_a = Filename.temp_file "test_serve_a" ".nmdl" in
     let model_b = Filename.temp_file "test_serve_b" ".nmdl" in
     let corpus, m_a = build_model ~seed:11 ~path:model_a in
     let _, m_b = build_model ~seed:23 ~path:model_b in
     List.iter
       (fun (f : Corpus.file) ->
         let path = Filename.concat dir f.Corpus.path in
         Namer_util.Fs.mkdir_p (Filename.dirname path);
         let oc = open_out_bin path in
         output_string oc f.Corpus.source;
         close_out oc)
       corpus.Corpus.files;
     (dir, model_a, m_a.Namer.m_hash, model_b, m_b.Namer.m_hash))

let with_daemon ?(jobs = 1) ?cache_dir ?(max_concurrent = 64) ?(timeout_ms = 30_000)
    ~model f =
  let sv =
    Serve.create
      {
        (Serve.default_config ~model_path:model (Serve.Tcp ("127.0.0.1", 0))) with
        Serve.sv_jobs = jobs;
        sv_cache_dir = cache_dir;
        sv_max_concurrent = max_concurrent;
        sv_timeout_ms = timeout_ms;
      }
  in
  let stats = ref None in
  let th = Thread.create (fun () -> stats := Some (Serve.serve_forever sv)) () in
  let target =
    match Serve.endpoint sv with
    | Serve.Tcp (h, p) -> Client.Tcp (h, p)
    | Serve.Unix_path p -> Client.Unix_path p
  in
  let result =
    Fun.protect
      ~finally:(fun () ->
        Serve.request_stop sv;
        Thread.join th)
      (fun () -> f sv target)
  in
  (result, !stats)

let req conn obj =
  match Client.request conn obj with
  | Ok j -> j
  | Error e -> Alcotest.failf "request failed: %s" e

let field name = function J.Obj fs -> List.assoc_opt name fs | _ -> None
let str name j = match field name j with Some (J.String s) -> s | _ -> ""
let int_f name j = match field name j with Some (J.Int i) -> i | _ -> -1
let is_ok j = field "ok" j = Some (J.Bool true)

let scan_payload dir = J.Obj [ ("op", J.String "scan"); ("dir", J.String dir) ]

(* -------- protocol round trips -------- *)

let test_status () =
  let dir, model_a, hash_a, _, _ = Lazy.force env in
  ignore dir;
  ignore
    (with_daemon ~model:model_a (fun sv target ->
         check_string "create sees the model hash" hash_a (Serve.model_hash sv);
         let c = Client.connect ~retry_for:5.0 target in
         let s = req c (J.Obj [ ("op", J.String "status") ]) in
         Client.close c;
         check_bool "status ok" true (is_ok s);
         check_string "status names the model" hash_a (str "model" s);
         check_string "status names the language" "Python" (str "lang" s);
         check_bool "status counts patterns" true (int_f "patterns" s > 0);
         check_int "no scans yet" 0 (int_f "scans" s)))

let test_malformed_request () =
  let _, model_a, _, _, _ = Lazy.force env in
  ignore
    (with_daemon ~model:model_a (fun _ target ->
         let c = Client.connect ~retry_for:5.0 target in
         (match Client.request_raw c "{this is not json" with
         | Ok line -> (
             match J.parse line with
             | Ok j ->
                 check_bool "malformed -> ok:false" false (is_ok j);
                 check_string "malformed -> bad_request" "bad_request" (str "code" j)
             | Error e -> Alcotest.failf "error response not JSON: %s" e)
         | Error e -> Alcotest.failf "no response to malformed request: %s" e);
         (* the connection survives a bad request *)
         let s = req c (J.Obj [ ("op", J.String "status") ]) in
         Client.close c;
         check_bool "connection still usable" true (is_ok s)))

let test_unknown_op () =
  let _, model_a, _, _, _ = Lazy.force env in
  ignore
    (with_daemon ~model:model_a (fun _ target ->
         let c = Client.connect ~retry_for:5.0 target in
         let r = req c (J.Obj [ ("op", J.String "frobnicate") ]) in
         Client.close c;
         check_bool "unknown op refused" false (is_ok r);
         check_string "unknown op -> bad_request" "bad_request" (str "code" r)))

(* -------- scan correctness -------- *)

let test_scan_matches_direct () =
  let dir, model_a, hash_a, _, _ = Lazy.force env in
  ignore
    (with_daemon ~model:model_a (fun _ target ->
         let c = Client.connect ~retry_for:5.0 target in
         let r = req c (scan_payload dir) in
         Client.close c;
         check_bool "scan ok" true (is_ok r);
         check_string "scan names its model" hash_a (str "model" r);
         let m = Namer.load_model ~path:model_a in
         let read p =
           let ic = open_in_bin p in
           let s = really_input_string ic (in_channel_length ic) in
           close_in ic;
           s
         in
         let rec walk d =
           Sys.readdir d |> Array.to_list |> List.sort compare
           |> List.concat_map (fun e ->
                  let p = Filename.concat d e in
                  if Sys.is_directory p then walk p else [ p ])
         in
         let files =
           walk dir
           |> List.filter (fun p -> Filename.check_suffix p ".py")
           |> List.map (fun path -> { Corpus.repo = dir; path; source = read path })
         in
         let direct = Namer.scan_with_model ~jobs:1 m files in
         check_int "same file count" (List.length files) (int_f "files" r);
         check_int "same violation count"
           (Array.length direct.Namer.sr_reports)
           (int_f "violations" r);
         check_bool "some violations to compare" true (int_f "violations" r > 0);
         let served =
           match field "reports" r with
           | Some (J.List rs) ->
               List.map
                 (fun rep ->
                   Printf.sprintf "%s:%d:%s:%s:%s" (str "file" rep) (int_f "line" rep)
                     (str "found" rep) (str "suggested" rep) (str "pattern" rep))
                 rs
           | _ -> []
         in
         let expected =
           Array.to_list direct.Namer.sr_reports
           |> List.map (fun (x : Namer.report) ->
                  Printf.sprintf "%s:%d:%s:%s:%s" x.Namer.r_file x.Namer.r_line
                    x.Namer.r_found x.Namer.r_suggested x.Namer.r_kind)
         in
         check_string "reports identical to a direct scan_with_model"
           (String.concat "\n" expected) (String.concat "\n" served)))

(* Inline sources no model in this process was trained on: another seed's
   files, and names no generator produces. *)
let novel_payload () =
  let files =
    (Corpus.generate
       {
         (Corpus.default_config Corpus.Python) with
         Corpus.n_repos = 2;
         files_per_repo = (3, 3);
         seed = 977;
       })
      .Corpus.files
  in
  let source path source = J.Obj [ ("path", J.String path); ("source", J.String source) ] in
  J.Obj
    [
      ("op", J.String "scan");
      ( "sources",
        J.List
          (source "novel/zq.py"
             "class Qzx(object):\n    def __init__(self, wobbleFrob):\n        self.wobble_frob = wobbleFrob\n"
          :: List.map (fun (f : Corpus.file) -> source f.Corpus.path f.Corpus.source) files) );
    ]

let interner_of status =
  match field "interner" status with
  | Some obj -> List.map (fun k -> int_f k obj) [ "prefixes"; "ends"; "paths" ]
  | None -> []

let test_concurrent_requests_identical () =
  let dir, model_a, _, _, _ = Lazy.force env in
  ignore
    (with_daemon ~model:model_a
       ~cache_dir:(temp_dir "test_serve_cache")
       (fun _ target ->
         let status () =
           let c = Client.connect ~retry_for:5.0 target in
           let s = req c (J.Obj [ ("op", J.String "status") ]) in
           Client.close c;
           interner_of s
         in
         let before = status () in
         check_int "status reports the interner" 3 (List.length before);
         List.iter
           (fun payload ->
             let spec =
               {
                 (Client.Load.default_spec ~payload) with
                 Client.Load.l_clients = 4;
                 l_requests = 16;
               }
             in
             let r = Client.Load.run target spec in
             check_int "all requests answered" 16 r.Client.Load.lr_sent;
             check_int "all requests ok" 16 r.Client.Load.lr_ok;
             check_int "no failures" 0 r.Client.Load.lr_failed;
             check_bool "concurrent responses byte-identical" true
               r.Client.Load.lr_responses_identical)
           [ scan_payload dir; novel_payload () ];
         check_bool "novel files leave the interner as it was" true (status () = before)))

let test_pooled_daemon_matches_sequential () =
  let dir, model_a, _, _, _ = Lazy.force env in
  (* jobs=2 forces a resident pool even on a 1-core machine; its scans
     must be byte-identical to the jobs=1 daemon's *)
  let (seq_fp, _), _ =
    with_daemon ~jobs:1 ~model:model_a (fun _ target ->
        let c = Client.connect ~retry_for:5.0 target in
        let r = req c (scan_payload dir) in
        Client.close c;
        (Client.scan_fingerprint r, is_ok r))
  in
  ignore
    (with_daemon ~jobs:2 ~model:model_a (fun _ target ->
         let spec =
           {
             (Client.Load.default_spec ~payload:(scan_payload dir)) with
             Client.Load.l_clients = 3;
             l_requests = 9;
           }
         in
         let r = Client.Load.run target spec in
         check_int "pooled daemon: all ok" 9 r.Client.Load.lr_ok;
         check_bool "pooled responses identical" true
           r.Client.Load.lr_responses_identical;
         let c = Client.connect ~retry_for:5.0 target in
         let one = req c (scan_payload dir) in
         Client.close c;
         check_string "pooled scan == sequential scan" seq_fp
           (Client.scan_fingerprint one)))

let test_cache_shared_across_requests () =
  let dir, model_a, _, _, _ = Lazy.force env in
  ignore
    (with_daemon ~model:model_a
       ~cache_dir:(temp_dir "test_serve_cache2")
       (fun _ target ->
         let c = Client.connect ~retry_for:5.0 target in
         let cold = req c (scan_payload dir) in
         let warm = req c (scan_payload dir) in
         let status = req c (J.Obj [ ("op", J.String "status") ]) in
         Client.close c;
         let cache = Option.value ~default:J.Null (field "cache" status) in
         let rec digests d =
           Sys.readdir d |> Array.to_list
           |> List.concat_map (fun e ->
                  let p = Filename.concat d e in
                  if Sys.is_directory p then digests p else [ Digest.file p ])
         in
         let distinct = List.length (List.sort_uniq compare (digests dir)) in
         check_int "status indexes one entry per distinct source" distinct
           (int_f "entries" cache);
         check_bool "status reports the pack's size" true (int_f "pack_bytes" cache > 0);
         check_int "cold scan misses everything" (int_f "files" cold)
           (int_f "cache_misses" cold);
         check_int "warm scan hits everything" (int_f "files" warm)
           (int_f "cache_hits" warm);
         check_int "warm scan misses nothing" 0 (int_f "cache_misses" warm);
         check_string "cold and warm reports identical"
           (Client.scan_fingerprint cold) (Client.scan_fingerprint warm)))

(* -------- request framing -------- *)

(* Newline-delimited requests may arrive in any split: byte by byte, or
   several in one write.  Each must be answered exactly as when sent
   whole on its own connection. *)
let test_split_and_pipelined_requests () =
  let dir, model_a, _, _, _ = Lazy.force env in
  let lines =
    [
      J.to_string (scan_payload dir);
      J.to_string (J.Obj [ ("op", J.String "frobnicate") ]);
      "{this is not json";
    ]
  in
  ignore
    (with_daemon ~model:model_a (fun _ target ->
         let host, port =
           match target with
           | Client.Tcp (h, p) -> (h, p)
           | Client.Unix_path _ -> Alcotest.fail "expected tcp target"
         in
         let connect () =
           let fd = Unix.socket ~cloexec:true Unix.PF_INET Unix.SOCK_STREAM 0 in
           Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_of_string host, port));
           Unix.setsockopt fd Unix.TCP_NODELAY true;
           (* a lost request fails the test instead of hanging it *)
           Unix.setsockopt_float fd Unix.SO_RCVTIMEO 10.0;
           (fd, Unix.in_channel_of_descr fd)
         in
         let send fd s = ignore (Unix.write_substring fd s 0 (String.length s)) in
         let whole =
           List.map
             (fun line ->
               let fd, ic = connect () in
               send fd (line ^ "\n");
               let r = input_line ic in
               Unix.close fd;
               r)
             lines
         in
         let fd, ic = connect () in
         let first = List.hd lines ^ "\n" in
         String.iter (fun ch -> send fd (String.make 1 ch)) first;
         check_string "a request in 1-byte writes" (List.hd whole) (input_line ic);
         send fd (String.concat "" (List.map (fun l -> l ^ "\n") lines));
         List.iteri
           (fun i expected ->
             check_string (Printf.sprintf "pipelined request %d" i) expected (input_line ic))
           whole;
         Unix.close fd))

(* -------- hot swap -------- *)

let test_hot_swap_under_traffic () =
  let dir, model_a, hash_a, model_b, hash_b = Lazy.force env in
  ignore
    (with_daemon ~model:model_a (fun sv target ->
         let spec =
           {
             (Client.Load.default_spec ~payload:(scan_payload dir)) with
             Client.Load.l_clients = 4;
             l_requests = 20;
             l_reload_at = Some 5;
             l_reload_payload =
               J.Obj [ ("op", J.String "reload"); ("model", J.String model_b) ];
           }
         in
         let r = Client.Load.run target spec in
         check_int "no failures across the swap" 0 r.Client.Load.lr_failed;
         check_bool "reload succeeded" true r.Client.Load.lr_reload_ok;
         (* atomicity: every response names exactly one model, and only
            the old or the new one ever appears *)
         List.iter
           (fun h ->
             check_bool
               (Printf.sprintf "response model %s is old or new" h)
               true
               (h = hash_a || h = hash_b))
           r.Client.Load.lr_models_seen;
         check_bool "the new model served requests" true
           (List.mem hash_b r.Client.Load.lr_models_seen);
         check_string "daemon settled on the new model" hash_b (Serve.model_hash sv)))

let test_reload_bad_snapshot_keeps_old () =
  let _, model_a, hash_a, _, _ = Lazy.force env in
  ignore
    (with_daemon ~model:model_a (fun sv target ->
         let junk = Filename.temp_file "test_serve_junk" ".nmdl" in
         let oc = open_out junk in
         output_string oc "not a snapshot";
         close_out oc;
         let c = Client.connect ~retry_for:5.0 target in
         let r =
           req c (J.Obj [ ("op", J.String "reload"); ("model", J.String junk) ])
         in
         Client.close c;
         Sys.remove junk;
         check_bool "bad snapshot refused" false (is_ok r);
         check_string "old model keeps serving" hash_a (Serve.model_hash sv)))

(* -------- timeout and backpressure -------- *)

let test_partial_request_times_out () =
  let _, model_a, _, _, _ = Lazy.force env in
  ignore
    (with_daemon ~timeout_ms:300 ~model:model_a (fun _ target ->
         let host, port =
           match target with
           | Client.Tcp (h, p) -> (h, p)
           | Client.Unix_path _ -> Alcotest.fail "expected tcp target"
         in
         let fd = Unix.socket ~cloexec:true Unix.PF_INET Unix.SOCK_STREAM 0 in
         Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_of_string host, port));
         (* half a request, then silence *)
         ignore (Unix.write_substring fd "{\"op\":\"sta" 0 10);
         let buf = Bytes.create 4096 in
         let n = Unix.read fd buf 0 4096 in
         let line = Bytes.sub_string buf 0 n in
         (match J.parse (String.trim line) with
         | Ok j ->
             check_bool "timeout -> ok:false" false (is_ok j);
             check_string "timeout code" "timeout" (str "code" j)
         | Error e -> Alcotest.failf "timeout response not JSON (%S): %s" line e);
         (* the daemon hangs up after answering *)
         check_int "connection closed after timeout" 0 (Unix.read fd buf 0 4096);
         Unix.close fd))

let test_backpressure_overloaded () =
  let dir, model_a, _, _, _ = Lazy.force env in
  ignore
    (with_daemon ~max_concurrent:1 ~model:model_a (fun _ target ->
         Fault.reset ();
         (* first admitted scan sleeps 500 ms inside its admission slot *)
         Fault.arm ~times:1 "serve.slow";
         let slow_result = ref None in
         let slow =
           Thread.create
             (fun () ->
               let c = Client.connect ~retry_for:5.0 target in
               slow_result := Some (req c (scan_payload dir));
               Client.close c)
             ()
         in
         Thread.delay 0.15;
         let c = Client.connect ~retry_for:5.0 target in
         let refused = req c (scan_payload dir) in
         check_bool "second scan refused" false (is_ok refused);
         check_string "refused with overloaded" "overloaded" (str "code" refused);
         Thread.join slow;
         (match !slow_result with
         | Some r -> check_bool "slow scan still completed" true (is_ok r)
         | None -> Alcotest.fail "slow scan never answered");
         (* capacity freed: the next scan is admitted again *)
         let ok_again = req c (scan_payload dir) in
         Client.close c;
         Fault.reset ();
         check_bool "scan admitted after the slot freed" true (is_ok ok_again)))

(* -------- fault isolation and drain -------- *)

let test_request_fault_degrades () =
  let _, model_a, _, _, _ = Lazy.force env in
  ignore
    (with_daemon ~model:model_a (fun _ target ->
         Fault.reset ();
         Fault.arm ~times:1 "serve.request";
         let c = Client.connect ~retry_for:5.0 target in
         let r = req c (J.Obj [ ("op", J.String "status") ]) in
         check_bool "injected fault -> ok:false" false (is_ok r);
         check_string "injected fault -> degraded" "degraded" (str "code" r);
         (* the daemon and the connection survive the poisoned request *)
         let s = req c (J.Obj [ ("op", J.String "status") ]) in
         Client.close c;
         Fault.reset ();
         check_bool "daemon stays up" true (is_ok s);
         check_int "degraded counted" 1 (int_f "degraded" s)))

let test_shutdown_drains () =
  let dir, model_a, _, _, _ = Lazy.force env in
  let (), stats =
    with_daemon ~model:model_a (fun _ target ->
        let c = Client.connect ~retry_for:5.0 target in
        let scan = req c (scan_payload dir) in
        check_bool "scan before shutdown" true (is_ok scan);
        let r = req c (J.Obj [ ("op", J.String "shutdown") ]) in
        check_bool "shutdown acknowledged" true (is_ok r);
        check_bool "shutdown says draining" true
          (field "draining" r = Some (J.Bool true));
        Client.close c)
  in
  match stats with
  | None -> Alcotest.fail "serve_forever did not return after shutdown"
  | Some (s : Serve.stats) ->
      check_int "both requests in the lifetime stats" 2 s.Serve.st_requests;
      check_int "one scan in the lifetime stats" 1 s.Serve.st_scans;
      check_bool "latency percentiles recorded" true (s.Serve.st_p99_ms > 0.0)

let suite =
  [
    ("serve: status round trip", `Quick, test_status);
    ("serve: malformed request -> structured error", `Quick, test_malformed_request);
    ("serve: unknown op -> bad_request", `Quick, test_unknown_op);
    ("serve: scan == direct scan_with_model", `Quick, test_scan_matches_direct);
    ( "serve: concurrent requests byte-identical",
      `Quick,
      test_concurrent_requests_identical );
    ( "serve: pooled daemon == sequential daemon",
      `Quick,
      test_pooled_daemon_matches_sequential );
    ("serve: cache shared across requests", `Quick, test_cache_shared_across_requests);
    ( "serve: split and pipelined requests answer as whole ones",
      `Quick,
      test_split_and_pipelined_requests );
    ("serve: hot swap under traffic", `Quick, test_hot_swap_under_traffic);
    ("serve: bad reload keeps old model", `Quick, test_reload_bad_snapshot_keeps_old);
    ("serve: partial request times out", `Quick, test_partial_request_times_out);
    ("serve: backpressure -> overloaded", `Quick, test_backpressure_overloaded);
    ("serve: injected fault -> degraded", `Quick, test_request_fault_degrades);
    ("serve: shutdown drains and reports stats", `Quick, test_shutdown_drains);
  ]
