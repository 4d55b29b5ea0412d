(* Tests for Namer_obs: ledger crash-safety (torn-line recovery, atomic
   concurrent appends), OpenMetrics rendering/validation (exposition
   format, label escaping), telemetry's structured event log with its
   trace/span context propagated across the domain pool, and the ledger trend
   table/regression gate behind [namer report]. *)

module Ledger = Namer_obs.Ledger
module Openmetrics = Namer_obs.Openmetrics
module Telemetry = Namer_telemetry.Telemetry
module Trend = Namer_obs.Trend
module J = Namer_util.Json

let temp_counter = ref 0

let fresh_dir () =
  incr temp_counter;
  let dir =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "namer-obs-test-%d-%d" (Unix.getpid ()) !temp_counter)
  in
  (try Sys.mkdir dir 0o755 with Sys_error _ -> ());
  dir

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let record ?(cmd = "scan") i =
  J.Obj
    [
      ("schema", J.Int Ledger.schema_version);
      ("ts", J.Float (1000.0 +. float_of_int i));
      ("cmd", J.String cmd);
      ("i", J.Int i);
    ]

(* ---------------- ledger ---------------- *)

let test_ledger_roundtrip () =
  let dir = fresh_dir () in
  Alcotest.(check int) "missing file is empty" 0
    (List.length (Ledger.read ~dir).Ledger.records);
  for i = 1 to 3 do
    Ledger.append ~dir (record i)
  done;
  let { Ledger.records; dropped } = Ledger.read ~dir in
  Alcotest.(check int) "three records" 3 (List.length records);
  Alcotest.(check int) "none dropped" 0 dropped;
  (* file order preserved *)
  List.iteri
    (fun k r ->
      match r with
      | J.Obj fields ->
          Alcotest.(check bool) "ordered" true (List.assoc "i" fields = J.Int (k + 1))
      | _ -> Alcotest.fail "record not an object")
    records

let test_ledger_torn_line_recovery () =
  let dir = fresh_dir () in
  Ledger.append ~dir (record 1);
  Ledger.append ~dir (record 2);
  (* simulate a crash mid-append: a partial record with no newline *)
  let oc =
    open_out_gen [ Open_append; Open_binary ] 0o644 (Ledger.path ~dir)
  in
  output_string oc "{\"schema\":1,\"ts\":3000.0,\"cmd\":\"sc";
  close_out oc;
  let { Ledger.records; dropped } = Ledger.read ~dir in
  Alcotest.(check int) "intact records survive" 2 (List.length records);
  Alcotest.(check int) "torn fragment dropped" 1 dropped;
  (* the next append must land on a fresh line and stay parseable *)
  Ledger.append ~dir (record 3);
  let { Ledger.records; dropped } = Ledger.read ~dir in
  Alcotest.(check int) "append after torn write recovers" 3 (List.length records);
  Alcotest.(check int) "only the torn fragment lost" 1 dropped

let test_ledger_corrupt_middle_line () =
  let dir = fresh_dir () in
  Ledger.append ~dir (record 1);
  let oc =
    open_out_gen [ Open_append; Open_binary ] 0o644 (Ledger.path ~dir)
  in
  output_string oc "not json at all\n";
  close_out oc;
  Ledger.append ~dir (record 2);
  let { Ledger.records; dropped } = Ledger.read ~dir in
  Alcotest.(check int) "parseable records kept" 2 (List.length records);
  Alcotest.(check int) "corrupt line dropped" 1 dropped

let test_ledger_concurrent_appends () =
  (* two child processes hammering the same ledger: O_APPEND single-write
     atomicity means every line still parses — no byte interleaving *)
  let dir = fresh_dir () in
  let per_child = 25 in
  let child tag =
    match Unix.fork () with
    | 0 ->
        for i = 1 to per_child do
          (* bulk the record up so a torn/interleaved write would be
             visible even with kernel write coalescing *)
          Ledger.append ~dir
            (J.Obj
               [
                 ("schema", J.Int Ledger.schema_version);
                 ("ts", J.Float (float_of_int i));
                 ("cmd", J.String tag);
                 ("pad", J.String (String.make 512 (String.get tag 0)));
               ])
        done;
        Stdlib.exit 0
    | pid -> pid
  in
  let pids = [ child "aaaa"; child "bbbb" ] in
  List.iter
    (fun pid ->
      match Unix.waitpid [] pid with
      | _, Unix.WEXITED 0 -> ()
      | _ -> Alcotest.fail "appender child failed")
    pids;
  let { Ledger.records; dropped } = Ledger.read ~dir in
  Alcotest.(check int) "all records landed" (2 * per_child) (List.length records);
  Alcotest.(check int) "no interleaved garbage" 0 dropped

let test_source_digest () =
  let d1 = Ledger.source_digest [ ("a.py", "x = 1"); ("b.py", "y = 2") ] in
  let d2 = Ledger.source_digest [ ("b.py", "y = 2"); ("a.py", "x = 1") ] in
  let d3 = Ledger.source_digest [ ("a.py", "x = 9"); ("b.py", "y = 2") ] in
  Alcotest.(check string) "order independent" d1 d2;
  Alcotest.(check bool) "content sensitive" true (d1 <> d3);
  let lazily = List.map (fun (p, src) -> (p, fun () -> src)) in
  Alcotest.(check string) "lazily loaded sources digest the same" d1
    (Ledger.source_digest_refs (lazily [ ("a.py", "x = 1"); ("b.py", "y = 2") ]));
  (* a file the scan skipped (a dangling link) still digests *)
  let gone () = raise (Sys_error "b.py: No such file or directory") in
  Alcotest.(check bool) "an unreadable file digests apart" true
    (Ledger.source_digest_refs (("b.py", gone) :: lazily [ ("a.py", "x = 1") ]) <> d1)

(* ---------------- OpenMetrics ---------------- *)

let sample_metrics () =
  [
    Openmetrics.Counter
      { name = "namer_scan_files"; help = "files scanned"; labels = []; value = 42.0 };
    Openmetrics.Gauge
      {
        name = "namer_stage_wall_ms";
        help = "per-stage wall";
        labels = [ ("stage", "pair-mining") ];
        value = 12.5;
      };
    Openmetrics.Gauge
      {
        name = "namer_stage_wall_ms";
        help = "per-stage wall";
        labels = [ ("stage", "scan") ];
        value = 3.25;
      };
    Openmetrics.Summary
      {
        name = "namer_parse_ms";
        help = "per-file parse latency";
        quantiles = [ (0.5, 1.0); (0.9, 2.0); (0.99, 4.0) ];
        sum = 123.0;
        count = 100;
      };
  ]

let test_openmetrics_render_valid () =
  let text = Openmetrics.render (sample_metrics ()) in
  (match Openmetrics.validate text with
  | Ok () -> ()
  | Error e -> Alcotest.fail ("render should validate: " ^ e ^ "\n" ^ text));
  let has needle =
    let n = String.length needle and m = String.length text in
    let rec go i = i + n <= m && (String.sub text i n = needle || go (i + 1)) in
    go 0
  in
  Alcotest.(check bool) "counter gets _total" true (has "namer_scan_files_total 42.0");
  Alcotest.(check bool) "one TYPE line per family" true
    (has "# TYPE namer_stage_wall_ms gauge");
  Alcotest.(check bool) "summary quantiles" true
    (has "namer_parse_ms{quantile=\"0.5\"} 1.0");
  Alcotest.(check bool) "summary count" true (has "namer_parse_ms_count 100.0");
  let lines = String.split_on_char '\n' (String.trim text) in
  Alcotest.(check string) "ends with EOF" "# EOF" (List.nth lines (List.length lines - 1))

let test_openmetrics_label_escaping () =
  let metrics =
    [
      Openmetrics.Gauge
        {
          name = "namer_weird";
          help = "label escape";
          labels = [ ("file", "a\\b\"c\nd") ];
          value = 1.0;
        };
    ]
  in
  let text = Openmetrics.render metrics in
  (match Openmetrics.validate text with
  | Ok () -> ()
  | Error e -> Alcotest.fail ("escaped labels should validate: " ^ e));
  let has needle =
    let n = String.length needle and m = String.length text in
    let rec go i = i + n <= m && (String.sub text i n = needle || go (i + 1)) in
    go 0
  in
  Alcotest.(check bool) "backslash, quote and newline escaped" true
    (has "{file=\"a\\\\b\\\"c\\nd\"}")

let test_openmetrics_name_sanitization () =
  let m =
    Openmetrics.Counter
      { name = "scan.files-skipped"; help = "h"; labels = []; value = 1.0 }
  in
  Alcotest.(check string) "dots and dashes become underscores"
    "scan_files_skipped" (Openmetrics.metric_name m);
  match Openmetrics.validate (Openmetrics.render [ m ]) with
  | Ok () -> ()
  | Error e -> Alcotest.fail e

let test_openmetrics_validate_rejects () =
  let reject what text =
    match Openmetrics.validate text with
    | Ok () -> Alcotest.fail (what ^ ": should be rejected")
    | Error _ -> ()
  in
  reject "missing EOF" "# HELP a b\n# TYPE a counter\na_total 1.0\n";
  reject "EOF not last" "# EOF\na 1.0\n";
  reject "bad value" "a one\n# EOF\n";
  reject "unterminated label" "a{b=\"x 1.0\n# EOF\n";
  reject "blank line" "a 1.0\n\n# EOF\n"

let test_openmetrics_from_registry () =
  let module T = Namer_telemetry.Telemetry in
  T.reset ();
  T.set_sink T.Memory;
  Fun.protect
    ~finally:(fun () ->
      T.set_sink T.Null;
      T.reset ())
    (fun () ->
      T.count ~by:7 "scan.files_skipped";
      T.observe "parse_ms_per_file" 1.5;
      T.observe "parse_ms_per_file" 2.5;
      T.with_span "pair-mining" (fun () -> ());
      match Openmetrics.of_metrics_json (T.metrics_json ()) with
      | Error e -> Alcotest.fail e
      | Ok metrics ->
          let text = Openmetrics.render metrics in
          (match Openmetrics.validate text with
          | Ok () -> ()
          | Error e -> Alcotest.fail ("registry exposition invalid: " ^ e));
          let has needle =
            let n = String.length needle and m = String.length text in
            let rec go i = i + n <= m && (String.sub text i n = needle || go (i + 1)) in
            go 0
          in
          Alcotest.(check bool) "counter mapped+sanitized" true
            (has "namer_scan_files_skipped_total 7.0");
          Alcotest.(check bool) "histogram mapped to summary" true
            (has "namer_parse_ms_per_file{quantile=\"0.5\"}");
          Alcotest.(check bool) "stage gauge labeled" true
            (has "namer_stage_wall_ms{stage=\"pair-mining\"}"))

(* ---------------- events ---------------- *)

let with_event_log ?min_level f =
  let dir = fresh_dir () in
  let path = Filename.concat dir "events.jsonl" in
  Telemetry.open_log ?min_level (`File path);
  Fun.protect ~finally:Telemetry.close_log f;
  let lines =
    read_file path |> String.split_on_char '\n'
    |> List.filter (fun l -> String.trim l <> "")
  in
  List.map
    (fun l ->
      match J.parse l with
      | Ok (J.Obj fields) -> fields
      | Ok _ -> Alcotest.fail "event is not a JSON object"
      | Error e -> Alcotest.fail ("event line is not JSON: " ^ e))
    lines

let field name fields =
  match List.assoc_opt name fields with
  | Some v -> v
  | None -> Alcotest.fail ("event missing field " ^ name)

let str = function J.String s -> s | _ -> Alcotest.fail "expected string"

let test_events_levels_and_shape () =
  let events =
    with_event_log ~min_level:Telemetry.Info (fun () ->
        Telemetry.emit Telemetry.Debug "below-threshold";
        Telemetry.emit ~fields:[ ("n", J.Int 3) ] Telemetry.Info "kept";
        Telemetry.emit Telemetry.Error "also-kept")
  in
  Alcotest.(check int) "debug filtered by min level" 2 (List.length events);
  let first = List.hd events in
  Alcotest.(check string) "event name" "kept" (str (field "event" first));
  Alcotest.(check string) "level" "info" (str (field "level" first));
  Alcotest.(check bool) "custom field" true (field "n" first = J.Int 3);
  (* trace and span ids always present *)
  ignore (str (field "trace" first));
  ignore (str (field "span" first))

let test_events_child_ctx () =
  let events =
    with_event_log (fun () ->
        Telemetry.emit Telemetry.Info "parent";
        Telemetry.with_child_span (fun () -> Telemetry.emit Telemetry.Info "child");
        Telemetry.emit Telemetry.Info "parent-again")
  in
  match events with
  | [ p1; c; p2 ] ->
      Alcotest.(check string) "same trace" (str (field "trace" p1)) (str (field "trace" c));
      Alcotest.(check bool) "child gets fresh span" true
        (str (field "span" c) <> str (field "span" p1));
      Alcotest.(check string) "span restored after with_child_span"
        (str (field "span" p1)) (str (field "span" p2))
  | _ -> Alcotest.fail "expected three events"

(* The [pool.shard] events of an 8-shard map on a real 4-domain pool,
   checked to be one per shard, byte-identical to the sequential map, and
   each under a span of its own within one trace. *)
let check_pool_shard_spans () =
  let module Pool = Namer_parallel.Pool in
  let module Acc = Namer_parallel.Accumulator in
  let xs = List.init 64 (fun i -> i) in
  let f shard = List.map (fun x -> x * x) shard in
  let sequential = Acc.sharded_map ~shards:8 f xs in
  let parallel_result = ref [] in
  let events =
    with_event_log (fun () ->
        Pool.run ~jobs:4 (fun pool ->
            parallel_result := Acc.sharded_map ?pool ~shards:8 f xs))
  in
  Alcotest.(check bool) "reports byte-identical across jobs" true
    (sequential = !parallel_result);
  let shard_events =
    List.filter (fun e -> str (field "event" e) = "pool.shard") events
  in
  Alcotest.(check int) "one event per shard" 8 (List.length shard_events);
  let traces =
    List.sort_uniq compare (List.map (fun e -> str (field "trace" e)) shard_events)
  in
  Alcotest.(check int) "one trace across all domains" 1 (List.length traces);
  let spans =
    List.sort_uniq compare (List.map (fun e -> str (field "span" e)) shard_events)
  in
  Alcotest.(check int) "every task runs under its own span" 8 (List.length spans)

let test_pool_span_propagation () =
  (* acceptance: under jobs=4, with telemetry recording, the event log
     carries distinct per-task span contexts within one trace, and the
     sharded result is identical to the sequential one *)
  Telemetry.set_sink Telemetry.Memory;
  Fun.protect ~finally:(fun () -> Telemetry.set_sink Telemetry.Null) check_pool_shard_spans

(* An open log turns recording on, so each task's span has a registry to
   live in with telemetry off; closing the log switches recording back off. *)
let test_pool_span_propagation_sink_null () =
  Telemetry.set_sink Telemetry.Null;
  check_pool_shard_spans ();
  Alcotest.(check bool) "recording off again after the log closes" false
    (Telemetry.enabled ())

(* ---------------- trend / report ---------------- *)

let trend_record ~ts ~cmd ~wall ~hits ~misses =
  J.Obj
    [
      ("schema", J.Int Ledger.schema_version);
      ("ts", J.Float ts);
      ("cmd", J.String cmd);
      ("git", J.String "deadbee");
      ("wall_s", J.Float (wall /. 1000.0));
      ( "stages",
        J.Obj
          [
            ( "scan",
              J.Obj
                [ ("count", J.Int 1); ("wall_ms", J.Float wall); ("alloc_mb", J.Float 1.0) ]
            );
          ] );
      ("cache", J.Obj [ ("hits", J.Int hits); ("misses", J.Int misses) ]);
      ("skipped", J.Int 0);
      ("peak_rss_kb", J.Int 1024);
    ]

let test_trend_rows_and_table () =
  let records =
    [
      trend_record ~ts:1.0 ~cmd:"scan" ~wall:100.0 ~hits:0 ~misses:10;
      trend_record ~ts:2.0 ~cmd:"scan" ~wall:110.0 ~hits:9 ~misses:1;
      J.Obj [ ("schema", J.Int 999); ("ts", J.Float 3.0); ("cmd", J.String "scan") ];
    ]
  in
  let rows = Trend.rows_of_records records in
  Alcotest.(check int) "unknown schema tolerated" 2 (List.length rows);
  let r2 = List.nth rows 1 in
  (match Trend.hit_rate r2 with
  | Some h -> Alcotest.(check bool) "hit rate computed" true (abs_float (h -. 0.9) < 1e-9)
  | None -> Alcotest.fail "hit rate expected");
  let table = Trend.table rows in
  Alcotest.(check bool) "table mentions the command" true
    (String.length table > 0
    &&
    let rec has i =
      i + 4 <= String.length table && (String.sub table i 4 = "scan" || has (i + 1))
    in
    has 0)

(* A [train --merge] run lands in the ledger as cmd:"merge" with its own
   fields (partials_in, partial hashes).  The trend table must render it
   like any other subcommand, and the extra fields must not confuse the
   row parser or the regression gate. *)
let test_trend_merge_row () =
  let merge_record ~ts ~wall =
    match trend_record ~ts ~cmd:"merge" ~wall ~hits:0 ~misses:0 with
    | J.Obj fields ->
        J.Obj
          (fields
          @ [
              ("partials_in", J.Int 2);
              ("partials", J.List [ J.String "aaaa"; J.String "bbbb" ]);
              ("model_hash", J.String "cccc");
            ])
    | _ -> assert false
  in
  let records =
    [
      merge_record ~ts:1.0 ~wall:100.0;
      merge_record ~ts:2.0 ~wall:104.0;
      trend_record ~ts:3.0 ~cmd:"scan" ~wall:50.0 ~hits:9 ~misses:1;
    ]
  in
  let rows = Trend.rows_of_records records in
  Alcotest.(check int) "merge rows parse alongside scan rows" 3 (List.length rows);
  let table = Trend.table rows in
  let has needle =
    let n = String.length needle and m = String.length table in
    let rec go i = i + n <= m && (String.sub table i n = needle || go (i + 1)) in
    go 0
  in
  Alcotest.(check bool) "table renders the merge command" true (has "merge");
  match Trend.check rows with
  | Ok () -> ()
  | Error msgs ->
      Alcotest.fail ("steady merge history flagged: " ^ String.concat "; " msgs)

let test_trend_check_gate () =
  let steady =
    [
      trend_record ~ts:1.0 ~cmd:"scan" ~wall:100.0 ~hits:8 ~misses:2;
      trend_record ~ts:2.0 ~cmd:"scan" ~wall:105.0 ~hits:8 ~misses:2;
      trend_record ~ts:3.0 ~cmd:"scan" ~wall:102.0 ~hits:8 ~misses:2;
    ]
  in
  (match Trend.check (Trend.rows_of_records steady) with
  | Ok () -> ()
  | Error msgs -> Alcotest.fail ("steady history flagged: " ^ String.concat "; " msgs));
  let regressed =
    steady @ [ trend_record ~ts:4.0 ~cmd:"scan" ~wall:300.0 ~hits:0 ~misses:10 ]
  in
  (match Trend.check (Trend.rows_of_records regressed) with
  | Ok () -> Alcotest.fail "3x wall regression not flagged"
  | Error msgs ->
      Alcotest.(check bool) "wall and hit-rate regressions both reported" true
        (List.length msgs >= 2));
  (* single runs have no history: never flagged *)
  match Trend.check (Trend.rows_of_records [ List.hd steady ]) with
  | Ok () -> ()
  | Error _ -> Alcotest.fail "single run flagged with no baseline"

(* A model scan records scan:model with its per-file children nested
   inside it, and under --jobs the children add up the time of several
   domains: their sum is no measure of the run.  The gate reads the run's
   own wall_s, so a steady wall_s passes however the stage rows move, and
   a 3x wall_s is flagged even when the stage rows stay put. *)
let test_trend_gates_on_wall_s () =
  let record ~ts ~wall_s ~child_ms =
    let stage ms =
      J.Obj [ ("count", J.Int 1); ("wall_ms", J.Float ms); ("alloc_mb", J.Float 1.0) ]
    in
    J.Obj
      [
        ("schema", J.Int Ledger.schema_version);
        ("ts", J.Float ts);
        ("cmd", J.String "scan");
        ("wall_s", J.Float wall_s);
        ("alloc_mb", J.Float 10.0);
        ( "stages",
          J.Obj
            [
              ("scan:model", stage 100.0);
              ("parse", stage child_ms);
              ("analyze", stage child_ms);
            ] );
      ]
  in
  let steady =
    [
      record ~ts:1.0 ~wall_s:0.1 ~child_ms:50.0;
      record ~ts:2.0 ~wall_s:0.1 ~child_ms:50.0;
      (* jobs=4: four domains' time in the children, same wall clock *)
      record ~ts:3.0 ~wall_s:0.1 ~child_ms:200.0;
    ]
  in
  (match Trend.check (Trend.rows_of_records steady) with
  | Ok () -> ()
  | Error msgs -> Alcotest.fail ("steady wall_s flagged: " ^ String.concat "; " msgs));
  let slower = List.filteri (fun i _ -> i < 2) steady @ [ record ~ts:3.0 ~wall_s:0.3 ~child_ms:50.0 ] in
  match Trend.check (Trend.rows_of_records slower) with
  | Ok () -> Alcotest.fail "3x wall_s not flagged"
  | Error msgs -> Alcotest.(check int) "one wall-clock regression" 1 (List.length msgs)

let suite =
  [
    Alcotest.test_case "ledger roundtrip" `Quick test_ledger_roundtrip;
    Alcotest.test_case "ledger torn-line recovery" `Quick test_ledger_torn_line_recovery;
    Alcotest.test_case "ledger corrupt middle line" `Quick test_ledger_corrupt_middle_line;
    Alcotest.test_case "ledger concurrent appends" `Quick test_ledger_concurrent_appends;
    Alcotest.test_case "source digest" `Quick test_source_digest;
    Alcotest.test_case "openmetrics render valid" `Quick test_openmetrics_render_valid;
    Alcotest.test_case "openmetrics label escaping" `Quick test_openmetrics_label_escaping;
    Alcotest.test_case "openmetrics name sanitization" `Quick test_openmetrics_name_sanitization;
    Alcotest.test_case "openmetrics validate rejects" `Quick test_openmetrics_validate_rejects;
    Alcotest.test_case "openmetrics from registry" `Quick test_openmetrics_from_registry;
    Alcotest.test_case "events levels and shape" `Quick test_events_levels_and_shape;
    Alcotest.test_case "events child context" `Quick test_events_child_ctx;
    Alcotest.test_case "pool span propagation" `Quick test_pool_span_propagation;
    Alcotest.test_case "pool span propagation, telemetry sink Null" `Quick
      test_pool_span_propagation_sink_null;
    Alcotest.test_case "trend rows and table" `Quick test_trend_rows_and_table;
    Alcotest.test_case "trend renders merge rows" `Quick test_trend_merge_row;
    Alcotest.test_case "trend check gate" `Quick test_trend_check_gate;
    Alcotest.test_case "trend gates on wall_s" `Quick test_trend_gates_on_wall_s;
  ]
