(* Tests for Namer_telemetry: span nesting, counter/histogram aggregation,
   the Null-sink zero-cost path, exception safety, bounded memory under the
   Memory sink, and a golden-file check that the Chrome-trace export is
   valid JSON with monotonically ordered [ts] fields. *)

module T = Namer_telemetry.Telemetry
module J = Namer_util.Json

let with_sink sink f =
  T.reset ();
  T.set_sink sink;
  Fun.protect ~finally:(fun () -> T.set_sink T.Null; T.reset ()) f

let with_memory_sink f = with_sink T.Memory f

(* closed spans are kept only when a trace is asked for *)
let with_trace_sink f = with_sink T.Trace f

(* ---------------- spans ---------------- *)

let test_span_nesting () =
  with_trace_sink @@ fun () ->
  let r =
    T.with_span "outer" (fun () ->
        T.with_span "inner" (fun () -> ());
        T.with_span "inner" (fun () -> ());
        42)
  in
  Alcotest.(check int) "with_span returns" 42 r;
  let spans = T.spans () in
  Alcotest.(check int) "three spans" 3 (List.length spans);
  let outer = List.hd spans in
  Alcotest.(check string) "chronological order" "outer" outer.T.name;
  Alcotest.(check int) "outer depth" 0 outer.T.depth;
  List.iter
    (fun (s : T.span) ->
      if s.T.name = "inner" then begin
        Alcotest.(check int) "inner depth" 1 s.T.depth;
        Alcotest.(check bool) "inner starts after outer" true (s.T.ts_us >= outer.T.ts_us);
        Alcotest.(check bool) "inner inside outer" true
          (s.T.ts_us +. s.T.dur_us <= outer.T.ts_us +. outer.T.dur_us +. 1.0)
      end)
    spans

let test_span_exception_safety () =
  with_trace_sink @@ fun () ->
  (try T.with_span "boom" (fun () -> failwith "boom") with Failure _ -> ());
  Alcotest.(check int) "span recorded despite raise" 1 (List.length (T.spans ()));
  (* depth must be restored: a following span is top-level again *)
  T.with_span "after" (fun () -> ());
  let after = List.nth (T.spans ()) 1 in
  Alcotest.(check int) "depth restored" 0 after.T.depth

let test_stage_aggregation () =
  with_memory_sink @@ fun () ->
  T.with_span "a" (fun () -> T.with_span "b" (fun () -> ()));
  T.with_span "b" (fun () -> ());
  let stages = T.stages () in
  Alcotest.(check int) "two stages" 2 (List.length stages);
  let b = List.find (fun (s : T.stage) -> s.T.stage = "b") stages in
  Alcotest.(check int) "b folded" 2 b.T.s_count;
  (* first-appearance order: "a" starts before its child "b" *)
  Alcotest.(check string) "order by first appearance" "a"
    (List.hd stages).T.stage;
  Alcotest.(check bool) "table renders" true
    (String.length (T.stage_table ()) > 0)

(* ---------------- counters and histograms ---------------- *)

let test_counters () =
  with_memory_sink @@ fun () ->
  T.count "files";
  T.count "files";
  T.count ~by:3 "stmts";
  Alcotest.(check int) "files" 2 (T.counter "files");
  Alcotest.(check int) "stmts" 3 (T.counter "stmts");
  Alcotest.(check int) "missing" 0 (T.counter "nope");
  Alcotest.(check (list (pair string int))) "sorted registry"
    [ ("files", 2); ("stmts", 3) ]
    (T.counters ())

let test_histograms () =
  with_memory_sink @@ fun () ->
  List.iter (T.observe "ms") [ 1.0; 2.0; 3.0; 4.0; 5.0 ];
  match T.histogram "ms" with
  | None -> Alcotest.fail "histogram missing"
  | Some s ->
      Alcotest.(check int) "n" 5 s.T.n;
      Alcotest.(check (float 1e-9)) "total" 15.0 s.T.total;
      Alcotest.(check (float 1e-9)) "mean" 3.0 s.T.mean;
      Alcotest.(check (float 1e-9)) "p50" 3.0 s.T.p50;
      Alcotest.(check (float 1e-6)) "p90" 4.6 s.T.p90;
      Alcotest.(check (float 1e-6)) "p99" 4.96 s.T.p99

let test_record_ms () =
  with_memory_sink @@ fun () ->
  T.with_span ~record_ms:"lat" "work" (fun () -> ());
  match T.histogram "lat" with
  | None -> Alcotest.fail "record_ms histogram missing"
  | Some s -> Alcotest.(check int) "one observation" 1 s.T.n

(* ---------------- Null sink: zero-cost path ---------------- *)

let test_null_sink_records_nothing () =
  T.set_sink T.Null;
  T.reset ();
  let r = T.with_span "x" (fun () -> T.count "c"; T.observe "h" 1.0; 7) in
  Alcotest.(check int) "value passes through" 7 r;
  Alcotest.(check int) "no spans" 0 (List.length (T.spans ()));
  Alcotest.(check int) "no counters" 0 (List.length (T.counters ()));
  Alcotest.(check int) "no histograms" 0 (List.length (T.histograms ()));
  Alcotest.(check bool) "disabled" false (T.enabled ())

(* ---------------- Chrome trace export (golden check) ---------------- *)

let test_chrome_trace_valid_json () =
  with_trace_sink @@ fun () ->
  T.with_span "build" (fun () ->
      T.with_span "parse" (fun () -> ());
      T.with_span ~args:[ ("kind", "consistency") ] "mine" (fun () -> ()));
  let rendered = J.to_string ~indent:2 (T.to_chrome_json ()) in
  match J.parse rendered with
  | Error msg -> Alcotest.fail ("export is not valid JSON: " ^ msg)
  | Ok (J.Obj fields) -> (
      match List.assoc_opt "traceEvents" fields with
      | Some (J.List events) ->
          Alcotest.(check int) "three events" 3 (List.length events);
          let ts_of = function
            | J.Obj f -> (
                match List.assoc_opt "ts" f with
                | Some (J.Float x) -> x
                | Some (J.Int x) -> float_of_int x
                | _ -> Alcotest.fail "event without numeric ts")
            | _ -> Alcotest.fail "event is not an object"
          in
          let ts = List.map ts_of events in
          let rec monotonic = function
            | a :: (b :: _ as rest) -> a <= b && monotonic rest
            | _ -> true
          in
          Alcotest.(check bool) "ts monotonically ordered" true (monotonic ts);
          List.iter
            (fun ev ->
              match ev with
              | J.Obj f ->
                  Alcotest.(check bool) "complete event" true
                    (List.assoc_opt "ph" f = Some (J.String "X"))
              | _ -> ())
            events
      | _ -> Alcotest.fail "no traceEvents array")
  | Ok _ -> Alcotest.fail "top level is not an object"

let test_metrics_json_roundtrip () =
  with_memory_sink @@ fun () ->
  T.with_span "stage" (fun () -> ());
  T.count ~by:5 "things";
  T.observe "h" 2.0;
  let rendered = J.to_string ~indent:2 (T.metrics_json ()) in
  match J.parse rendered with
  | Error msg -> Alcotest.fail ("metrics JSON invalid: " ^ msg)
  | Ok (J.Obj fields) ->
      List.iter
        (fun key ->
          Alcotest.(check bool) (key ^ " present") true
            (List.mem_assoc key fields))
        [ "counters"; "histograms"; "stages" ]
  | Ok _ -> Alcotest.fail "metrics top level is not an object"

(* ---------------- bounded memory, exact allocation ---------------- *)

let stage name =
  match List.find_opt (fun (s : T.stage) -> s.T.stage = name) (T.stages ()) with
  | Some s -> s
  | None -> Alcotest.fail ("no stage " ^ name)

(* A span's allocation is its own domain's, exact even when no minor
   collection falls inside the span. *)
let test_span_alloc () =
  with_memory_sink @@ fun () ->
  T.with_span "init" (fun () -> ignore (Sys.opaque_identity (List.init 10_000 Fun.id)));
  (* 10k cons cells of three words each *)
  let bytes = (stage "init").T.alloc_mb *. 1048576.0 in
  Alcotest.(check bool)
    (Printf.sprintf "span saw %.0f bytes, at least 240000" bytes)
    true (bytes >= 240_000.0)

let live_words () =
  Gc.full_major ();
  (Gc.stat ()).Gc.live_words

let test_memory_keeps_no_spans () =
  with_memory_sink @@ fun () ->
  let burst n =
    for i = 1 to n do
      T.with_span "tick" (fun () -> T.count "ticks"; T.observe "tick_ms" (float_of_int i))
    done
  in
  burst 1_000;
  let live = live_words () in
  burst 99_000;
  let grown = live_words () - live in
  Alcotest.(check int) "no span kept" 0 (List.length (T.spans ()));
  Alcotest.(check int) "every span in the stage count" 100_000 (stage "tick").T.s_count;
  Alcotest.(check int) "every increment counted" 100_000 (T.counter "ticks");
  (* one retained span alone would take ~10 words *)
  Alcotest.(check bool)
    (Printf.sprintf "heap grew %d words over 99k more spans and observations" grown)
    true (grown < 1_000)

let test_histogram_window () =
  with_memory_sink @@ fun () ->
  for i = 1 to 10_000 do
    T.observe "h" (float_of_int i)
  done;
  match T.histogram "h" with
  | None -> Alcotest.fail "histogram missing"
  | Some s ->
      let module S = Namer_util.Stats in
      let window = List.init 4096 (fun i -> float_of_int (10_000 - 4095 + i)) in
      Alcotest.(check int) "n counts every observation" 10_000 s.T.n;
      Alcotest.(check (float 1e-6)) "sum over every observation" 50_005_000.0 s.T.total;
      Alcotest.(check (float 1e-6)) "mean over every observation" 5000.5 s.T.mean;
      Alcotest.(check (float 1e-9)) "p50 of the last 4096" (S.percentile 50.0 window) s.T.p50;
      Alcotest.(check (float 1e-9)) "p90 of the last 4096" (S.percentile 90.0 window) s.T.p90;
      Alcotest.(check (float 1e-9)) "p99 of the last 4096" (S.percentile 99.0 window) s.T.p99

let suite =
  [
    Alcotest.test_case "span nesting" `Quick test_span_nesting;
    Alcotest.test_case "span exception safety" `Quick test_span_exception_safety;
    Alcotest.test_case "stage aggregation" `Quick test_stage_aggregation;
    Alcotest.test_case "counters" `Quick test_counters;
    Alcotest.test_case "histograms" `Quick test_histograms;
    Alcotest.test_case "record_ms" `Quick test_record_ms;
    Alcotest.test_case "null sink records nothing" `Quick test_null_sink_records_nothing;
    Alcotest.test_case "chrome trace valid json" `Quick test_chrome_trace_valid_json;
    Alcotest.test_case "metrics json roundtrip" `Quick test_metrics_json_roundtrip;
    Alcotest.test_case "span allocation is exact" `Quick test_span_alloc;
    Alcotest.test_case "memory sink keeps no spans" `Quick test_memory_keeps_no_spans;
    Alcotest.test_case "histogram window" `Quick test_histogram_window;
  ]
