(** Pipeline telemetry: hierarchical spans, counters and histograms, and
    two exporters (a human-readable stage table and Chrome [trace_event]
    JSON loadable in chrome://tracing / Perfetto).

    The instrumented pipeline (see {!Namer_core.Namer.build}) opens one span
    per stage — parse → analyze → astplus → namepaths → pair-mining →
    pattern-mining → scan → classifier — so that a single scan produces both
    an aggregate per-stage cost table and a zoomable timeline.

    The sink starts as {!Null}, where every entry point ({!with_span},
    {!count}, {!observe}) is one branch on the sink.  Under
    {!Memory} each domain records into its own registry — counters, one
    aggregate per stage name, fixed-capacity histograms — behind a lock that
    only systhreads sharing the domain (serve's connection threads) contend;
    readers merge the registries.  Telemetry memory is thus bounded by live
    domains × (stage + counter names + histogram names × {!Histogram.capacity}
    floats), however many spans close.  {!Trace} also keeps every closed span,
    tagged with its domain, so a [--jobs N] run exports one timeline lane per
    domain.

    The structured event log ({!open_log}, {!emit}) lives here too: one
    JSONL line per event, correlated by the process trace id and the
    calling domain's current span id, which sits in that domain's
    registry. *)

type sink = Null | Memory | Trace

(** One closed span, kept only under {!Trace}.  [ts_us] is microseconds
    since {!set_sink}/{!reset}; [alloc_bytes] is what the opening domain
    allocated (its own minor + major - promoted words, scaled to bytes)
    over the span's extent, children included.  Another
    domain's allocation is never counted, so a span around a parallel
    phase reports only its own domain's share. *)
type span = {
  name : string;
  ts_us : float;
  dur_us : float;
  depth : int;
  tid : int;  (** id of the domain that opened the span *)
  alloc_bytes : float;
  args : (string * string) list;
}

(** Five-number summary of a histogram (percentiles via
    {!Namer_util.Stats.percentile}). *)
type summary = {
  n : int;
  total : float;
  mean : float;
  p50 : float;
  p90 : float;
  p99 : float;
}

(** Per-stage aggregate: every span with the same name folded together,
    ordered by first start.  [alloc_mb] sums each span's own-domain
    allocation (see {!span}). *)
type stage = {
  stage : string;
  s_count : int;
  wall_ms : float;
  alloc_mb : float;
}

(** A fixed-capacity histogram: [n] and the sum cover every observation,
    the percentiles the most recent {!capacity} of them.  Not synchronized:
    the registry's lock (or the owner's) guards it. *)
module Histogram = struct
  let capacity = 4096

  type t = { window : float array; mutable n : int; mutable sum : float }

  let create () = { window = Array.make capacity 0.0; n = 0; sum = 0.0 }

  let add h v =
    h.window.(h.n mod capacity) <- v;
    h.n <- h.n + 1;
    h.sum <- h.sum +. v

  let copy h = { h with window = Array.copy h.window }

  (** One summary of several histograms (e.g. one per domain): [n], sum and
      mean over all their observations, percentiles over their windows;
      [None] before the first observation. *)
  let summarize hs =
    let n = List.fold_left (fun acc h -> acc + h.n) 0 hs in
    let total = List.fold_left (fun acc h -> acc +. h.sum) 0.0 hs in
    let retained = List.concat_map (fun h -> List.init (min h.n capacity) (Array.get h.window)) hs in
    let p q = Namer_util.Stats.percentile q retained in
    if n = 0 then None
    else Some { n; total; mean = total /. float_of_int n; p50 = p 50.0; p90 = p 90.0; p99 = p 99.0 }
end

(* ------------------------------------------------------------------ *)
(* Recorder state                                                      *)
(* ------------------------------------------------------------------ *)

type agg = {
  mutable count : int;
  mutable wall_us : float;
  mutable alloc_bytes : float;
  mutable first : float * int;  (** earliest start: [ts_us], open sequence *)
}

type registry = {
  lock : Mutex.t;
  counts : (string, int) Hashtbl.t;
  aggs : (string, agg) Hashtbl.t;
  hists : (string, Histogram.t) Hashtbl.t;
  mutable trace : span list;  (** closed spans, newest first; {!Trace} only *)
  (* span nesting depth, and the open sequence that orders stages first
     started in the same microsecond; a registry serves one live domain *)
  mutable depth : int;
  mutable seq : int;
  mutable log_span : int;  (** the event log's current span id; [-1] before the first *)
}

let sink = ref Null
let epoch = ref 0.0

(* Every registry ever handed out, and those whose domain has exited.  A
   newly started domain takes over a retired registry, contents and all
   (readers sum registries, so which domain recorded a value does not
   matter): the number of registries is the peak number of live domains,
   not the number of domains a long process has spawned. *)
let registries_lock = Mutex.create ()
let registries : registry list ref = ref []
let retired : registry list ref = ref []

let registry_key : registry Domain.DLS.key =
  Domain.DLS.new_key (fun () ->
      let r =
        Mutex.protect registries_lock (fun () ->
            match !retired with
            | r :: rest -> retired := rest; r.log_span <- -1; r
            | [] ->
                let r = { lock = Mutex.create (); counts = Hashtbl.create 64; aggs = Hashtbl.create 32;
                          hists = Hashtbl.create 8; trace = []; depth = 0; seq = 0; log_span = -1 } in
                registries := r :: !registries;
                r)
      in
      Domain.at_exit (fun () ->
          Mutex.protect registries_lock (fun () -> retired := r :: !retired));
      r)

let registry () = Domain.DLS.get registry_key
let locked r f = Mutex.protect r.lock f
let all_registries () = Mutex.protect registries_lock (fun () -> !registries)

(* whether {!open_log} switched recording on, so {!close_log} switches it
   back off; an explicit {!set_sink} takes over *)
let log_raised = ref false

(** [set_sink s] switches recording off ([Null]), to aggregates only
    ([Memory]) or to aggregates plus every closed span ([Trace]).
    Switching does not discard already-recorded data; use {!reset} for a
    clean slate. *)
let set_sink (s : sink) =
  if s <> Null && !epoch = 0.0 then epoch := Unix.gettimeofday ();
  sink := s;
  log_raised := false

let enabled () = !sink <> Null

(** Drop all recorded spans, counters and histograms and restart the clock.
    Registries stay registered: live domains hold references to theirs. *)
let reset () =
  List.iter
    (fun r ->
      locked r (fun () ->
          Hashtbl.reset r.counts;
          Hashtbl.reset r.aggs;
          Hashtbl.reset r.hists;
          r.trace <- []))
    (all_registries ());
  (registry ()).depth <- 0;
  epoch := Unix.gettimeofday ()

(* ------------------------------------------------------------------ *)
(* Recording                                                           *)
(* ------------------------------------------------------------------ *)

let bytes_per_word = float_of_int (Sys.word_size / 8)

(* What the calling domain has allocated so far.  [Gc.quick_stat] covers
   the whole program and moves only at minor collections, and in OCaml 5.1
   [Gc.counters] counts the live minor heap at an eighth of its size, so
   the minor words come from [Gc.minor_words], which is exact. *)
let allocated_bytes () =
  let _, promoted, major = Gc.counters () in
  (Gc.minor_words () +. major -. promoted) *. bytes_per_word

(* [tbl]'s entry for [name], added by [make] on first use *)
let slot tbl name make =
  match Hashtbl.find_opt tbl name with
  | Some v -> v
  | None ->
      let v = make () in
      Hashtbl.replace tbl name v;
      v

(** MB allocated so far by the whole program, exited domains included.  It
    moves only at minor collections: a difference of two readings, such as
    a ledger record's [alloc_mb], is exact to within one minor heap per
    live domain. *)
let program_alloc_mb () =
  let s = Gc.quick_stat () in
  (s.Gc.minor_words +. s.Gc.major_words -. s.Gc.promoted_words) *. bytes_per_word /. 1048576.0

(** [with_span name f] runs [f ()] inside a span.  When telemetry is
    disabled this is a single branch around [f].  [record_ms] additionally
    feeds the span's duration (in ms) into the named histogram — used for
    per-file latency distributions.  The span is closed (and recorded) even
    when [f] raises. *)
let with_span ?(args = []) ?record_ms name f =
  if !sink = Null then f ()
  else begin
    let r = registry () in
    let d = r.depth and seq = r.seq in
    r.depth <- d + 1;
    r.seq <- seq + 1;
    let a0 = allocated_bytes () in
    let t0 = Unix.gettimeofday () in
    let finish () =
      let t1 = Unix.gettimeofday () in
      let alloc = allocated_bytes () -. a0 in
      r.depth <- d;
      let ts_us = (t0 -. !epoch) *. 1e6 and dur_us = (t1 -. t0) *. 1e6 in
      locked r (fun () ->
          let a =
            slot r.aggs name (fun () ->
                { count = 0; wall_us = 0.0; alloc_bytes = 0.0; first = (infinity, 0) })
          in
          a.count <- a.count + 1;
          a.wall_us <- a.wall_us +. dur_us;
          a.alloc_bytes <- a.alloc_bytes +. alloc;
          if (ts_us, seq) < a.first then a.first <- (ts_us, seq);
          Option.iter (fun h -> Histogram.add (slot r.hists h Histogram.create) (dur_us /. 1e3)) record_ms;
          if !sink = Trace then
            r.trace <-
              { name; ts_us; dur_us; depth = d; tid = (Domain.self () :> int);
                alloc_bytes = alloc; args }
              :: r.trace)
    in
    Fun.protect ~finally:finish f
  end

(** Increment the named counter in the calling domain's registry. *)
let count ?(by = 1) name =
  if !sink <> Null then begin
    let r = registry () in
    locked r (fun () ->
        Hashtbl.replace r.counts name (by + Option.value (Hashtbl.find_opt r.counts name) ~default:0))
  end

(** Record one observation into the named histogram. *)
let observe name v =
  if !sink <> Null then begin
    let r = registry () in
    locked r (fun () -> Histogram.add (slot r.hists name Histogram.create) v)
  end

(* ------------------------------------------------------------------ *)
(* Event log                                                           *)
(* ------------------------------------------------------------------ *)

(** Event levels, least severe first. *)
type level = Debug | Info | Warn | Error

let level_name = function Debug -> "debug" | Info -> "info" | Warn -> "warn" | Error -> "error"

type log = { oc : out_channel; min_level : level }

let log : log option ref = ref None
let log_lock = Mutex.create ()

(** The process's trace id, from wall clock and pid, so two runs appending
    to one log stay apart.  Every event carries it, and so does every
    ledger record. *)
let trace_id =
  let t = Unix.gettimeofday () in
  Printf.sprintf "%08x%06x"
    (int_of_float t land 0xffffffff)
    ((Unix.getpid () lxor int_of_float (t *. 1e6)) land 0xffffff)

(* Span ids come from one process-wide counter, so they are unique across
   domains. *)
let span_counter = Atomic.make 0
let fresh_span () = Atomic.fetch_and_add span_counter 1
let hex_id n = Printf.sprintf "%06x" n

(** A fresh process-unique hex id from the span counter.  The serve daemon
    labels connections and requests with these, so every event of one
    request joins back to its connection: its connection handlers are
    threads that share one domain, and so one span. *)
let fresh_id () = hex_id (fresh_span ())

let logging () = Option.is_some !log

(** [close_log ()] flushes and closes the event log, and switches recording
    back off if {!open_log} switched it on. *)
let close_log () =
  Mutex.protect log_lock (fun () ->
      Option.iter
        (fun l -> if l.oc == stderr then flush stderr else try close_out l.oc with Sys_error _ -> ())
        !log;
      log := None);
  if !log_raised then set_sink Null

(** [open_log ?min_level dest] opens the event log, truncating an existing
    file, and closes any log open before.  Events below [min_level]
    (default [Debug]: keep everything) are dropped.  An open log turns
    recording on ([Memory] if the sink was [Null]), so each domain's span
    id has its registry to live in.  @raise Sys_error if the file cannot be
    opened. *)
let open_log ?(min_level = Debug) dest =
  close_log ();
  let oc = match dest with `File path -> open_out path | `Stderr -> stderr in
  Mutex.protect log_lock (fun () -> log := Some { oc; min_level });
  if !sink = Null then begin
    set_sink Memory;
    log_raised := true
  end

(* The calling domain's span id, allocated on its first event. *)
let current_span r =
  if r.log_span < 0 then r.log_span <- fresh_span ();
  r.log_span

(** [with_child_span f] runs [f] under a fresh span id of the process
    trace, restoring the domain's span afterwards (also on exceptions).
    {!Namer_parallel.Pool.submit} runs each task this way while the log is
    open. *)
let with_child_span f =
  let r = registry () in
  let saved = r.log_span in
  r.log_span <- fresh_span ();
  Fun.protect ~finally:(fun () -> r.log_span <- saved) f

module J = Namer_util.Json

(** [emit ~fields level event] writes one JSON line, flushed, when the log
    is open and [level] is at least its [min_level]: [ts], [level],
    [event], [trace], [span] and [domain], then [fields], whose names
    should not repeat those. *)
let emit ?(fields = []) level event =
  match !log with
  | Some l when level >= l.min_level ->
      let line =
        J.to_string
          (J.Obj
             ([
                ("ts", J.Float (Unix.gettimeofday ()));
                ("level", J.String (level_name level));
                ("event", J.String event);
                ("trace", J.String trace_id);
                ("span", J.String (hex_id (current_span (registry ()))));
                ("domain", J.Int (Domain.self () :> int));
              ]
             @ fields))
      in
      Mutex.protect log_lock (fun () ->
          Option.iter
            (fun l ->
              output_string l.oc line;
              output_char l.oc '\n';
              flush l.oc)
            !log)
  | _ -> ()

(* ------------------------------------------------------------------ *)
(* Reading back: registries merged                                     *)
(* ------------------------------------------------------------------ *)

(* [merged items combine] folds every registry's [items] (read under its
   lock) into one list, combining the values of a name that several
   domains recorded. *)
let merged items combine =
  let acc = Hashtbl.create 32 in
  List.iter
    (fun r ->
      locked r (fun () ->
          Seq.iter
            (fun (k, v) ->
              Hashtbl.replace acc k
                (match Hashtbl.find_opt acc k with Some a -> combine a v | None -> v))
            (items r)))
    (all_registries ());
  Hashtbl.fold (fun k v l -> (k, v) :: l) acc []

(** All closed spans in chronological (start-time) order; empty unless the
    sink is {!Trace}. *)
let spans () =
  List.concat_map (fun r -> locked r (fun () -> r.trace)) (all_registries ())
  |> List.stable_sort (fun a b -> compare a.ts_us b.ts_us)

let counters () = List.sort compare (merged (fun r -> Hashtbl.to_seq r.counts) ( + ))

let counter name = Option.value (List.assoc_opt name (counters ())) ~default:0

(** Histogram summaries, sorted by name.  Histograms are never empty: a name
    exists only once it has at least one observation. *)
let histograms () =
  merged (fun r -> Seq.map (fun (k, h) -> (k, [ Histogram.copy h ])) (Hashtbl.to_seq r.hists)) ( @ )
  |> List.filter_map (fun (k, hs) -> Option.map (fun s -> (k, s)) (Histogram.summarize hs))
  |> List.sort compare

(** The summary of one histogram, every domain's observations of it
    merged; [None] before the first. *)
let histogram name =
  List.filter_map
    (fun r -> locked r (fun () -> Option.map Histogram.copy (Hashtbl.find_opt r.hists name)))
    (all_registries ())
  |> Histogram.summarize

(** Spans aggregated by name, in order of first start.  This is the
    "stage" view: per-file [parse] spans fold into one row, etc. *)
let stages () =
  merged (fun r -> Seq.map (fun (k, a) -> (k, (a.first, a.count, a.wall_us, a.alloc_bytes))) (Hashtbl.to_seq r.aggs))
    (fun (f, c, w, b) (f', c', w', b') -> (min f f', c + c', w +. w', b +. b'))
  |> List.sort (fun (_, (first, _, _, _)) (_, (first', _, _, _)) -> compare first first')
  |> List.map (fun (stage, (_, s_count, wall_us, bytes)) ->
         { stage; s_count; wall_ms = wall_us /. 1e3; alloc_mb = bytes /. 1048576.0 })

(* ------------------------------------------------------------------ *)
(* Exporters                                                           *)
(* ------------------------------------------------------------------ *)

(** Human-readable per-stage cost table (one row per distinct span name).
    [stages] overrides the live span buffer with a previously captured
    stage list. *)
let stage_table ?stages:captured () =
  let rows =
    List.map
      (fun s ->
        [
          s.stage;
          string_of_int s.s_count;
          Printf.sprintf "%.3f" s.wall_ms;
          Printf.sprintf "%.2f" s.alloc_mb;
        ])
      (match captured with Some l -> l | None -> stages ())
  in
  Namer_util.Tablefmt.render ~caption:"telemetry: pipeline stages"
    ~header:[ "stage"; "count"; "wall ms"; "alloc MB" ]
    rows

(** Human-readable histogram table: one row per histogram, its five-number
    summary. *)
let histogram_table () =
  let rows =
    List.map
      (fun (name, s) ->
        [
          name;
          string_of_int s.n;
          Printf.sprintf "%.3f" s.mean;
          Printf.sprintf "%.3f" s.p50;
          Printf.sprintf "%.3f" s.p90;
          Printf.sprintf "%.3f" s.p99;
        ])
      (histograms ())
  in
  Namer_util.Tablefmt.render ~caption:"telemetry: histograms"
    ~header:[ "histogram"; "n"; "mean"; "p50"; "p90"; "p99" ]
    rows

(** Chrome [trace_event] JSON: complete ("X") events sorted by start time,
    microsecond timestamps, one process/thread.  Load the file in
    chrome://tracing or https://ui.perfetto.dev. *)
let to_chrome_json () =
  let event (s : span) =
    J.Obj
      [
        ("name", J.String s.name);
        ("cat", J.String "namer");
        ("ph", J.String "X");
        ("ts", J.Float s.ts_us);
        ("dur", J.Float s.dur_us);
        ("pid", J.Int 1);
        ("tid", J.Int s.tid);
        ( "args",
          J.Obj
            (("alloc_bytes", J.Float s.alloc_bytes)
            :: List.map (fun (k, v) -> (k, J.String v)) s.args) );
      ]
  in
  J.Obj
    [
      ("traceEvents", J.List (List.map event (spans ())));
      ("displayTimeUnit", J.String "ms");
    ]

let summary_json (s : summary) =
  J.Obj
    [
      ("n", J.Int s.n);
      ("total", J.Float s.total);
      ("mean", J.Float s.mean);
      ("p50", J.Float s.p50);
      ("p90", J.Float s.p90);
      ("p99", J.Float s.p99);
    ]

(** [stages_to_json stages] renders a captured stage list (e.g. a snapshot
    taken between two instrumented runs being compared) as JSON. *)
let stages_to_json stage_list =
  J.Obj
    (List.map
       (fun s ->
         ( s.stage,
           J.Obj
             [
               ("count", J.Int s.s_count);
               ("wall_ms", J.Float s.wall_ms);
               ("alloc_mb", J.Float s.alloc_mb);
             ] ))
       stage_list)

let stages_json () = stages_to_json (stages ())
let counters_json () = J.Obj (List.map (fun (k, v) -> (k, J.Int v)) (counters ()))

(** The whole metric registry — counters, histogram summaries and stage
    aggregates — as one JSON object ([namer stats], the per-stage cost pins
    of the test suite). *)
let metrics_json () =
  J.Obj
    [
      ("counters", counters_json ());
      ( "histograms",
        J.Obj (List.map (fun (k, s) -> (k, summary_json s)) (histograms ())) );
      ("stages", stages_json ());
    ]

let write_json ~path (j : J.t) =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      output_string oc (J.to_string ~indent:2 j);
      output_char oc '\n')

let write_chrome_trace ~path = write_json ~path (to_chrome_json ())
let write_metrics ~path = write_json ~path (metrics_json ())

(* ------------------------------------------------------------------ *)
(* Progress reporting                                                  *)
(* ------------------------------------------------------------------ *)

(** [progressf fmt ...] prints one progress line to stderr (flushed), so
    stdout stays machine-parseable.  This is the CLI's replacement for bare
    [Printf.printf] progress lines. *)
let progressf fmt = Printf.eprintf ("[namer] " ^^ fmt ^^ "\n%!")
