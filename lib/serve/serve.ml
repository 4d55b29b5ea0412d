module J = Namer_util.Json
module Fault = Namer_util.Fault
module Telemetry = Namer_telemetry.Telemetry
module Pool = Namer_parallel.Pool
module Corpus = Namer_corpus.Corpus
module Namer = Namer_core.Namer
module Pattern = Namer_pattern.Pattern
module Namepath = Namer_namepath.Namepath

type endpoint = Unix_path of string | Tcp of string * int

type config = {
  sv_model_path : string;
  sv_endpoint : endpoint;
  sv_cache_dir : string option;
  sv_jobs : int;
  sv_max_concurrent : int;
  sv_timeout_ms : int;
  sv_max_request_bytes : int;
}

let default_config ~model_path endpoint =
  {
    sv_model_path = model_path;
    sv_endpoint = endpoint;
    sv_cache_dir = None;
    sv_jobs = Domain.recommended_domain_count ();
    sv_max_concurrent = 64;
    sv_timeout_ms = 30_000;
    sv_max_request_bytes = 8 * 1024 * 1024;
  }

type stats = {
  st_connections : int;
  st_requests : int;
  st_scans : int;
  st_files : int;
  st_reports : int;
  st_cache_hits : int;
  st_cache_misses : int;
  st_overloaded : int;
  st_timeouts : int;
  st_errors : int;
  st_degraded : int;
  st_reloads : int;
  st_p50_ms : float;
  st_p99_ms : float;
  st_uptime_s : float;
  st_model_hash : string;
}

let stats_json (s : stats) =
  [
    ("connections", J.Int s.st_connections);
    ("requests", J.Int s.st_requests);
    ("scans", J.Int s.st_scans);
    ("files_scanned", J.Int s.st_files);
    ("reports", J.Int s.st_reports);
    ( "cache",
      J.Obj [ ("hits", J.Int s.st_cache_hits); ("misses", J.Int s.st_cache_misses) ] );
    ("overloaded", J.Int s.st_overloaded);
    ("timeouts", J.Int s.st_timeouts);
    ("errors", J.Int s.st_errors);
    ("degraded", J.Int s.st_degraded);
    ("reloads", J.Int s.st_reloads);
    ("request_p50_ms", J.Float s.st_p50_ms);
    ("request_p99_ms", J.Float s.st_p99_ms);
    ("uptime_s", J.Float s.st_uptime_s);
    ("model_hash", J.String s.st_model_hash);
  ]
  |> fun fields -> J.Obj fields

type t = {
  cfg : config;
  listen_fd : Unix.file_descr;
  resolved : endpoint;
  stop_r : Unix.file_descr;
  stop_w : Unix.file_descr;
  stopping : bool Atomic.t;
  pool : Pool.t option;
  (* Serializes reloads.  [load_model] preloads the global interner, which
     is single-writer (DESIGN.md §11); scans never touch it — they digest
     against the model's own read-only vocabulary — so only a second
     reload can race a reload. *)
  model_lock : Mutex.t;
  (* Short critical sections only: counters, the connection registry and
     the current-model reference.  Never held across a scan. *)
  lock : Mutex.t;
  mutable model : Namer.model;
  mutable model_path : string;
  mutable in_flight : int;
  mutable c_connections : int;
  mutable c_requests : int;
  mutable c_scans : int;
  mutable c_files : int;
  mutable c_reports : int;
  mutable c_cache_hits : int;
  mutable c_cache_misses : int;
  mutable c_overloaded : int;
  mutable c_timeouts : int;
  mutable c_errors : int;
  mutable c_degraded : int;
  mutable c_reloads : int;
  (* request latencies for [status], ledger on or off; guarded by [lock] *)
  latency : Telemetry.Histogram.t;
  conns : (int, Unix.file_descr * Thread.t) Hashtbl.t;
  mutable next_conn : int;
  t_start : float;
}

let locked t f = Mutex.protect t.lock f

let model_hash t = locked t (fun () -> t.model.Namer.m_hash)
let endpoint t = t.resolved

(* [(n, p50, p99)] of the request latencies, zeros before any request *)
let latency t =
  match locked t (fun () -> Telemetry.Histogram.summarize [ t.latency ]) with
  | Some s -> (s.Telemetry.n, s.Telemetry.p50, s.Telemetry.p99)
  | None -> (0, 0.0, 0.0)

(* ---------------- socket setup ---------------- *)

let bind_unix path =
  (* A leftover socket file from a crashed daemon must not block restart,
     but a *live* daemon must not be silently displaced: probe with a
     connect before unlinking. *)
  if Sys.file_exists path then begin
    let probe = Unix.socket ~cloexec:true Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    let alive =
      match Unix.connect probe (Unix.ADDR_UNIX path) with
      | () -> true
      | exception Unix.Unix_error ((Unix.ECONNREFUSED | Unix.ENOENT), _, _) -> false
    in
    (try Unix.close probe with Unix.Unix_error _ -> ());
    if alive then failwith (Printf.sprintf "socket %s: a daemon is already serving" path);
    try Sys.remove path with Sys_error _ -> ()
  end;
  let fd = Unix.socket ~cloexec:true Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.bind fd (Unix.ADDR_UNIX path);
  Unix.listen fd 128;
  (fd, Unix_path path)

let bind_tcp host port =
  let addr =
    try (Unix.gethostbyname host).Unix.h_addr_list.(0)
    with Not_found -> Unix.inet_addr_of_string host
  in
  let fd = Unix.socket ~cloexec:true Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.setsockopt fd Unix.SO_REUSEADDR true;
  Unix.bind fd (Unix.ADDR_INET (addr, port));
  Unix.listen fd 128;
  let resolved_port =
    match Unix.getsockname fd with
    | Unix.ADDR_INET (_, p) -> p
    | _ -> port
  in
  (fd, Tcp (host, resolved_port))

let create cfg =
  let model = Namer.load_model ~path:cfg.sv_model_path in
  let listen_fd, resolved =
    match cfg.sv_endpoint with
    | Unix_path path -> bind_unix path
    | Tcp (host, port) -> bind_tcp host port
  in
  Unix.set_nonblock listen_fd;
  (* a client that disconnects mid-response must not kill the daemon *)
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore with Invalid_argument _ -> ());
  let stop_r, stop_w = Unix.pipe ~cloexec:true () in
  let pool =
    if cfg.sv_jobs > 1 then Some (Pool.create ~domains:cfg.sv_jobs ()) else None
  in
  {
    cfg;
    listen_fd;
    resolved;
    stop_r;
    stop_w;
    stopping = Atomic.make false;
    pool;
    model_lock = Mutex.create ();
    lock = Mutex.create ();
    model;
    model_path = cfg.sv_model_path;
    in_flight = 0;
    c_connections = 0;
    c_requests = 0;
    c_scans = 0;
    c_files = 0;
    c_reports = 0;
    c_cache_hits = 0;
    c_cache_misses = 0;
    c_overloaded = 0;
    c_timeouts = 0;
    c_errors = 0;
    c_degraded = 0;
    c_reloads = 0;
    latency = Telemetry.Histogram.create ();
    conns = Hashtbl.create 64;
    next_conn = 0;
    t_start = Unix.gettimeofday ();
  }

let request_stop t =
  if not (Atomic.exchange t.stopping true) then
    try ignore (Unix.write_substring t.stop_w "x" 0 1) with Unix.Unix_error _ -> ()

(* ---------------- request handling ---------------- *)

let field name = function J.Obj fs -> List.assoc_opt name fs | _ -> None

let str_field name j =
  match field name j with Some (J.String s) -> Some s | _ -> None

let int_field name j =
  match field name j with Some (J.Int i) -> Some i | _ -> None

let write_all fd s =
  let b = Bytes.of_string s in
  let n = Bytes.length b in
  let off = ref 0 in
  while !off < n do
    off := !off + Unix.write fd b !off (n - !off)
  done

let respond fd json = write_all fd (J.to_string json ^ "\n")

let error_response ?op code msg =
  J.Obj
    ((match op with Some o -> [ ("ok", J.Bool false); ("op", J.String o) ] | None -> [ ("ok", J.Bool false) ])
    @ [ ("code", J.String code); ("error", J.String msg) ])

let read_file path =
  let ic = open_in_bin path in
  let n = in_channel_length ic in
  let s = really_input_string ic n in
  close_in ic;
  s

let rec walk_files dir =
  Sys.readdir dir |> Array.to_list |> List.sort compare
  |> List.concat_map (fun entry ->
         let path = Filename.concat dir entry in
         if Sys.is_directory path then walk_files path else [ path ])

let lang_ext = function Corpus.Python -> ".py" | Corpus.Java -> ".java"

(* Resolve a scan request's target to corpus files.  Server-side reads
   ([dir] / [files]) happen on the connection thread, outside any lock. *)
let scan_files (m : Namer.model) req =
  match (field "sources" req, field "files" req, field "dir" req) with
  | Some (J.List srcs), _, _ ->
      let files =
        List.map
          (fun s ->
            match (str_field "path" s, str_field "source" s) with
            | Some path, Some source -> { Corpus.repo = "<inline>"; path; source }
            | _ -> failwith "sources entries need string fields \"path\" and \"source\"")
          srcs
      in
      if files = [] then failwith "empty sources list" else Ok files
  | _, Some (J.List paths), _ ->
      let files =
        List.map
          (function
            | J.String path -> { Corpus.repo = "<files>"; path; source = read_file path }
            | _ -> failwith "files entries must be string paths")
          paths
      in
      if files = [] then failwith "empty files list" else Ok files
  | _, _, Some (J.String dir) ->
      if not (Sys.file_exists dir && Sys.is_directory dir) then
        failwith (Printf.sprintf "no such directory: %s" dir)
      else begin
        let ext = lang_ext m.Namer.m_lang in
        let files =
          walk_files dir
          |> List.filter (fun p -> Filename.check_suffix p ext)
          |> List.map (fun path -> { Corpus.repo = dir; path; source = read_file path })
        in
        if files = [] then failwith (Printf.sprintf "no %s files under %s" ext dir)
        else Ok files
      end
  | _ -> Error "scan needs one of \"sources\", \"files\" or \"dir\""

(* The CLI's [namer scan --model --json] fields behind the ok/op envelope;
   {!Client.cli_json_of_scan} strips the envelope again. *)
let scan_response (m : Namer.model) files (result : Namer.scan_result) ~max_reports =
  let sources = Hashtbl.create 256 in
  List.iter
    (fun (f : Corpus.file) -> Hashtbl.replace sources f.Corpus.path f.Corpus.source)
    files;
  let statement (r : Namer.report) =
    Namer.statement_of ~src:(Hashtbl.find_opt sources r.Namer.r_file) ~line:r.Namer.r_line
  in
  J.Obj
    (("ok", J.Bool true) :: ("op", J.String "scan")
    :: Namer.scan_json_fields m ~files:(List.length files) ~statement ~max_reports result)

let handle_scan t req =
  (* backpressure: admit or refuse *now*, never queue unboundedly *)
  let admitted =
    locked t (fun () ->
        if t.in_flight >= t.cfg.sv_max_concurrent then false
        else begin
          t.in_flight <- t.in_flight + 1;
          true
        end)
  in
  if not admitted then begin
    locked t (fun () -> t.c_overloaded <- t.c_overloaded + 1);
    Telemetry.count "serve.overloaded";
    error_response ~op:"scan" "overloaded"
      (Printf.sprintf "%d scans already in flight" t.cfg.sv_max_concurrent)
  end
  else
    Fun.protect
      ~finally:(fun () -> locked t (fun () -> t.in_flight <- t.in_flight - 1))
      (fun () ->
        (* capture the model once: a reload mid-request must not split this
           scan across two models *)
        let m = locked t (fun () -> t.model) in
        match scan_files m req with
        | Error msg -> error_response ~op:"scan" "bad_request" msg
        | Ok files ->
            let max_reports =
              match int_field "max_reports" req with Some n -> n | None -> max_int
            in
            (* fault point: an artificially slow scan *after* admission —
               makes the overloaded/backpressure path deterministic in
               tests without a large corpus *)
            if Fault.fires "serve.slow" then Unix.sleepf 0.5;
            let result =
              Namer.scan_with_model ?pool:t.pool ~jobs:1 ?cache_dir:t.cfg.sv_cache_dir m
                files
            in
            locked t (fun () ->
                t.c_scans <- t.c_scans + 1;
                t.c_files <- t.c_files + List.length files;
                t.c_reports <- t.c_reports + Array.length result.Namer.sr_reports;
                t.c_cache_hits <- t.c_cache_hits + result.Namer.sr_cache_hits;
                t.c_cache_misses <- t.c_cache_misses + result.Namer.sr_cache_misses);
            Telemetry.count "serve.scans";
            scan_response m files result ~max_reports
        | exception (Sys_error msg | Failure msg) ->
            error_response ~op:"scan" "bad_request" msg)

let handle_status t =
  let n, p50, p99 = latency t in
  let c f = locked t (fun () -> f t) in
  let m = locked t (fun () -> t.model) in
  J.Obj
    [
      ("ok", J.Bool true);
      ("op", J.String "status");
      ("model", J.String m.Namer.m_hash);
      ("model_path", J.String (locked t (fun () -> t.model_path)));
      ("lang", J.String (Corpus.lang_name m.Namer.m_lang));
      ("patterns", J.Int (Pattern.Store.size m.Namer.m_store));
      ("uptime_s", J.Float (Unix.gettimeofday () -. t.t_start));
      ("requests", J.Int (c (fun t -> t.c_requests)));
      ("scans", J.Int (c (fun t -> t.c_scans)));
      ("in_flight", J.Int (c (fun t -> t.in_flight)));
      ("overloaded", J.Int (c (fun t -> t.c_overloaded)));
      ("timeouts", J.Int (c (fun t -> t.c_timeouts)));
      ("errors", J.Int (c (fun t -> t.c_errors)));
      ("degraded", J.Int (c (fun t -> t.c_degraded)));
      ("reloads", J.Int (c (fun t -> t.c_reloads)));
      ("connections", J.Int (c (fun t -> t.c_connections)));
      ("jobs", J.Int t.cfg.sv_jobs);
      ( "interner",
        (* the global name-path interner: only a reload may grow it, so
           these are exact unless one is loading right now *)
        let paths, prefixes, ends = Namepath.Interned.(sizes global) in
        J.Obj
          [ ("prefixes", J.Int prefixes); ("ends", J.Int ends); ("paths", J.Int paths) ] );
      ( "pool",
        match t.pool with
        | None -> J.Null
        | Some p ->
            J.Obj
              [
                ("size", J.Int (Pool.size p));
                ("queued", J.Int (Pool.queued p));
                ("steals", J.Int (Pool.steals p));
              ] );
      ( "cache",
        match t.cfg.sv_cache_dir with
        | None -> J.Null
        | Some dir ->
            let entries, pack_bytes =
              Namer_core.Scan_cache.pack_stats ~dir ~model_hash:m.Namer.m_hash
            in
            J.Obj
              [
                ("dir", J.String dir);
                ("hits", J.Int (c (fun t -> t.c_cache_hits)));
                ("misses", J.Int (c (fun t -> t.c_cache_misses)));
                ("entries", J.Int entries);
                ("pack_bytes", J.Int pack_bytes);
              ] );
      ("latency_ms", J.Obj [ ("p50", J.Float p50); ("p99", J.Float p99); ("n", J.Int n) ]);
    ]

let handle_reload t req =
  let path =
    match str_field "model" req with
    | Some p -> p
    | None -> locked t (fun () -> t.model_path)
  in
  (* Load under the model lock, so that two reloads never preload the
     global interner at once.  Scans in flight do not read the interner,
     and the preload is an append-only merge, so the old model — and the
     requests still finishing on it — are unaffected. *)
  match Mutex.protect t.model_lock (fun () -> Namer.load_model ~path) with
  | m ->
      let previous =
        locked t (fun () ->
            let prev = t.model.Namer.m_hash in
            t.model <- m;
            t.model_path <- path;
            t.c_reloads <- t.c_reloads + 1;
            prev)
      in
      Telemetry.count "serve.reloads";
      Telemetry.emit
        ~fields:
          [
            ("model", J.String m.Namer.m_hash);
            ("previous", J.String previous);
            ("path", J.String path);
          ]
        Telemetry.Info "serve.reload";
      J.Obj
        [
          ("ok", J.Bool true);
          ("op", J.String "reload");
          ("model", J.String m.Namer.m_hash);
          ("previous", J.String previous);
          ("path", J.String path);
        ]
  | exception Namer_model.Snapshot.Error msg ->
      (* a bad snapshot must leave the old model serving *)
      error_response ~op:"reload" "bad_request" msg

(* Dispatch one request line.  Returns [(response, keep_serving)]:
   [keep_serving = false] only for [shutdown], which acknowledges first
   and then begins the drain. *)
let handle_request t ~conn_id ~req_id line =
  let t0 = Unix.gettimeofday () in
  locked t (fun () -> t.c_requests <- t.c_requests + 1);
  Telemetry.count "serve.requests";
  let response, keep, op =
    match J.parse line with
    | Error msg ->
        locked t (fun () -> t.c_errors <- t.c_errors + 1);
        Telemetry.count "serve.errors";
        (error_response "bad_request" ("request is not valid JSON: " ^ msg), true, "?")
    | Ok req -> (
        let op = match str_field "op" req with Some o -> o | None -> "?" in
        match
          (* fault point: a poisoned request degrades to a structured
             error response; the daemon and the connection stay up *)
          Fault.check "serve.request";
          (match op with
          | "scan" -> (handle_scan t req, true)
          | "status" -> (handle_status t, true)
          | "reload" -> (handle_reload t req, true)
          | "shutdown" ->
              ( J.Obj
                  [
                    ("ok", J.Bool true);
                    ("op", J.String "shutdown");
                    ("draining", J.Bool true);
                  ],
                false )
          | _ ->
              locked t (fun () -> t.c_errors <- t.c_errors + 1);
              (error_response "bad_request" (Printf.sprintf "unknown op %S" op), true))
        with
        | response, keep -> (response, keep, op)
        | exception Fault.Injected point ->
            locked t (fun () -> t.c_degraded <- t.c_degraded + 1);
            Telemetry.count "serve.degraded";
            (error_response ~op "degraded" ("injected fault: " ^ point), true, op)
        | exception e ->
            locked t (fun () -> t.c_errors <- t.c_errors + 1);
            Telemetry.count "serve.errors";
            (error_response ~op "internal" (Printexc.to_string e), true, op))
  in
  let ms = (Unix.gettimeofday () -. t0) *. 1000.0 in
  locked t (fun () -> Telemetry.Histogram.add t.latency ms);
  Telemetry.observe "serve.request_ms" ms;
  let ok = match field "ok" response with Some (J.Bool b) -> b | _ -> false in
  Telemetry.emit
    ~fields:
      [
        ("conn", J.String conn_id);
        ("req", J.String req_id);
        ("req_op", J.String op);
        ("ms", J.Float ms);
        ("req_ok", J.Bool ok);
      ]
    Telemetry.Info "serve.request";
  (response, keep)

(* ---------------- connection loop ---------------- *)

(* One thread per connection: read newline-delimited requests, answer each
   with one JSON line.  SO_RCVTIMEO bounds mid-request stalls; an idle
   keep-alive connection just loops (and notices a drain). *)
let conn_loop t conn_id fd =
  Unix.setsockopt_float fd Unix.SO_RCVTIMEO
    (float_of_int t.cfg.sv_timeout_ms /. 1000.0);
  let chunk = Bytes.create 65536 in
  (* bytes received and not yet dispatched are [pending] from [start] on;
     none of [start, searched) is a newline, so each byte is searched once *)
  let pending = Buffer.create 4096 in
  let start = ref 0 and searched = ref 0 in
  let rec newline i =
    if i >= Buffer.length pending then None
    else if Buffer.nth pending i = '\n' then Some i
    else newline (i + 1)
  in
  let respond_safe json =
    match respond fd json with
    | () -> true
    | exception Unix.Unix_error ((Unix.EPIPE | Unix.ECONNRESET | Unix.EBADF), _, _) -> false
  in
  let rec loop () =
    match newline !searched with
    | Some i ->
        let line = Buffer.sub pending !start (i - !start) in
        start := i + 1;
        searched := i + 1;
        if !start = Buffer.length pending then begin
          (* all dispatched: drop the buffer, however large it grew *)
          Buffer.reset pending;
          start := 0;
          searched := 0
        end;
        if String.trim line = "" then loop ()
        else begin
          let req_id = Telemetry.fresh_id () in
          let response, keep = handle_request t ~conn_id ~req_id line in
          if respond_safe response && keep then loop ()
        end
    | None ->
        searched := Buffer.length pending;
        if Buffer.length pending - !start > t.cfg.sv_max_request_bytes then begin
          locked t (fun () -> t.c_errors <- t.c_errors + 1);
          ignore
            (respond_safe
               (error_response "bad_request"
                  (Printf.sprintf "request exceeds %d bytes" t.cfg.sv_max_request_bytes)))
        end
        else begin
          match Unix.read fd chunk 0 (Bytes.length chunk) with
          | 0 -> ()  (* client closed (or drain shut down our read side) *)
          | n ->
              if !start > 0 then begin
                (* keep only the partial request: one copy per read, not per line *)
                let rest = Buffer.sub pending !start (Buffer.length pending - !start) in
                Buffer.clear pending;
                Buffer.add_string pending rest;
                searched := !searched - !start;
                start := 0
              end;
              Buffer.add_subbytes pending chunk 0 n;
              loop ()
          | exception Unix.Unix_error (Unix.EINTR, _, _) -> loop ()
          | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) ->
              if Buffer.length pending > !start then begin
                (* mid-request stall: a partial line is buffered and the
                   client went quiet — answer and hang up *)
                locked t (fun () -> t.c_timeouts <- t.c_timeouts + 1);
                Telemetry.count "serve.timeouts";
                ignore
                  (respond_safe
                     (error_response "timeout"
                        (Printf.sprintf "no complete request within %d ms"
                           t.cfg.sv_timeout_ms)))
              end
              else if not (Atomic.get t.stopping) then loop ()
          | exception Unix.Unix_error ((Unix.ECONNRESET | Unix.EBADF), _, _) -> ()
        end
  in
  (try loop ()
   with e ->
     Telemetry.count "serve.errors";
     Telemetry.emit
       ~fields:[ ("conn", J.String conn_id); ("error", J.String (Printexc.to_string e)) ]
       Telemetry.Error "serve.conn.crashed")

(* ---------------- accept loop and drain ---------------- *)

let spawn_conn t fd =
  let conn_id = Telemetry.fresh_id () in
  let key = locked t (fun () ->
      let k = t.next_conn in
      t.next_conn <- k + 1;
      t.c_connections <- t.c_connections + 1;
      k)
  in
  Telemetry.count "serve.connections";
  Telemetry.emit ~fields:[ ("conn", J.String conn_id) ] Telemetry.Info "serve.conn.open";
  let th =
    Thread.create
      (fun () ->
        Fun.protect
          ~finally:(fun () ->
            locked t (fun () -> Hashtbl.remove t.conns key);
            (try Unix.close fd with Unix.Unix_error _ -> ());
            Telemetry.emit ~fields:[ ("conn", J.String conn_id) ] Telemetry.Info "serve.conn.close")
          (fun () -> conn_loop t conn_id fd))
      ()
  in
  (* The thread's own removal may already have run, leaving this a dead
     entry — harmless: the drain joins dead threads instantly and removes
     whatever it joined.  No registration happens after the accept loop
     stops, so the drain's registry snapshot cannot miss a connection. *)
  locked t (fun () -> Hashtbl.replace t.conns key (fd, th))

let rec accept_loop t =
  if not (Atomic.get t.stopping) then begin
    let readable =
      match Unix.select [ t.listen_fd; t.stop_r ] [] [] (-1.0) with
      | r, _, _ -> r
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> []
    in
    if (not (Atomic.get t.stopping)) && List.mem t.listen_fd readable then begin
      (match Unix.accept ~cloexec:true t.listen_fd with
      | fd, _ -> spawn_conn t fd
      | exception
          Unix.Unix_error
            ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR | Unix.ECONNABORTED), _, _) -> ())
    end;
    accept_loop t
  end

(* Drain: in-flight requests finish and respond; idle connections see EOF
   on their read side and exit.  Loops because a connection accepted just
   before the stop flag flipped may register late. *)
let drain_conns t =
  let rec loop () =
    let live =
      locked t (fun () -> Hashtbl.fold (fun k c acc -> (k, c) :: acc) t.conns [])
    in
    match live with
    | [] -> ()
    | conns ->
        List.iter
          (fun (_, (fd, _)) ->
            try Unix.shutdown fd Unix.SHUTDOWN_RECEIVE
            with Unix.Unix_error _ | Invalid_argument _ -> ())
          conns;
        List.iter
          (fun (k, (_, th)) ->
            Thread.join th;
            locked t (fun () -> Hashtbl.remove t.conns k))
          conns;
        loop ()
  in
  loop ()

let stats_of t =
  let _, p50, p99 = latency t in
  locked t (fun () ->
      {
        st_connections = t.c_connections;
        st_requests = t.c_requests;
        st_scans = t.c_scans;
        st_files = t.c_files;
        st_reports = t.c_reports;
        st_cache_hits = t.c_cache_hits;
        st_cache_misses = t.c_cache_misses;
        st_overloaded = t.c_overloaded;
        st_timeouts = t.c_timeouts;
        st_errors = t.c_errors;
        st_degraded = t.c_degraded;
        st_reloads = t.c_reloads;
        st_p50_ms = p50;
        st_p99_ms = p99;
        st_uptime_s = Unix.gettimeofday () -. t.t_start;
        st_model_hash = t.model.Namer.m_hash;
      })

let endpoint_string = function
  | Unix_path p -> "unix:" ^ p
  | Tcp (h, p) -> Printf.sprintf "tcp:%s:%d" h p

let serve_forever t =
  Telemetry.emit
    ~fields:
      [
        ("endpoint", J.String (endpoint_string t.resolved));
        ("model", J.String (model_hash t));
        ("jobs", J.Int t.cfg.sv_jobs);
      ]
    Telemetry.Info "serve.start";
  accept_loop t;
  (try Unix.close t.listen_fd with Unix.Unix_error _ -> ());
  (match t.resolved with
  | Unix_path p -> ( try Sys.remove p with Sys_error _ -> ())
  | Tcp _ -> ());
  drain_conns t;
  Option.iter Pool.shutdown t.pool;
  (try Unix.close t.stop_r with Unix.Unix_error _ -> ());
  (try Unix.close t.stop_w with Unix.Unix_error _ -> ());
  let stats = stats_of t in
  Telemetry.emit
    ~fields:
      [
        ("requests", J.Int stats.st_requests);
        ("scans", J.Int stats.st_scans);
        ("connections", J.Int stats.st_connections);
      ]
    Telemetry.Info "serve.stop";
  stats
