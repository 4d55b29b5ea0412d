(** [namer serve] — a resident scan daemon.

    The train-once / scan-many split (DESIGN.md §8) makes the cold CLI
    start the dominant cost of a scan: loading a model is ~3 ms and a warm
    cached scan ~3 ms, yet every [namer scan --model] invocation pays
    process startup, model load and cache probing from scratch.  The serve
    daemon loads a {!Namer_core.Namer.model} snapshot {e once} and answers
    scan requests over a Unix or TCP socket for as long as it lives, so a
    single resident process sustains hundreds of requests per second.

    {2 Protocol}

    Newline-delimited JSON: the client writes one JSON object per line,
    the daemon answers each with exactly one JSON line.  A connection is
    keep-alive — any number of requests may be issued sequentially on it.

    Requests ([op] selects the operation):
    - [{"op":"scan","dir":DIR}] — scan every model-language file under a
      server-side directory, found by the CLI's walk
      ({!Namer_core.Namer.refs_of_dir});
    - [{"op":"scan","files":[PATH,…]}] — scan server-side files;
    - [{"op":"scan","sources":[{"path":P,"source":S},…]}] — scan inline
      sources shipped in the request;
    - a [dir] or [files] source is read on the worker that scans it and
      dropped after matching, as in a CLI scan; a file that cannot be
      read becomes a [skipped] entry with its reason and the other files
      are still scanned.  A missing [dir], an empty list, or a [dir] with
      no file of the model's language answers [bad_request];
    - optional [{"max_reports":N}] on any scan caps the rendered report
      list (the [violations] count stays exact);
    - [{"op":"status"}] — model identity, counters, pool, interner
      sizes ([{"prefixes","ends","paths"}]) and latency snapshot (see
      {e Counters} below);
    - [{"op":"reload"}] or [{"op":"reload","model":PATH}] — hot-swap the
      model (see below);
    - [{"op":"shutdown"}] — acknowledge, then drain and exit.

    Responses always carry [{"ok":true|false}]; failures add
    [{"code":"bad_request"|"overloaded"|"timeout"|"degraded"|"internal",
    "error":MSG}].  A scan response carries the fields of
    [namer scan --model --json] ([files], [model], [patterns],
    [violations], [cache_hits], [cache_misses], [files_skipped],
    [skipped], [reports]), built by the same
    {!Namer_core.Namer.scan_json_fields}, so daemon output converts to
    CLI output byte for byte ({!Client.cli_json_of_scan},
    {!Client.cli_text_of_scan}).

    {2 Concurrency and the model lock}

    Each connection is handled by its own thread; scans fan their
    per-file tasks onto one resident {!Namer_parallel.Pool} shared by
    every request ([sv_jobs > 1]).  Connection threads only await that
    pool, never run its tasks, so they do not stall the accept loop.  A
    scan digests against its model's read-only scan vocabulary and never
    touches the global name-path interner, so scans run concurrently
    with each other and with a reload, and the interner does not grow
    with novel files ([status] reports its sizes under [interner]).
    Model loads preload the interner, which is single-writer (DESIGN.md
    §11), so the model lock serializes reloads against each other and
    nothing else.  The
    content-addressed scan cache ([sv_cache_dir]) is shared across
    requests and with concurrent CLI scans: one append-only pack per
    model, each record appended by a single write, which every process
    indexes as it finds new records (DESIGN.md §8).  A reload closes the
    replaced model's pack once its last in-flight scan is done; a reload
    back to it reopens the pack.

    {2 Robustness}

    - {e Hot swap}: [reload] loads and validates the new snapshot under
      the model lock, then atomically swaps the model reference.
      Requests already in flight finish on the model they captured;
      every response names the model hash it was computed with, so a
      request straddling a reload sees exactly one model.  A snapshot
      that fails validation leaves the old model serving.
    - {e Backpressure}: at most [sv_max_concurrent] scans are admitted at
      once; excess scan requests are answered immediately with
      [code = "overloaded"] instead of queueing without bound.
    - {e Timeouts}: a connection that stalls mid-request (partial line,
      no progress for [sv_timeout_ms]) is answered with
      [code = "timeout"] and closed.  Idle keep-alive connections are
      not penalized.
    - {e Per-request isolation}: the [serve.request] fault point and any
      unexpected handler exception degrade to a structured error
      response; the daemon stays up (the scan pipeline's own per-file
      isolation applies inside scans, surfacing as [skipped] entries).
    - {e Drain}: SIGTERM/SIGINT (via {!request_stop}) stop the accept
      loop, let in-flight requests finish and close idle connections;
      the CLI then lands {!ledger_json} as one [serve] row in the run
      ledger.

    {2 Counters}

    The daemon keeps no counters of its own: it counts into the
    telemetry registry ({!Namer_telemetry.Telemetry.count}), and
    [status], the drain summary and {!ledger_json} read them back from
    there.  [status]'s [requests], [scans], [overloaded], [timeouts],
    [errors], [degraded], [reloads] and [connections] are the registry's
    [serve.*] counters of those names; [cache.hits] and [cache.misses]
    are [scan_cache.hits] and [scan_cache.misses]; [latency_ms] is the
    [serve.request_ms] histogram.  Counts run from the process's last
    {!Namer_telemetry.Telemetry.reset} ([namer serve] resets at
    start-up), which is the daemon's lifetime as long as the process
    runs one daemon. *)

(** Where the daemon listens.  [Tcp (host, 0)] binds an ephemeral port —
    read the resolved endpoint back with {!endpoint}. *)
type endpoint = Unix_path of string | Tcp of string * int

type config = {
  sv_model_path : string;  (** snapshot to load and serve *)
  sv_endpoint : endpoint;
  sv_cache_dir : string option;
      (** shared content-addressed report cache (DESIGN.md §8) *)
  sv_jobs : int;
      (** domains in all, the I/O domain included: the resident pool
          gets [sv_jobs - 1] workers; [<= 1] scans inline, with no pool *)
  sv_max_concurrent : int;  (** admitted scans before [overloaded] *)
  sv_timeout_ms : int;  (** mid-request stall budget per connection *)
  sv_max_request_bytes : int;  (** request-line size cap *)
}

val default_config : model_path:string -> endpoint -> config
(** jobs = recommended domain count, 64 concurrent scans, 30 s timeout,
    8 MiB request cap, no cache. *)

type t

val create : config -> t
(** Load the model, bind and listen.  Replaces a stale Unix socket file,
    but refuses one another daemon is still accepting on.  Turns telemetry
    recording on ([Memory]) when the sink is [Null], so [status] counts
    without a ledger too; a sink already on is left as it is.
    @raise Namer_model.Snapshot.Error on an unreadable/corrupt snapshot.
    @raise Unix.Unix_error if the endpoint cannot be bound. *)

val endpoint : t -> endpoint
(** The bound endpoint, with an ephemeral TCP port resolved. *)

val model_hash : t -> string
(** Hash of the currently-served model (changes on reload). *)

val serve_forever : t -> unit
(** Run the accept loop until {!request_stop} (or a [shutdown] request),
    then drain in-flight requests and close the socket.  Call at most
    once. *)

val ledger_json : t -> Namer_util.Json.t
(** The ledger row's [serve] object, read from the registry (see
    {e Counters}): [status]'s counters, [files_scanned] and [reports]
    (the registry's [serve.files] and [scan_model.reports]), [cache]
    hits and misses, [request_p50_ms], [request_p99_ms], [uptime_s] and
    the [model_hash] serving now. *)

val request_stop : t -> unit
(** Begin a graceful drain; safe to call from a signal handler or any
    thread, idempotent. *)
