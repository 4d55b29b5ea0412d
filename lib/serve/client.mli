(** Client side of the serve protocol: a blocking newline-delimited JSON
    connection, CLI-equivalent rendering of scan responses, and the
    multi-connection load generator behind [bench/loadtest] and the
    serve-smoke CI job. *)

type target = Unix_path of string | Tcp of string * int

type conn

val connect : ?retry_for:float -> target -> conn
(** Connect to a daemon.  [retry_for] (seconds, default [0.0]) keeps
    retrying refused/absent endpoints — a client racing daemon startup.
    @raise Unix.Unix_error when the endpoint stays unreachable. *)

val close : conn -> unit

val request : conn -> Namer_util.Json.t -> (Namer_util.Json.t, string) result
(** One round trip: send the request as one line, read one response line.
    [Error] covers closed connections and unparseable response lines. *)

val request_raw : conn -> string -> (string, string) result
(** [request] without the JSON encode/decode — sends [line] verbatim
    (newline appended) and returns the raw response line.  Tests use this
    to exercise the daemon's malformed-request handling. *)

val cli_json_of_scan : Namer_util.Json.t -> (Namer_util.Json.t, string) result
(** Project a scan response onto the CLI's [scan --model --json] object:
    same fields, same order, minus the protocol's [ok]/[op] envelope.
    Rendering it with [J.to_string ~indent:2] reproduces the CLI's stdout
    byte-for-byte. *)

val cli_text_of_scan : Namer_util.Json.t -> (string, string) result
(** Render a scan response exactly as the CLI's default text mode prints
    its reports ([file:line: statement] + suggested-fix lines).  The
    serve-smoke CI job diffs this against a real [namer scan --model]
    run. *)

val scan_fingerprint : Namer_util.Json.t -> string
(** Canonical identity of a scan response {e excluding} cache hit/miss
    counters, which legitimately differ between cold and warm requests.
    Two requests over the same files against the same model must have
    equal fingerprints — the load generator's byte-equality check. *)

(** Concurrent load generation. *)
module Load : sig
  type spec = {
    l_clients : int;  (** concurrent connections *)
    l_requests : int;  (** total requests across all clients *)
    l_payload : Namer_util.Json.t;  (** the request every client sends *)
    l_reload_at : int option;
        (** after this many completed requests, send one [reload] (on a
            dedicated extra connection) — exercises hot-swap mid-traffic *)
    l_reload_payload : Namer_util.Json.t;
  }

  val default_spec : payload:Namer_util.Json.t -> spec
  (** 8 clients, 50 requests, no reload. *)

  type result = {
    lr_sent : int;
    lr_ok : int;
    lr_failed : int;  (** transport errors + [ok:false] responses *)
    lr_overloaded : int;  (** [code:"overloaded"] refusals (not failures) *)
    lr_wall_s : float;
    lr_rps : float;  (** completed requests / wall time *)
    lr_p50_ms : float;
    lr_p99_ms : float;
    lr_responses_identical : bool;
        (** all ok scan responses shared one {!scan_fingerprint} *)
    lr_models_seen : string list;
        (** distinct model hashes across ok scan responses (sorted) —
            a reload mid-traffic must yield exactly the old and new *)
    lr_reload_ok : bool;  (** [true] when no reload was requested *)
    lr_sample : string option;  (** one ok scan response, raw line *)
  }

  val run : target -> spec -> result

  val json_of_result : result -> Namer_util.Json.t
  (** The result as one JSON object: what [loadtest --out] writes. *)
end
