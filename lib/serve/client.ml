module J = Namer_util.Json
module Stats_u = Namer_util.Stats
module Namer = Namer_core.Namer

type target = Unix_path of string | Tcp of string * int

type conn = { fd : Unix.file_descr; mutable leftover : string }

let sockaddr = function
  | Unix_path path -> (Unix.PF_UNIX, Unix.ADDR_UNIX path)
  | Tcp (host, port) ->
      let addr =
        try (Unix.gethostbyname host).Unix.h_addr_list.(0)
        with Not_found -> Unix.inet_addr_of_string host
      in
      (Unix.PF_INET, Unix.ADDR_INET (addr, port))

let connect ?(retry_for = 0.0) target =
  let domain, addr = sockaddr target in
  let deadline = Unix.gettimeofday () +. retry_for in
  let rec attempt () =
    let fd = Unix.socket ~cloexec:true domain Unix.SOCK_STREAM 0 in
    match Unix.connect fd addr with
    | () -> { fd; leftover = "" }
    | exception Unix.Unix_error ((Unix.ECONNREFUSED | Unix.ENOENT) as e, fn, arg) ->
        (try Unix.close fd with Unix.Unix_error _ -> ());
        if Unix.gettimeofday () < deadline then begin
          Unix.sleepf 0.05;
          attempt ()
        end
        else raise (Unix.Unix_error (e, fn, arg))
    | exception e ->
        (try Unix.close fd with Unix.Unix_error _ -> ());
        raise e
  in
  attempt ()

let close conn = try Unix.close conn.fd with Unix.Unix_error _ -> ()

let write_all fd s =
  let b = Bytes.of_string s in
  let n = Bytes.length b in
  let off = ref 0 in
  while !off < n do
    off := !off + Unix.write fd b !off (n - !off)
  done

let recv_line conn =
  let chunk = Bytes.create 65536 in
  let rec loop () =
    match String.index_opt conn.leftover '\n' with
    | Some i ->
        let line = String.sub conn.leftover 0 i in
        conn.leftover <-
          String.sub conn.leftover (i + 1) (String.length conn.leftover - i - 1);
        Some line
    | None -> (
        match Unix.read conn.fd chunk 0 (Bytes.length chunk) with
        | 0 -> None
        | n ->
            conn.leftover <- conn.leftover ^ Bytes.sub_string chunk 0 n;
            loop ()
        | exception Unix.Unix_error (Unix.EINTR, _, _) -> loop ())
  in
  loop ()

let request_raw conn line =
  match write_all conn.fd (line ^ "\n") with
  | () -> (
      match recv_line conn with
      | Some response -> Ok response
      | None -> Error "connection closed by daemon"
      | exception Unix.Unix_error (e, _, _) ->
          Error ("recv: " ^ Unix.error_message e))
  | exception Unix.Unix_error (e, _, _) -> Error ("send: " ^ Unix.error_message e)

let request conn json =
  match request_raw conn (J.to_string json) with
  | Error _ as e -> e
  | Ok line -> (
      match J.parse line with
      | Ok j -> Ok j
      | Error msg -> Error ("response is not valid JSON: " ^ msg))

(* The CLI scan object is the serve scan response minus the protocol
   envelope; the field whitelist keeps the CLI's exact order. *)
let cli_fields =
  [
    "files";
    "model";
    "patterns";
    "violations";
    "cache_hits";
    "cache_misses";
    "files_skipped";
    "skipped";
    "reports";
  ]

let cli_json_of_scan response =
  match response with
  | J.Obj fields ->
      if List.assoc_opt "ok" fields <> Some (J.Bool true) then
        Error ("not an ok scan response: " ^ J.to_string response)
      else begin
        let projected =
          List.filter (fun (k, _) -> List.mem k cli_fields) fields
        in
        if List.map fst projected <> cli_fields then
          Error ("scan response misses CLI fields: " ^ J.to_string response)
        else Ok (J.Obj projected)
      end
  | _ -> Error "scan response is not an object"

(* One JSON report back to its text form.  The JSON carries no offending
   prefix, which the text form does not show; a missing field renders
   empty, as a diff against real CLI output then shows. *)
let report_text_of_json = function
  | J.Obj fs ->
      let str k = match List.assoc_opt k fs with Some (J.String v) -> v | _ -> "" in
      let r_line = match List.assoc_opt "line" fs with Some (J.Int n) -> n | _ -> 0 in
      Namer.report_text ~statement:(str "statement")
        {
          Namer.r_file = str "file";
          r_line;
          r_prefix = "";
          r_found = str "found";
          r_suggested = str "suggested";
          r_kind = str "pattern";
        }
  | _ -> ""

let cli_text_of_scan response =
  match cli_json_of_scan response with
  | Error _ as e -> e
  | Ok (J.Obj fields) -> (
      match List.assoc_opt "reports" fields with
      | Some (J.List reports) -> Ok (String.concat "" (List.map report_text_of_json reports))
      | _ -> Ok "")
  | Ok _ -> Error "scan response is not an object"

let scan_fingerprint response =
  match response with
  | J.Obj fields ->
      let keep =
        List.filter
          (fun (k, _) -> List.mem k cli_fields && k <> "cache_hits" && k <> "cache_misses")
          fields
      in
      J.to_string (J.Obj keep)
  | j -> J.to_string j

module Load = struct
  type spec = {
    l_clients : int;
    l_requests : int;
    l_payload : J.t;
    l_reload_at : int option;
    l_reload_payload : J.t;
  }

  let default_spec ~payload =
    {
      l_clients = 8;
      l_requests = 50;
      l_payload = payload;
      l_reload_at = None;
      l_reload_payload = J.Obj [ ("op", J.String "reload") ];
    }

  type result = {
    lr_sent : int;
    lr_ok : int;
    lr_failed : int;
    lr_overloaded : int;
    lr_wall_s : float;
    lr_rps : float;
    lr_p50_ms : float;
    lr_p99_ms : float;
    lr_responses_identical : bool;
    lr_models_seen : string list;
    lr_reload_ok : bool;
    lr_sample : string option;
  }

  let run target spec =
    let lock = Mutex.create () in
    let next = ref 0 in
    let completed = ref 0 in
    let ok = ref 0 in
    let failed = ref 0 in
    let overloaded = ref 0 in
    let latencies = ref [] in
    let fingerprints = Hashtbl.create 4 in
    let models = Hashtbl.create 4 in
    let sample = ref None in
    let reload_fired = ref false in
    let reload_ok = ref (spec.l_reload_at = None) in
    let payload_line = J.to_string spec.l_payload in
    let locked f = Mutex.protect lock f in
    (* The client that crosses the reload threshold performs the reload on
       its own fresh connection, so scan traffic keeps flowing around it. *)
    let maybe_reload () =
      match spec.l_reload_at with
      | None -> ()
      | Some at ->
          let fire =
            locked (fun () ->
                if (not !reload_fired) && !completed >= at then begin
                  reload_fired := true;
                  true
                end
                else false)
          in
          if fire then begin
            let c = connect ~retry_for:5.0 target in
            let r =
              match request c spec.l_reload_payload with
              | Ok (J.Obj fields) -> List.assoc_opt "ok" fields = Some (J.Bool true)
              | _ -> false
            in
            close c;
            locked (fun () -> reload_ok := r)
          end
    in
    let classify_response raw =
      match J.parse raw with
      | Error _ -> `Failed
      | Ok (J.Obj fields as j) ->
          if List.assoc_opt "ok" fields = Some (J.Bool true) then begin
            (match List.assoc_opt "model" fields with
            | Some (J.String h) -> locked (fun () -> Hashtbl.replace models h ())
            | _ -> ());
            locked (fun () ->
                Hashtbl.replace fingerprints (scan_fingerprint j) ();
                if !sample = None then sample := Some raw);
            `Ok
          end
          else if List.assoc_opt "code" fields = Some (J.String "overloaded") then
            `Overloaded
          else `Failed
      | Ok _ -> `Failed
    in
    let client_thread () =
      let conn = connect ~retry_for:5.0 target in
      let rec loop () =
        let mine = locked (fun () ->
            if !next >= spec.l_requests then None
            else begin
              incr next;
              Some ()
            end)
        in
        match mine with
        | None -> ()
        | Some () ->
            let t0 = Unix.gettimeofday () in
            let outcome =
              match request_raw conn payload_line with
              | Ok raw -> classify_response raw
              | Error _ -> `Failed
            in
            let ms = (Unix.gettimeofday () -. t0) *. 1000.0 in
            locked (fun () ->
                incr completed;
                latencies := ms :: !latencies;
                match outcome with
                | `Ok -> incr ok
                | `Overloaded -> incr overloaded
                | `Failed -> incr failed);
            maybe_reload ();
            loop ()
      in
      Fun.protect ~finally:(fun () -> close conn) loop
    in
    let t0 = Unix.gettimeofday () in
    let threads =
      List.init (max 1 spec.l_clients) (fun _ -> Thread.create client_thread ())
    in
    List.iter Thread.join threads;
    let wall = Unix.gettimeofday () -. t0 in
    let lats = !latencies in
    let models_seen =
      Hashtbl.fold (fun h () acc -> h :: acc) models [] |> List.sort compare
    in
    {
      lr_sent = !completed;
      lr_ok = !ok;
      lr_failed = !failed;
      lr_overloaded = !overloaded;
      lr_wall_s = wall;
      lr_rps = (if wall > 0.0 then float_of_int !completed /. wall else 0.0);
      lr_p50_ms = (match lats with [] -> 0.0 | _ -> Stats_u.percentile 50.0 lats);
      lr_p99_ms = (match lats with [] -> 0.0 | _ -> Stats_u.percentile 99.0 lats);
      lr_responses_identical = Hashtbl.length fingerprints <= 1;
      lr_models_seen = models_seen;
      lr_reload_ok = !reload_ok;
      lr_sample = !sample;
    }

  let json_of_result r =
    J.Obj
      [
        ("requests", J.Int r.lr_sent);
        ("ok", J.Int r.lr_ok);
        ("failed", J.Int r.lr_failed);
        ("overloaded", J.Int r.lr_overloaded);
        ("wall_s", J.Float r.lr_wall_s);
        ("rps", J.Float r.lr_rps);
        ("p50_ms", J.Float r.lr_p50_ms);
        ("p99_ms", J.Float r.lr_p99_ms);
        ("responses_identical", J.Bool r.lr_responses_identical);
        ("models_seen", J.List (List.map (fun h -> J.String h) r.lr_models_seen));
        ("reload_ok", J.Bool r.lr_reload_ok);
      ]
  end
