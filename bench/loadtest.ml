(* Load generator for the serve daemon.

   Drives N concurrent connections at a running [namer serve], measures
   requests/sec and latency percentiles, verifies that every ok response
   is identical (modulo cache hit/miss counters), and can fire one model
   reload mid-traffic to exercise hot-swap under load.  The serve-smoke
   CI job drives 50 concurrent requests through this and diffs the dumped
   CLI-format output against a real [namer scan --model] run.

   Usage:
     dune exec bench/loadtest.exe -- --socket /tmp/namer.sock \
       --dir corpus/ --clients 8 --requests 50 \
       --reload-at 20 --expect-identical --dump-text sample.txt *)

module J = Namer_util.Json
module Client = Namer_serve.Client

let () =
  let socket = ref "" in
  let host = ref "127.0.0.1" in
  let port = ref 0 in
  let dir = ref "" in
  let payload = ref "" in
  let clients = ref 8 in
  let requests = ref 50 in
  let reload_at = ref 0 in
  let reload_model = ref "" in
  let out = ref "" in
  let dump_text = ref "" in
  let dump_json = ref "" in
  let expect_identical = ref false in
  let shutdown = ref false in
  let max_reports = ref 0 in
  let args =
    [
      ("--socket", Arg.Set_string socket, "PATH daemon Unix socket");
      ("--host", Arg.Set_string host, "HOST daemon TCP host (default 127.0.0.1)");
      ("--port", Arg.Set_int port, "PORT daemon TCP port");
      ("--dir", Arg.Set_string dir, "DIR scan this server-side directory");
      ("--payload", Arg.Set_string payload, "JSON raw request payload (overrides --dir)");
      ("--clients", Arg.Set_int clients, "N concurrent connections (default 8)");
      ("--requests", Arg.Set_int requests, "N total requests (default 50)");
      ( "--max-reports",
        Arg.Set_int max_reports,
        "N cap reports per response (default: all)" );
      ( "--reload-at",
        Arg.Set_int reload_at,
        "N send one reload after N completed requests (0 = never)" );
      ( "--reload-model",
        Arg.Set_string reload_model,
        "FILE snapshot the mid-traffic reload switches to (default: current)" );
      ("--out", Arg.Set_string out, "FILE write the result object as JSON");
      ( "--dump-text",
        Arg.Set_string dump_text,
        "FILE write one response rendered as CLI text reports" );
      ( "--dump-json",
        Arg.Set_string dump_json,
        "FILE write one response rendered as CLI scan --json output" );
      ( "--expect-identical",
        Arg.Set expect_identical,
        " exit 1 unless all responses were identical and none failed" );
      ("--shutdown", Arg.Set shutdown, " send a shutdown request when done");
    ]
  in
  Arg.parse args
    (fun a -> raise (Arg.Bad (Printf.sprintf "unexpected argument %S" a)))
    "loadtest: drive concurrent scan requests at a namer serve daemon";
  let target =
    if !socket <> "" then Client.Unix_path !socket
    else if !port > 0 then Client.Tcp (!host, !port)
    else (
      prerr_endline "loadtest: need --socket or --port";
      exit 2)
  in
  let scan_payload =
    if !payload <> "" then
      match J.parse !payload with
      | Ok j -> j
      | Error e ->
          Printf.eprintf "loadtest: --payload is not valid JSON: %s\n" e;
          exit 2
    else if !dir <> "" then
      J.Obj
        ([ ("op", J.String "scan"); ("dir", J.String !dir) ]
        @ if !max_reports > 0 then [ ("max_reports", J.Int !max_reports) ] else [])
    else (
      prerr_endline "loadtest: need --dir or --payload";
      exit 2)
  in
  let spec =
    {
      (Client.Load.default_spec ~payload:scan_payload) with
      Client.Load.l_clients = !clients;
      l_requests = !requests;
      l_reload_at = (if !reload_at > 0 then Some !reload_at else None);
      l_reload_payload =
        J.Obj
          (( "op", J.String "reload" )
          ::
          (if !reload_model <> "" then [ ("model", J.String !reload_model) ] else []));
    }
  in
  let result = Client.Load.run target spec in
  if !shutdown then begin
    let c = Client.connect ~retry_for:5.0 target in
    ignore (Client.request c (J.Obj [ ("op", J.String "shutdown") ]));
    Client.close c
  end;
  let result_json =
    match Client.Load.json_of_result result with
    | J.Obj fields -> J.Obj (("clients", J.Int !clients) :: fields)
    | j -> j
  in
  print_endline (J.to_string ~indent:2 result_json);
  if !out <> "" then begin
    let oc = open_out !out in
    output_string oc (J.to_string ~indent:2 result_json);
    output_char oc '\n';
    close_out oc
  end;
  (match (!dump_text, result.Client.Load.lr_sample) with
  | "", _ | _, None -> ()
  | path, Some raw -> (
      match Result.bind (J.parse raw |> Result.map_error (fun e -> e)) Client.cli_text_of_scan with
      | Ok text ->
          let oc = open_out path in
          output_string oc text;
          close_out oc
      | Error e ->
          Printf.eprintf "loadtest: cannot render sample as text: %s\n" e;
          exit 1));
  (match (!dump_json, result.Client.Load.lr_sample) with
  | "", _ | _, None -> ()
  | path, Some raw -> (
      match Result.bind (J.parse raw) Client.cli_json_of_scan with
      | Ok j ->
          let oc = open_out path in
          (* print_endline-equivalent: the CLI emits indent-2 JSON + \n *)
          output_string oc (J.to_string ~indent:2 j);
          output_char oc '\n';
          close_out oc
      | Error e ->
          Printf.eprintf "loadtest: cannot render sample as CLI JSON: %s\n" e;
          exit 1));
  if
    !expect_identical
    && not
         (result.Client.Load.lr_responses_identical
         && result.Client.Load.lr_failed = 0
         && result.Client.Load.lr_ok > 0
         && result.Client.Load.lr_reload_ok)
  then begin
    prerr_endline "loadtest: FAILED — responses diverged, failed or reload broke";
    exit 1
  end
