(* Per-stage cost pins: a regression in one stage fails here even when the
   total hides it.  For each language the test drives the CLI in fresh
   processes — [namer corpus] of 600 files, [namer train --jobs 1] and
   [namer scan --model --jobs 1] — and reads each run's metric registry
   (the [last_metrics.json] that [namer stats] shows).  Against
   test/stage_costs.json it checks:
   - each stage's span count, exactly;
   - each stage's allocation per file, within 2% either way: above the pin
     is a regression, below it means the pin must ratchet down;
   - every work counter, exactly;
   - that the model scan loads the model and never builds or mines.

   Fresh processes are required because the lexer pool and the global
   interner are process-wide, and a warm table allocates less.  With those
   fixed, allocation at jobs 1 is deterministic, but only for one compiler:
   it is pinned for the pin's "ocaml" minor version, and on any other the
   allocation case reports itself skipped while the counts, counters and
   structure are still checked.  Both cases share one measurement.  On a
   mismatch the measured costs go to stage_costs.fresh.json beside the
   test executable (and the pin it read), ready to replace the pin when
   the change is meant. *)

module J = Namer_util.Json

let files = 600
let tolerance = 0.02
let langs = [ "python"; "java" ]
let here = Filename.dirname Sys.executable_name
let fields = function J.Obj fs -> fs | _ -> []
let field name j = Option.value (List.assoc_opt name (fields j)) ~default:J.Null
let number = function J.Int i -> float_of_int i | J.Float f -> f | _ -> Float.nan

let read_json path =
  match J.parse (Namer_util.Fs.read_file path) with
  | Ok j -> j
  | Error e -> Alcotest.failf "%s: %s" path e

(* one CLI run's registry in pin form: per stage its count and the bytes
   it allocated per corpus file, to the hundredth; then the counters *)
let costs metrics =
  let stage (name, s) =
    let bytes = number (field "alloc_mb" s) *. 1048576.0 /. float_of_int files in
    ( name,
      J.Obj
        [
          ("count", field "count" s);
          ("alloc_bytes_per_file", J.Float (Float.round (bytes *. 100.0) /. 100.0));
        ] )
  in
  J.Obj
    [
      ("stages", J.Obj (List.map stage (fields (field "stages" metrics))));
      ("counters", field "counters" metrics);
    ]

(* train and model-scan a generated corpus of [lang], each CLI run in its
   own process and state directory.  Paths are relative to a scratch
   directory, so their length does not depend on where it lives. *)
let measure lang =
  let dir = Filename.temp_file "namer_stage_costs" "" in
  Sys.remove dir;
  Sys.mkdir dir 0o700;
  Fun.protect ~finally:(fun () ->
      ignore (Sys.command (Printf.sprintf "rm -rf %s" (Filename.quote dir))))
  @@ fun () ->
  let namer cmd args =
    let shell =
      Printf.sprintf "cd %s && XDG_STATE_HOME=%s %s %s %s >/dev/null 2>&1"
        (Filename.quote dir) cmd
        (Filename.quote (Filename.concat here "../bin/namer_cli.exe"))
        cmd args
    in
    if Sys.command shell <> 0 then Alcotest.failf "command failed: %s" shell
  in
  namer "corpus" (Printf.sprintf "--lang %s --files %d --out c" lang files);
  let run cmd =
    namer cmd (Printf.sprintf "--lang %s --jobs 1 --metrics --no-ledger --model m.nmdl c" lang);
    costs (read_json (Filename.concat dir (cmd ^ "/namer/last_metrics.json")))
  in
  let train = run "train" in
  J.Obj [ ("train", train); ("scan", run "scan") ]

(* what [fresh] breaks of [pinned], one line per stage or counter, each
   naming it: with [~alloc] each stage's allocation per file, otherwise
   which stages ran, their counts and the counters *)
let compare_run ~alloc ~what pinned fresh =
  let stages j = fields (field "stages" j) and counters j = fields (field "counters" j) in
  (* names of [xs] absent from [ys] *)
  let only kind xs ys msg =
    List.filter_map
      (fun (name, _) ->
        if List.mem_assoc name ys then None
        else Some (Printf.sprintf "%s: %s %s %s" what kind name msg))
      xs
  in
  let stage (name, p) =
    match List.assoc_opt name (stages fresh) with
    | None -> []
    | Some f ->
        let count j = number (field "count" j)
        and bytes j = number (field "alloc_bytes_per_file" j) in
        if alloc then
          if Float.abs (bytes f -. bytes p) > tolerance *. bytes p then
            [
              Printf.sprintf "%s: stage %s allocates %.2f B/file, %+.1f%% off the pin %.2f"
                what name (bytes f)
                (100.0 *. ((bytes f /. bytes p) -. 1.0))
                (bytes p);
            ]
          else []
        else if count f <> count p then
          [
            Printf.sprintf "%s: stage %s ran %.0f times, pinned %.0f" what name (count f)
              (count p);
          ]
        else []
  in
  let counter (name, p) =
    match List.assoc_opt name (counters fresh) with
    | Some f when f <> p ->
        [
          Printf.sprintf "%s: counter %s is %.0f, pinned %.0f" what name (number f)
            (number p);
        ]
    | _ -> []
  in
  if alloc then List.concat_map stage (stages pinned)
  else
    only "stage" (stages pinned) (stages fresh) "is pinned but did not run"
    @ only "stage" (stages fresh) (stages pinned) "ran but is not pinned"
    @ List.concat_map stage (stages pinned)
    @ only "counter" (counters pinned) (counters fresh) "is pinned but was not counted"
    @ only "counter" (counters fresh) (counters pinned) "was counted but is not pinned"
    @ List.concat_map counter (counters pinned)

(* loading beats retraining, structurally: a model scan loads the model
   and runs no build or mining stage *)
let scan_structure ~lang scan =
  let names = List.map fst (fields (field "stages" scan)) in
  (if List.mem "model:load" names then []
   else [ Printf.sprintf "%s scan: no model:load stage" lang ])
  @ List.filter_map
      (fun n ->
        if n = "build" || n = "pattern-mining" || String.starts_with ~prefix:"mine:" n then
          Some (Printf.sprintf "%s scan: ran the training stage %s" lang n)
        else None)
      names

let minor_version v =
  match String.split_on_char '.' v with a :: b :: _ -> a ^ "." ^ b | _ -> v

let pin = lazy (read_json (Filename.concat here "stage_costs.json"))
let fresh = lazy (List.map (fun lang -> (lang, measure lang)) langs)

(* fail with [failures], if any, after writing the measured costs where
   the pin can be replaced from *)
let check failures =
  if failures <> [] then begin
    let out = Filename.concat here "stage_costs.fresh.json" in
    Out_channel.with_open_bin out (fun oc ->
        let header = [ ("ocaml", J.String (minor_version Sys.ocaml_version)) ] in
        output_string oc
          (J.to_string ~indent:2
             (J.Obj (header @ [ ("files", J.Int files) ] @ Lazy.force fresh))));
    Alcotest.failf "%s\n(measured costs written to %s)" (String.concat "\n" failures) out
  end

let failures ~alloc =
  List.concat_map
    (fun (lang, runs) ->
      List.concat_map
        (fun run ->
          compare_run ~alloc ~what:(lang ^ " " ^ run)
            (field run (field lang (Lazy.force pin)))
            (field run runs))
        [ "train"; "scan" ]
      @ if alloc then [] else scan_structure ~lang (field "scan" runs))
    (Lazy.force fresh)

let test_counts () = check (failures ~alloc:false)

let test_alloc () =
  let pinned = match field "ocaml" (Lazy.force pin) with J.String v -> v | _ -> "" in
  if minor_version Sys.ocaml_version <> pinned then Alcotest.skip ();
  check (failures ~alloc:true)

let suite =
  [
    Alcotest.test_case "train and model scan match the pin" `Quick test_counts;
    Alcotest.test_case "stage allocation matches the pin (pinned OCaml only)" `Quick
      test_alloc;
  ]
