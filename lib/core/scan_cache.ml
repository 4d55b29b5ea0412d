module Snapshot = Namer_model.Snapshot
module Binio = Namer_model.Binio
module Telemetry = Namer_telemetry.Telemetry

type entry = {
  e_line : int;
  e_prefix : string;
  e_found : string;
  e_suggested : string;
  e_kind : string;
}

let magic = "NAMERRPT"
let version = 1

let src_digest source = Digest.to_hex (Digest.string source)

let entry_path ~dir ~model_hash ~src_digest =
  Filename.concat (Filename.concat dir model_hash) (src_digest ^ ".rpt")

let encode entries =
  let w = Binio.W.create () in
  Binio.W.u32 w (List.length entries);
  List.iter
    (fun e ->
      Binio.W.i64 w e.e_line;
      Binio.W.str w e.e_prefix;
      Binio.W.str w e.e_found;
      Binio.W.str w e.e_suggested;
      Binio.W.str w e.e_kind)
    entries;
  let bytes, _hash = Snapshot.encode ~magic ~version [ ("reports", Binio.W.contents w) ] in
  bytes

let decode ~path bytes =
  let sections, _hash = Snapshot.decode ~magic ~desc:"cache entry" ~version ~path bytes in
  let r = Binio.R.of_string (Snapshot.section ~desc:"cache entry" sections "reports") in
  let n = Binio.R.u32 r in
  (* explicit loop: the reader is stateful, so the read order must be the
     entry order, which List.init does not promise *)
  let entries = ref [] in
  for _ = 1 to n do
    let e_line = Binio.R.i64 r in
    let e_prefix = Binio.R.str r in
    let e_found = Binio.R.str r in
    let e_suggested = Binio.R.str r in
    let e_kind = Binio.R.str r in
    entries := { e_line; e_prefix; e_found; e_suggested; e_kind } :: !entries
  done;
  List.rev !entries

let find ~dir ~model_hash ~src_digest =
  let path = entry_path ~dir ~model_hash ~src_digest in
  if not (Sys.file_exists path) then None
  else
    let bytes = Snapshot.read_file ~desc:"cache entry" ~path in
    (* fault point: hand back corrupt bytes, as a flipped bit on disk
       would — the decode below must degrade to a self-healing miss *)
    let bytes =
      if Namer_util.Fault.fires "scan_cache.read" && bytes <> "" then begin
        let b = Bytes.of_string bytes in
        let i = Bytes.length b / 2 in
        Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor 0xa5));
        Bytes.to_string b
      end
      else bytes
    in
    match decode ~path bytes with
    | entries -> Some entries
    | exception (Snapshot.Error _ | Binio.R.Corrupt _) ->
        (* undecodable = miss: the caller rescans and overwrites the entry *)
        Telemetry.count "scan_cache.undecodable";
        Telemetry.emit
          ~fields:[ ("entry", Namer_util.Json.String path) ]
          Telemetry.Warn "scan_cache.undecodable";
        None

(* Best-effort and atomic: [Snapshot.write] publishes via temp + rename,
   so when two processes (the serve daemon and a CLI scan) populate the
   same [<model-hash>/<md5>.rpt] concurrently, each renames its own
   complete temp file and a reader can never see a torn interleaving —
   last rename wins, and both writers produced identical bytes anyway
   (the entry is a pure function of the key).  Failures only cost the
   cache entry, never the scan. *)
let store ~dir ~model_hash ~src_digest entries =
  let path = entry_path ~dir ~model_hash ~src_digest in
  try
    Namer_util.Fs.mkdir_p (Filename.dirname path);
    Snapshot.write ~path (encode entries)
  with Sys_error _ | Unix.Unix_error _ -> Telemetry.count "scan_cache.write_failures"
