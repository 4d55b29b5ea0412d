exception Error of string

let errf fmt = Printf.ksprintf (fun s -> raise (Error s)) fmt

let encode ~magic ~version sections =
  if String.length magic <> 8 then invalid_arg "Snapshot.encode: magic must be 8 bytes";
  (* sized exactly: a cache entry of a few hundred bytes allocates no more *)
  let size =
    List.fold_left
      (fun n (name, payload) -> n + 8 + String.length name + String.length payload)
      24 sections
  in
  let b = Binio.W.create ~size () in
  Binio.W.raw b magic;
  Binio.W.u32 b version;
  Binio.W.u32 b (List.length sections);
  List.iter
    (fun (name, payload) ->
      Binio.W.str b name;
      Binio.W.str b payload)
    sections;
  let body = Binio.W.contents b in
  let sum = Binio.fnv1a64 body in
  Binio.W.i64_bits b sum;
  (Binio.W.contents b, Binio.hex64 sum)

let decode ~magic ~desc ~version ?path bytes =
  let where = match path with Some p -> Printf.sprintf " %s" p | None -> "" in
  let n = String.length bytes in
  if n < 8 + 4 + 4 + 8 then
    errf "%s%s is truncated (%d bytes; smaller than any valid header)" desc where n;
  let got_magic = String.sub bytes 0 8 in
  if not (String.equal got_magic magic) then
    errf "%s%s is not a %s: bad magic %S (expected %S)" desc where desc got_magic magic;
  let body_len = n - 8 in
  let stored = String.get_int64_le bytes body_len in
  let computed = Binio.fnv1a64 ~len:body_len bytes in
  if not (Int64.equal stored computed) then
    errf
      "%s%s failed its checksum (stored %s, computed %s) — the file is corrupted or was \
       truncated mid-write; regenerate it"
      desc where (Binio.hex64 stored) (Binio.hex64 computed);
  let r = Binio.R.of_string (String.sub bytes 8 (body_len - 8)) in
  (try
     let got_version = Binio.R.u32 r in
     if got_version <> version then
       errf
         "%s%s has format version %d but this binary reads version %d — re-run `namer \
          train` to regenerate it"
         desc where got_version version;
     let count = Binio.R.u32 r in
     (* explicit loop: the reader is stateful, so the read order must be
        the section order, which List.init does not promise *)
     let sections = ref [] in
     for _ = 1 to count do
       let name = Binio.R.str r in
       let payload = Binio.R.str r in
       sections := (name, payload) :: !sections
     done;
     let sections = List.rev !sections in
     if Binio.R.remaining r <> 0 then
       errf "%s%s has %d trailing byte(s) after the section table" desc where
         (Binio.R.remaining r);
     (sections, Binio.hex64 computed)
   with Binio.R.Corrupt msg -> errf "%s%s is corrupt: %s" desc where msg)

(* Atomic publish: write to a fresh O_EXCL temp file in the target
   directory, then rename over [path].  This writes models and partials,
   not the scan cache (which appends to a pack, see Scan_cache).
   Concurrent writers (a background retrain replacing a live model) each
   rename their own complete temp file, so a reader only ever sees some
   complete version — never a torn interleaving.  Flush errors
   must fail the write *before* the rename (renaming a torn temp would
   publish garbage over a possibly-valid entry), and a failed attempt
   must not leak its temp file.  [perm] is applied to the temp file before
   the rename, so the published file never shows the temp file's 0600. *)
let write ?perm ~path bytes =
  let dir = Filename.dirname path in
  let tmp = Filename.temp_file ~temp_dir:dir (Filename.basename path) ".tmp" in
  match
    let oc = open_out_bin tmp in
    (try
       output_string oc bytes;
       flush oc
     with e ->
       close_out_noerr oc;
       raise e);
    close_out oc;
    Option.iter (Unix.chmod tmp) perm;
    Sys.rename tmp path
  with
  | () -> ()
  | exception e ->
      (try Sys.remove tmp with Sys_error _ -> ());
      raise e

let read_file ~desc ~path =
  try Namer_util.Fs.read_file path
  with Sys_error msg -> errf "cannot read %s %s: %s" desc path msg

let section ~desc sections name =
  match List.assoc_opt name sections with
  | Some payload -> payload
  | None -> errf "%s is missing its %S section — regenerate it" desc name

(* Section-scoped decoding: a reader failure inside a section names that
   section, not just a byte offset — "its \"patterns\" section is corrupt"
   points at the damage; a bare offset into the container does not. *)
let read_section ~desc sections name f =
  let r = Binio.R.of_string (section ~desc sections name) in
  try f r with
  | Binio.R.Corrupt msg -> errf "%s: its %S section is corrupt: %s" desc name msg
  | Invalid_argument msg ->
      errf "%s: its %S section holds malformed data: %s" desc name msg
