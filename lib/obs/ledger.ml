(** Append-only run ledger.  See the interface for the crash-safety
    contract. *)

module J = Namer_util.Json

let schema_version = 1

let default_dir () =
  let base =
    match Sys.getenv_opt "XDG_STATE_HOME" with
    | Some d when d <> "" -> d
    | _ -> (
        match Sys.getenv_opt "HOME" with
        | Some h when h <> "" -> Filename.concat h ".local/state"
        | _ -> Filename.get_temp_dir_name ())
  in
  Filename.concat base "namer"

let path ~dir = Filename.concat dir "ledger.jsonl"

let write_all fd s =
  let b = Bytes.of_string s in
  let n = Bytes.length b in
  let rec go off =
    if off < n then go (off + Unix.write fd b off (n - off))
  in
  go 0

let append ~dir record =
  Namer_util.Fs.mkdir_p dir;
  let file = path ~dir in
  let fd = Unix.openfile file [ Unix.O_RDWR; Unix.O_APPEND; Unix.O_CREAT ] 0o644 in
  Fun.protect
    ~finally:(fun () -> Unix.close fd)
    (fun () ->
      (* recover from a torn previous append: if the file does not end in a
         newline, terminate the partial line first so the reader drops only
         the torn fragment, never this record *)
      let needs_nl =
        let size = (Unix.fstat fd).Unix.st_size in
        size > 0
        &&
        let buf = Bytes.create 1 in
        ignore (Unix.lseek fd (size - 1) Unix.SEEK_SET);
        Unix.read fd buf 0 1 = 1 && Bytes.get buf 0 <> '\n'
      in
      (* one write: O_APPEND makes concurrent appends land whole, in some
         order, never interleaved byte-wise *)
      let line = J.to_string record ^ "\n" in
      write_all fd (if needs_nl then "\n" ^ line else line))

type read_result = { records : J.t list; dropped : int }

let read ~dir =
  let file = path ~dir in
  if not (Sys.file_exists file) then { records = []; dropped = 0 }
  else begin
    let content = Namer_util.Fs.read_file file in
    let complete, tail_dropped =
      match String.rindex_opt content '\n' with
      | None -> ("", if content = "" then 0 else 1)
      | Some i ->
          ( String.sub content 0 i,
            if i = String.length content - 1 then 0 else 1 )
    in
    let records = ref [] and dropped = ref tail_dropped in
    List.iter
      (fun line ->
        if String.trim line <> "" then
          match J.parse line with
          | Ok r -> records := r :: !records
          | Error _ -> incr dropped)
      (String.split_on_char '\n' complete);
    { records = List.rev !records; dropped = !dropped }
  end

let git_describe () =
  try
    let ic = Unix.open_process_in "git describe --always --dirty 2>/dev/null" in
    let line = try String.trim (input_line ic) with End_of_file -> "" in
    match Unix.close_process_in ic with
    | Unix.WEXITED 0 when line <> "" -> line
    | _ -> "unknown"
  with Unix.Unix_error _ | Sys_error _ -> "unknown"

let peak_rss_kb () =
  match open_in "/proc/self/status" with
  | exception Sys_error _ -> -1
  | ic ->
      Fun.protect
        ~finally:(fun () -> close_in ic)
        (fun () ->
          let rec go () =
            match input_line ic with
            | exception End_of_file -> -1
            | line ->
                if String.length line > 6 && String.sub line 0 6 = "VmHWM:" then
                  let digits =
                    String.to_seq line
                    |> Seq.filter (fun c -> c >= '0' && c <= '9')
                    |> String.of_seq
                  in
                  match int_of_string_opt digits with Some kb -> kb | None -> -1
                else go ()
          in
          go ())

let source_digest files =
  let per_file =
    List.map (fun (p, src) -> p ^ ":" ^ Digest.to_hex (Digest.string src)) files
    |> List.sort compare
  in
  Digest.to_hex (Digest.string (String.concat "\n" per_file))

let source_digest_refs files =
  let per_file =
    List.map
      (fun (p, load) ->
        p ^ ":" ^ match load () with src -> Digest.to_hex (Digest.string src) | exception Sys_error _ -> "-")
      files
    |> List.sort compare
  in
  Digest.to_hex (Digest.string (String.concat "\n" per_file))
