let rec mkdir_p dir =
  if Sys.file_exists dir then begin
    if not (Sys.is_directory dir) then raise (Sys_error (dir ^ ": Not a directory"))
  end
  else begin
    mkdir_p (Filename.dirname dir);
    try Sys.mkdir dir 0o755 with Sys_error _ when Sys.file_exists dir && Sys.is_directory dir -> ()
  end

let read_file path = In_channel.with_open_bin path In_channel.input_all

(* [Some (st_dev, st_ino)] of what [path] names, links followed; [None]
   unless that is a directory (a dangling or looping link included) *)
let dir_id path =
  match Unix.stat path with
  | { Unix.st_kind = Unix.S_DIR; st_dev; st_ino; _ } -> Some (st_dev, st_ino)
  | _ | (exception Unix.Unix_error _) -> None

let walk ~ext dir =
  let seen = Hashtbl.create 16 in
  let rec go dir =
    Sys.readdir dir |> Array.to_list |> List.sort String.compare
    |> List.concat_map (fun entry ->
           let path = Filename.concat dir entry in
           match dir_id path with
           | Some id when Hashtbl.mem seen id -> []
           | Some id ->
               Hashtbl.add seen id ();
               go path
           | None -> if Filename.check_suffix path ext then [ path ] else [])
  in
  Option.iter (fun id -> Hashtbl.add seen id ()) (dir_id dir);
  go dir
