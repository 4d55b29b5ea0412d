let rec mkdir_p dir =
  if Sys.file_exists dir then begin
    if not (Sys.is_directory dir) then raise (Sys_error (dir ^ ": Not a directory"))
  end
  else begin
    mkdir_p (Filename.dirname dir);
    try Sys.mkdir dir 0o755 with Sys_error _ when Sys.file_exists dir && Sys.is_directory dir -> ()
  end

let read_file path = In_channel.with_open_bin path In_channel.input_all

let rec walk ~ext dir =
  Sys.readdir dir |> Array.to_list |> List.sort String.compare
  |> List.concat_map (fun entry ->
         let path = Filename.concat dir entry in
         if Sys.is_directory path then walk ~ext path
         else if Filename.check_suffix path ext then [ path ]
         else [])
