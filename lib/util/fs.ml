let rec mkdir_p dir =
  if Sys.file_exists dir then begin
    if not (Sys.is_directory dir) then raise (Sys_error (dir ^ ": Not a directory"))
  end
  else begin
    mkdir_p (Filename.dirname dir);
    try Sys.mkdir dir 0o755 with Sys_error _ when Sys.file_exists dir && Sys.is_directory dir -> ()
  end
