(** File-system helpers. *)

val mkdir_p : string -> unit
(** [mkdir_p dir] creates [dir] and its missing parents (mode [0o755]).  A
    directory that already exists, or that another process creates
    meanwhile, is fine.  @raise Sys_error on anything else: a path
    component that is not a directory, a permission denied. *)

val read_file : string -> string
(** The whole file, read in binary mode.  The channel is closed on every
    path, a failed read included; a directory fails with [Sys_error] on
    any file system.  @raise Sys_error when the file cannot be opened or
    read. *)

val walk : ext:string -> string -> string list
(** [walk ~ext dir] lists the files under [dir] whose names end in [ext],
    recursively, each directory's entries in byte order and a
    subdirectory's files in its place.  The order depends only on the
    names, never on the file system, so whatever is built from the list
    in order (a trained model) has the same bytes on any copy of the
    tree.  Symbolic links are followed, and each directory is walked once
    per [(st_dev, st_ino)], so a link back up the tree ends there; a
    dangling link is a file, listed if its name ends in [ext].
    @raise Sys_error when a directory cannot be read. *)
