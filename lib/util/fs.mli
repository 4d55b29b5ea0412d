(** File-system helpers. *)

val mkdir_p : string -> unit
(** [mkdir_p dir] creates [dir] and its missing parents (mode [0o755]).  A
    directory that already exists, or that another process creates
    meanwhile, is fine.  @raise Sys_error on anything else: a path
    component that is not a directory, a permission denied. *)
