(** Versioned, checksummed section container shared by model snapshots
    ([NAMERMDL]) and scan-cache entries ([NAMERRPT]).

    Layout (all integers little-endian):

    {v
      magic     8 bytes  (e.g. "NAMERMDL")
      version   u32
      sections  u32                      -- section count
      repeat sections times:
        name    u32 len + bytes
        payload u32 len + bytes
      checksum  8 bytes                  -- FNV-1a64 of everything above
    v}

    The hex of the trailing checksum doubles as the artifact's identity
    (the "model hash" used as the cache key). *)

exception Error of string
(** All decode failures — truncation, wrong magic, version skew, checksum
    mismatch — raise this with a message that names the file and says what
    to do about it. *)

val encode : magic:string -> version:int -> (string * string) list -> string * string
(** [encode ~magic ~version sections] is [(bytes, hash)] where [hash] is
    the 16-hex-digit checksum identity.  [magic] must be 8 bytes. *)

val decode :
  magic:string -> desc:string -> version:int -> ?path:string -> string ->
  (string * string) list * string
(** Inverse of {!encode}: validates magic, version and checksum, and
    returns [(sections, hash)].  [desc] names the artifact kind in errors
    ("model snapshot", "cache entry"); [path] names its origin. *)

val write : ?perm:int -> path:string -> string -> unit
(** Atomic write: temp file in the target directory, then rename.  The
    file gets permission bits [perm] (default 0600, the temp file's). *)

val read_file : desc:string -> path:string -> string
(** Read a whole file, turning [Sys_error] into {!Error}. *)

val section : desc:string -> (string * string) list -> string -> string
(** Look up a section by name.  @raise Error when absent. *)

val read_section :
  desc:string -> (string * string) list -> string -> (Binio.R.t -> 'a) -> 'a
(** [read_section ~desc sections name f] runs decoder [f] over the named
    section's payload.  A reader failure ([Binio.R.Corrupt]) or a semantic
    one ([Invalid_argument]) becomes an {!Error} that names the failing
    section — not just a byte offset.  @raise Error also when absent. *)
