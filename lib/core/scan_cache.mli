(** Content-addressed per-file scan cache (the incremental half of the
    train-once / scan-many workflow).

    One entry holds the final per-file reports of a classifier-free scan —
    a pure function of (file content, model), so the cache key is the pair
    (model hash, MD5 of the source bytes) and the file's path on disk is
    irrelevant to the entry.  All entries of one model live in one
    append-only pack under the cache root:

    {v <dir>/<model-hash>.pack v}

    A pack is a run of records: magic, payload length, the 16-byte raw MD5
    key and a header check, then the [NAMERRPT] {!Namer_model.Snapshot}
    container as payload, under a checksum that covers key and payload
    (DESIGN.md §8).  A store is one [write] on an [O_APPEND] descriptor
    the process keeps open, so concurrent appenders (domains, the serve
    daemon, a CLI scan) never interleave.  A find is a lookup in a
    process-wide index (a pair of ints per entry outside the OCaml heap,
    keyed by the first 8 bytes of the MD5) plus one positioned read; a hit
    compares the whole key.  On an index miss the pack first indexes what
    other processes appended, and reopens the path if the pack was
    deleted.  A find never creates a file.

    Anything that fails its checks — a torn tail, spliced garbage, a
    flipped byte, format drift — is a self-healing miss: the caller
    rescans and appends a fresh record, which the index then prefers.  A
    model-hash change changes the pack, invalidating every entry at once.
    Files of the older one-file-per-entry layout are ignored. *)

(** One cached report, file-path-free (the caller re-attaches the path):
    content-identical files at different paths share one entry. *)
type entry = {
  e_line : int;
  e_prefix : string;  (** offending prefix key *)
  e_found : string;
  e_suggested : string;
  e_kind : string;  (** "consistency" | "confusing-word" | "ordering" *)
}

val src_digest : string -> string
(** Cache key half for a file: hex MD5 of its source bytes. *)

val find : dir:string -> model_hash:string -> src_digest:string -> entry list option
(** [None] on absent or undecodable entries (a miss, never an error). *)

val store : dir:string -> model_hash:string -> src_digest:string -> entry list -> unit
(** Appends one record, creating the directory and the pack as needed.
    Write failures are swallowed — a cache that cannot persist degrades to
    scanning, it does not fail the scan.  An entry whose record would
    exceed 64 KiB (about a thousand reports) is not stored. *)

val pack_stats : dir:string -> model_hash:string -> int * int
(** [(entries, bytes)]: the keys this process has indexed for the model's
    pack, and the pack's size on disk (0 when it does not exist). *)

val close_all : unit -> unit
(** Closes every open pack and drops its index; the next {!find} or
    {!store} reopens the pack and indexes it again from disk. *)
