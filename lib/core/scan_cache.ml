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

let encode entries =
  let w = Binio.W.create ~size:256 () in
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

(* ---------------- records ---------------- *)

(* A record is

     magic "NPK\001" | u32 payload length | 16-byte raw MD5 key
     | u32 header check | payload | i64 checksum

   The header check (low 32 bits of FNV-1a over length and key) lets a
   reader trust a record's extent before reading it, so a false magic in
   damaged bytes cannot claim the rest of the file; the trailing checksum
   covers everything before it, key and payload included.  A record is at
   most [max_record] bytes, the most one [Unix.single_write] writes in one
   system call: that one call is what keeps appenders from interleaving. *)
let pack_magic = "NPK\001"
let header_len = 28
let max_record = 65536
let max_payload = max_record - header_len - 8

let header_check b pos =
  Int64.to_int (Binio.fnv1a64 ~pos:(pos + 4) ~len:20 (Bytes.unsafe_to_string b)) land 0xffff_ffff

let record_check b pos ~len =
  Binio.fnv1a64 ~pos ~len:(header_len + len) (Bytes.unsafe_to_string b)

let make_record key payload =
  let len = String.length payload in
  let b = Bytes.create (header_len + len + 8) in
  Bytes.blit_string pack_magic 0 b 0 4;
  Bytes.set_int32_le b 4 (Int32.of_int len);
  Bytes.blit_string key 0 b 8 16;
  Bytes.set_int32_le b 24 (Int32.of_int (header_check b 0));
  Bytes.blit_string payload 0 b header_len len;
  Bytes.set_int64_le b (header_len + len) (record_check b 0 ~len);
  b

(* The payload length of a plausible header at [pos] in [b], or -1. *)
let header_at b pos =
  if Bytes.length b - pos < header_len || Bytes.sub_string b pos 4 <> pack_magic then -1
  else
    let len = Int32.to_int (Bytes.get_int32_le b (pos + 4)) land 0xffff_ffff in
    let check = Int32.to_int (Bytes.get_int32_le b (pos + 24)) land 0xffff_ffff in
    if len > max_payload || check <> header_check b pos then -1 else len

let record_ok b pos ~len =
  Int64.equal (Bytes.get_int64_le b (pos + header_len + len)) (record_check b pos ~len)

(* ---------------- packs ---------------- *)

(* The index maps the first 8 bytes of a key to [offset lsl 17 lor
   record length]: an open-addressing table of int pairs in one Bigarray,
   16 B a slot at most 4/5 full (20-40 B an entry), outside the OCaml
   heap, so a daemon's growing index holds no strings and adds nothing to
   the heap the GC paces itself by.  A
   value is never 0 (a record has a length), so 0 marks an empty slot.  A
   hit re-reads the record and compares the whole key, so a prefix
   collision is a miss. *)
module Index = struct
  open Bigarray

  type t = { mutable slots : (int, int_elt, c_layout) Array1.t; mutable count : int }

  let make slots =
    let a = Array1.create int c_layout (2 * slots) in
    Array1.fill a 0;
    a

  let create () = { slots = make 1024; count = 0 }

  let reset t =
    t.slots <- make 1024;
    t.count <- 0

  let length t = t.count
  let capacity a = Array1.dim a / 2

  (* the slot holding [k], or the empty slot where it would go *)
  let slot a k =
    let mask = capacity a - 1 in
    let rec probe i =
      if Array1.unsafe_get a ((2 * i) + 1) = 0 || Array1.unsafe_get a (2 * i) = k then i
      else probe ((i + 1) land mask)
    in
    probe (k land mask)

  let find t k = Array1.unsafe_get t.slots ((2 * slot t.slots k) + 1)

  let rec replace t k v =
    let i = slot t.slots k in
    if Array1.unsafe_get t.slots ((2 * i) + 1) <> 0 then Array1.unsafe_set t.slots ((2 * i) + 1) v
    else if 5 * (t.count + 1) > 4 * capacity t.slots then begin
      let old = t.slots in
      t.slots <- make (2 * capacity old);
      t.count <- 0;
      for j = 0 to capacity old - 1 do
        let v = Array1.unsafe_get old ((2 * j) + 1) in
        if v <> 0 then replace t (Array1.unsafe_get old (2 * j)) v
      done;
      replace t k v
    end
    else begin
      Array1.unsafe_set t.slots (2 * i) k;
      Array1.unsafe_set t.slots ((2 * i) + 1) v;
      t.count <- t.count + 1
    end
end

let len_bits = 17

type pack = {
  path : string;
  lock : Mutex.t;  (** guards every field below, and the descriptor's offset *)
  mutable fd : Unix.file_descr option;
  mutable inode : int * int;  (** (st_dev, st_ino) of [fd] *)
  mutable scanned : int;  (** records before this offset are indexed *)
  index : Index.t;
}

let packs : (string, pack) Hashtbl.t = Hashtbl.create 4
let packs_lock = Mutex.create ()

let pack_path ~dir ~model_hash = Filename.concat dir (model_hash ^ ".pack")

let pack_of path =
  Mutex.protect packs_lock (fun () ->
      match Hashtbl.find_opt packs path with
      | Some p -> p
      | None ->
          let p =
            {
              path;
              lock = Mutex.create ();
              fd = None;
              inode = (0, 0);
              scanned = 0;
              index = Index.create ();
            }
          in
          Hashtbl.add packs path p;
          p)

let key_prefix key = Int64.to_int (String.get_int64_le key 0)

let forget p =
  Option.iter (fun fd -> try Unix.close fd with Unix.Unix_error _ -> ()) p.fd;
  p.fd <- None;
  p.scanned <- 0;
  Index.reset p.index

let open_fd p ~create =
  let rw = [ Unix.O_RDWR; Unix.O_APPEND; Unix.O_CLOEXEC ] in
  let fd =
    if create then begin
      Namer_util.Fs.mkdir_p (Filename.dirname p.path);
      Unix.openfile p.path (Unix.O_CREAT :: rw) 0o644
    end
    else
      (* a pack this process may not append to is still worth reading *)
      try Unix.openfile p.path rw 0
      with Unix.Unix_error ((Unix.EACCES | Unix.EROFS), _, _) ->
        Unix.openfile p.path [ Unix.O_RDONLY; Unix.O_CLOEXEC ] 0
  in
  let st = Unix.fstat fd in
  p.fd <- Some fd;
  p.inode <- (st.Unix.st_dev, st.Unix.st_ino)

(* Make [p.fd] the file [p.path] names now, reopening it if the pack was
   deleted or replaced since it was opened; returns its size.  Without
   [create], a missing pack stays missing (size 0, no descriptor). *)
let sync_inode p ~create =
  match Unix.stat p.path with
  | st when p.fd <> None && p.inode = (st.Unix.st_dev, st.Unix.st_ino) -> st.Unix.st_size
  | _ ->
      forget p;
      open_fd p ~create;
      (Unix.fstat (Option.get p.fd)).Unix.st_size
  | exception Unix.Unix_error (Unix.ENOENT, _, _) ->
      forget p;
      if create then open_fd p ~create;
      0

(* Read up to [len] bytes at [off] into [b] at [pos]; fewer only at EOF. *)
let pread fd ~off b pos len =
  ignore (Unix.lseek fd off Unix.SEEK_SET);
  let rec go got =
    if got = len then got
    else
      match Unix.read fd b (pos + got) (len - got) with
      | 0 -> got
      | n -> go (got + n)
  in
  go 0

(* Index the records appended since [p.scanned], up to [size], streaming
   them through one [max_record]-byte window.  A record that fails a check
   is skipped by resyncing on the next magic.  A record that runs past EOF
   is a tail still being written, or torn by a kill: indexing stops before
   it and retries on a later miss — unless a complete record follows it,
   which proves it will never be finished. *)
let catch_up p fd ~size =
  let buf = Bytes.create max_record in
  let w_off = ref 0 and w_len = ref 0 in
  (* bytes [off, off + n) of the file in [buf], at the returned position,
     or -1 past EOF *)
  let window off n =
    if off + n > size then -1
    else begin
      if off < !w_off || off + n > !w_off + !w_len then begin
        w_off := off;
        w_len := pread fd ~off buf 0 (min max_record (size - off))
      end;
      if off + n <= !w_off + !w_len then off - !w_off else -1
    end
  in
  let indexed = ref 0 in
  let rec scan off =
    let at = window off header_len in
    if at < 0 then off
    else
      let len = header_at buf at in
      if len < 0 then resync (off + 1)
      else
        let total = header_len + len + 8 in
        let at = window off total in
        if at < 0 then begin
          let before = !indexed in
          let past = resync (off + 1) in
          if !indexed > before then past else off
        end
        else if not (record_ok buf at ~len) then resync (off + 1)
        else begin
          Index.replace p.index
            (Int64.to_int (Bytes.get_int64_le buf (at + 8)))
            ((off lsl len_bits) lor total);
          incr indexed;
          scan (off + total)
        end
  and resync off =
    let at = window off 4 in
    if at < 0 then off
    else if Bytes.get buf at = pack_magic.[0] && Bytes.sub_string buf at 4 = pack_magic then
      scan off
    else resync (off + 1)
  in
  p.scanned <- scan p.scanned

(* The record the index holds for [key], catching up on other writers'
   appends first when it holds none. *)
let lookup p key =
  let k = key_prefix key in
  let v =
    match Index.find p.index k with
    | 0 -> (
        let size = sync_inode p ~create:false in
        match p.fd with
        | None -> 0
        | Some fd ->
            (* a pack truncated under us: index it again from the start *)
            if size < p.scanned then begin
              Index.reset p.index;
              p.scanned <- 0
            end;
            if size > p.scanned then catch_up p fd ~size;
            Index.find p.index k)
    | v -> v
  in
  match p.fd with
  | Some fd when v <> 0 ->
      let total = v land ((1 lsl len_bits) - 1) in
      let b = Bytes.create total in
      let got = pread fd ~off:(v lsr len_bits) b 0 total in
      Some (if got = total then b else Bytes.sub b 0 got)
  | _ -> None

let find ~dir ~model_hash ~src_digest =
  let key = Digest.from_hex src_digest in
  let path = pack_path ~dir ~model_hash in
  let p = pack_of path in
  match
    Mutex.protect p.lock (fun () ->
        try lookup p key with Unix.Unix_error _ -> forget p; None)
  with
  | None -> None
  | Some b -> (
      (* fault point: hand back corrupt bytes, as a flipped bit on disk
         would — the checks below must degrade to a self-healing miss *)
      if Namer_util.Fault.fires "scan_cache.read" && Bytes.length b > 0 then begin
        let i = Bytes.length b / 2 in
        Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor 0xa5))
      end;
      let n = Bytes.length b in
      let len = header_at b 0 in
      match
        if len < 0 || n <> header_len + len + 8 || not (record_ok b 0 ~len) then
          raise (Snapshot.Error "cache record: bad header or checksum");
        (* an intact record of another key that shares the first 8 bytes *)
        if Bytes.sub_string b 8 16 <> key then None
        else Some (decode ~path (Bytes.sub_string b header_len len))
      with
      | found -> found
      | exception (Snapshot.Error _ | Binio.R.Corrupt _) ->
          (* undecodable = miss: the caller rescans and appends a fresh
             record, which the index then prefers *)
          Telemetry.count "scan_cache.undecodable";
          Telemetry.emit
            ~fields:
              [ ("pack", Namer_util.Json.String path); ("key", Namer_util.Json.String src_digest) ]
            Telemetry.Warn "scan_cache.undecodable";
          None)

(* One [single_write] on the [O_APPEND] descriptor: concurrent appenders —
   other domains, the daemon and a CLI scan — never interleave, and the
   record starts where the descriptor's offset ends minus its length.
   Failures only cost the entry, never the scan: a short write leaves a
   torn record that readers skip. *)
let store ~dir ~model_hash ~src_digest entries =
  let key = Digest.from_hex src_digest in
  let record = make_record key (encode entries) in
  let total = Bytes.length record in
  if total > max_record then Telemetry.count "scan_cache.oversize"
  else
    let p = pack_of (pack_path ~dir ~model_hash) in
    try
      Mutex.protect p.lock (fun () ->
          ignore (sync_inode p ~create:true);
          let fd = Option.get p.fd in
          if Unix.single_write fd record 0 total < total then
            Telemetry.count "scan_cache.write_failures"
          else begin
            let stop = Unix.lseek fd 0 Unix.SEEK_CUR in
            let off = stop - total in
            Index.replace p.index (key_prefix key) ((off lsl len_bits) lor total);
            if p.scanned = off then p.scanned <- stop
          end)
    with Sys_error _ | Unix.Unix_error _ -> Telemetry.count "scan_cache.write_failures"

let pack_stats ~dir ~model_hash =
  let path = pack_path ~dir ~model_hash in
  let entries =
    match Mutex.protect packs_lock (fun () -> Hashtbl.find_opt packs path) with
    | Some p -> Mutex.protect p.lock (fun () -> Index.length p.index)
    | None -> 0
  in
  let bytes = try (Unix.stat path).Unix.st_size with Unix.Unix_error _ -> 0 in
  (entries, bytes)

let close_all () =
  Mutex.protect packs_lock (fun () ->
      Hashtbl.iter (fun _ p -> Mutex.protect p.lock (fun () -> forget p)) packs;
      Hashtbl.reset packs)
