(** String interning.

    The points-to solver, name-path serialization and FP-tree all work over
    dense integer identifiers; this module provides the bijection between
    strings and those identifiers.  Interners are explicit values (no global
    state) so independent analyses cannot interfere.

    An interner can be {!freeze}-frozen: a frozen interner answers lookups
    (which are plain hash reads and therefore safe to run concurrently from
    several domains) but refuses to allocate new ids.  This is the
    multicore contract of the hash-consed pipeline: one domain populates the
    table sequentially, freezes it, and read-only shards fan out. *)

type t = {
  of_string : (string, int) Hashtbl.t;
  mutable to_string : string array;
  mutable next : int;
  mutable frozen : bool;
}

let create ?(size = 1024) () =
  {
    of_string = Hashtbl.create size;
    to_string = Array.make 64 "";
    next = 0;
    frozen = false;
  }

(** [intern t s] returns the unique id of [s], allocating one if needed.
    Ids are dense, starting at 0, in first-seen order. *)
let intern t s =
  match Hashtbl.find_opt t.of_string s with
  | Some id -> id
  | None ->
      if t.frozen then invalid_arg "Interner.intern: frozen";
      let id = t.next in
      t.next <- id + 1;
      if id >= Array.length t.to_string then begin
        let bigger = Array.make (2 * Array.length t.to_string) "" in
        Array.blit t.to_string 0 bigger 0 (Array.length t.to_string);
        t.to_string <- bigger
      end;
      t.to_string.(id) <- s;
      Hashtbl.replace t.of_string s id;
      id

(** [lookup t s] is the id of [s] if it was interned before. *)
let lookup t s = Hashtbl.find_opt t.of_string s

(** [name t id] recovers the string for [id]. Raises [Invalid_argument] for
    ids never returned by [intern]. *)
let name t id =
  if id < 0 || id >= t.next then invalid_arg "Interner.name: unknown id"
  else t.to_string.(id)

let size t = t.next

(** Stop allocating: after [freeze t], {!intern} of an unknown string
    raises.  Lookups of known strings keep working (and are read-only, so
    they may run concurrently).  Idempotent. *)
let freeze t = t.frozen <- true

(** Re-allow allocation after a {!freeze}.  Existing ids are never
    invalidated by a freeze/thaw cycle. *)
let thaw t = t.frozen <- false

let is_frozen t = t.frozen

(** [iter f t] applies [f id (name t id)] for every id in first-seen
    order. *)
let iter f t =
  for id = 0 to t.next - 1 do
    f id t.to_string.(id)
  done

(** [remap ~into t] interns every string of [t] into [into] (in [t]'s
    first-seen id order) and returns the translation array [m] with
    [name into m.(id) = name t id].  This is the shard-merge step of the
    hash-consed pipeline: per-shard local interners built on worker domains
    are folded into the global table in shard order, so the global id
    assignment is identical to what a sequential pass would have produced.
    [into] must not be frozen unless every string of [t] is already known
    to it. *)
let remap ~into t =
  Array.init t.next (fun id -> intern into t.to_string.(id))
