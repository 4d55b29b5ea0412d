(** Deterministic corpus sharding.

    A shard plan is a *pure function* of the input list and the requested
    shard count — never of timing, domain count or scheduling — and every
    plan is contiguous: concatenating the shards in index order
    reconstructs the input exactly.  Those two properties are what let the
    parallel pipeline merge per-shard results in shard order and produce
    output bit-identical to the sequential run (the [--jobs 1] /
    [--jobs N] byte-equality guarantee). *)

(** [ranges ~shards n] splits the index range [[0, n)] into at most
    [shards] contiguous ranges [(lo, hi)] of near-equal length: every
    range but the last holds [ceil (n / shards)] indices.  No range is
    empty, and the ranges cover [[0, n)] in order.  This is the one
    planner; the list plans below are its slices. *)
val ranges : shards:int -> int -> (int * int) list

(** [ranges_by_key ~shards ~key n] is {!ranges} that never splits a run
    of consecutive indices with equal [key]: runs are packed greedily,
    closing a range once the next run would take it past
    [ceil (n / shards)] indices, and a longer run is a range of its
    own. *)
val ranges_by_key : shards:int -> key:(int -> string) -> int -> (int * int) list

(** [contiguous ~shards xs] splits [xs] into at most [shards] contiguous
    chunks of near-equal length, the slices of {!ranges}.  Empty shards
    are dropped; [List.concat (contiguous ~shards xs) = xs]. *)
val contiguous : shards:int -> 'a list -> 'a list list

(** [contiguous_by_key ~shards ~key xs] additionally never splits a run of
    consecutive elements with the same key, so a repository whose files are
    stored contiguously (as corpus generators and directory walks produce
    them) is digested whole by a single domain and its per-shard interners
    and counters stay repo-local.  Chunk count may slightly exceed or fall
    short of [shards] when key runs are coarse.  The slices of
    {!ranges_by_key}. *)
val contiguous_by_key : shards:int -> key:('a -> string) -> 'a list -> 'a list list

(** Shard count heuristic: [oversubscribe ~jobs] = [4 × jobs], enough
    slack for the work-stealing pool to rebalance uneven shards. *)
val oversubscribe : jobs:int -> int
