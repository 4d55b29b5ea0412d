(** Mergeable accumulators and the shard → map → merge-in-order combinators.
    See the interface for the determinism contract. *)

module type MERGEABLE = sig
  type t

  val empty : unit -> t
  val merge : into:t -> t -> unit
end

let plan ?key ~shards xs =
  match key with
  | Some key -> Shard.contiguous_by_key ~shards ~key xs
  | None -> Shard.contiguous ~shards xs

module Telemetry = Namer_telemetry.Telemetry

(* [f] over the shards of [shards_l], [items s] elements each *)
let map_plan ?pool ~items f shards_l =
  match pool with
  | None -> List.map f shards_l
  | Some pool ->
      (* each shard announces itself from its worker domain, so the event
         log shows which domain/span ran which shard; emission is a no-op
         (and the fields unallocated) while the log is closed, keeping the
         hot path untouched *)
      let run_shard idx shard =
        if Telemetry.logging () then
          Telemetry.emit
            ~fields:
              [
                ("shard", Namer_util.Json.Int idx);
                ("items", Namer_util.Json.Int (items shard));
              ]
            Telemetry.Debug "pool.shard";
        f shard
      in
      let indexed = List.mapi (fun i s -> (i, s)) shards_l in
      (* self-healing merge: a shard whose worker task failed (a poisoned
         task, an injected fault, a domain-local hiccup) is recomputed
         inline on the submitting domain instead of aborting the stage —
         same shard, same [f], so the merged result is byte-identical to
         an all-healthy run.  A shard that fails *again* inline is a
         deterministic bug in [f] and propagates. *)
      List.map2
        (fun (idx, shard) result ->
          match result with
          | Ok v -> v
          | Error _ ->
              Telemetry.count "pool.shard_retries";
              Telemetry.emit
                ~fields:[ ("shard", Namer_util.Json.Int idx) ]
                Telemetry.Warn "pool.shard_retry";
              f shard)
        indexed
        (Pool.map_list_results pool (fun (idx, shard) -> run_shard idx shard) indexed)

let sharded_map ?pool ?key ~shards f xs =
  map_plan ?pool ~items:List.length f (plan ?key ~shards xs)

let sharded_map_range ?pool ?key ~shards f n =
  let ranges =
    match key with
    | Some key -> Shard.ranges_by_key ~shards ~key n
    | None -> Shard.ranges ~shards n
  in
  map_plan ?pool ~items:(fun (lo, hi) -> hi - lo) (fun (lo, hi) -> f lo hi) ranges

let sharded_concat_map ?pool ?key ~shards f xs =
  List.concat (sharded_map ?pool ?key ~shards f xs)

let sharded_reduce (type acc) (module M : MERGEABLE with type t = acc) ?pool ?key
    ~shards (f : 'a list -> acc) (xs : 'a list) : acc =
  let parts = sharded_map ?pool ?key ~shards f xs in
  let into = M.empty () in
  List.iter (fun part -> M.merge ~into part) parts;
  into
