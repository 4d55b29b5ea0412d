(** Deterministic contiguous sharding — see the interface for the
    contract the parallel merge relies on. *)

let oversubscribe ~jobs = 4 * max 1 jobs

(* The one planner.  Elements [i - 1] and [i] are in one run when
   [same i]; runs are packed greedily, closing the current shard once the
   next run would take it past [target] elements.  Runs longer than
   [target] become their own shard.  Pure in ([same], [n], [shards]). *)
let plan ~shards ~same n =
  if n = 0 then []
  else begin
    let shards = max 1 shards in
    let target = (n + shards - 1) / shards in
    let bounds = ref [] and lo = ref 0 and i = ref 0 in
    while !i < n do
      let j = ref (!i + 1) in
      while !j < n && same !j do
        incr j
      done;
      let cur = !i - !lo in
      if cur > 0 && cur + (!j - !i) > target then begin
        bounds := (!lo, !i) :: !bounds;
        lo := !i
      end;
      i := !j
    done;
    List.rev ((!lo, n) :: !bounds)
  end

let ranges ~shards n = plan ~shards ~same:(fun _ -> false) n

let ranges_by_key ~shards ~key n =
  plan ~shards ~same:(fun i -> String.equal (key (i - 1)) (key i)) n

(* [xs] cut at the boundaries of [ranges], which cover it in order *)
let slices ranges xs =
  let rec take k acc xs =
    if k = 0 then (List.rev acc, xs)
    else match xs with x :: rest -> take (k - 1) (x :: acc) rest | [] -> (List.rev acc, [])
  in
  let _, shards_rev =
    List.fold_left
      (fun (xs, acc) (lo, hi) ->
        let shard, rest = take (hi - lo) [] xs in
        (rest, shard :: acc))
      (xs, []) ranges
  in
  List.rev shards_rev

let contiguous ~shards xs = slices (ranges ~shards (List.length xs)) xs

let contiguous_by_key ~shards ~key xs =
  let a = Array.of_list xs in
  slices (ranges_by_key ~shards ~key:(fun i -> key a.(i)) (Array.length a)) xs
