(** Frequent-pattern trees (Han, Pei & Yin, SIGMOD 2000), specialized for
    name-pattern mining (§3.3).

    Items are interned name-path ids ({!Namepath.Interned} pids) — the tree
    itself never sees a string.  Each [insert]ed sequence is the
    concatenation [sort(condition) @ sort(deduction)] of one split of a
    statement's paths (Algorithm 1, line 7); the node reached by the last
    item gets its [last] flag set, marking where Algorithm 2 assembles a
    pattern, and every node on the way counts one occurrence.  The paper's
    Figure 3(a) corresponds exactly to this structure — see the unit test
    reproducing it.

    The tree is flat: node [v] is a slot in five int arrays (item, count,
    last flag, first child, next sibling), node [0] is the root, and one
    open-addressing table maps a [(parent, item)] pair to its child.  A
    node's children are linked newest first.  Growing the tree allocates
    only when an array doubles.

    {b Child order.}  {!iter_last} visits a node's children in the order a
    [Hashtbl.fold] over a per-node [(item, child) Hashtbl.t] visits them,
    the order this tree had when each node held one: ascending bucket
    [Hashtbl.hash item land (b - 1)], newest child first within a bucket,
    where [b] is 16 for an inner node and 64 at the root and doubles while
    the node has more than [2 b] children.  The miner numbers candidates in
    visit order and a model stores its patterns by number, so this order is
    part of the model bytes.  Unlike a [Hashtbl]'s, it does not change
    under [OCAMLRUNPARAM=R]. *)

type t = {
  mutable item : int array;  (** [-1] at the root *)
  mutable count : int array;
  mutable last : Bytes.t;  (** ['\001'] where an inserted sequence ends *)
  mutable first_child : int array;  (** newest child, [-1] for none *)
  mutable next_sibling : int array;  (** next older sibling, [-1] for none *)
  mutable n : int;  (** nodes, the root included *)
  mutable depth : int;  (** longest inserted sequence *)
  mutable keys : int array;  (** child index: [(parent lsl 31) lor item], [-1] empty *)
  mutable vals : int array;  (** child index: the child node *)
}

let create () =
  let cap = 64 in
  {
    item = Array.make cap (-1);
    count = Array.make cap 0;
    last = Bytes.make cap '\000';
    first_child = Array.make cap (-1);
    next_sibling = Array.make cap (-1);
    n = 1;
    depth = 0;
    keys = Array.make (2 * cap) (-1);
    vals = Array.make (2 * cap) 0;
  }

let home mask k =
  let h = k * 0x9E3779B97F4A7C1 in
  (h lxor (h lsr 32)) land mask

(* The slot of key [k] in the child index, or the empty slot where it
   belongs. *)
let rec slot keys mask k i =
  let key = Array.unsafe_get keys i in
  if key = k || key = -1 then i else slot keys mask k ((i + 1) land mask)

let grow_nodes t =
  let cap = 2 * Array.length t.item in
  let extend a fill =
    let b = Array.make cap fill in
    Array.blit a 0 b 0 t.n;
    b
  in
  t.item <- extend t.item (-1);
  t.count <- extend t.count 0;
  t.first_child <- extend t.first_child (-1);
  t.next_sibling <- extend t.next_sibling (-1);
  let last = Bytes.make cap '\000' in
  Bytes.blit t.last 0 last 0 t.n;
  t.last <- last;
  (* the index holds one key per non-root node: keep it at most half full *)
  let keys = Array.make (2 * cap) (-1) and vals = Array.make (2 * cap) 0 in
  let mask = (2 * cap) - 1 in
  Array.iteri
    (fun i k ->
      if k >= 0 then begin
        let j = slot keys mask k (home mask k) in
        keys.(j) <- k;
        vals.(j) <- t.vals.(i)
      end)
    t.keys;
  t.keys <- keys;
  t.vals <- vals

(* The child of [parent] holding [item], created (as the newest child) when
   absent. *)
let child t parent item =
  let k = (parent lsl 31) lor item in
  let mask = Array.length t.keys - 1 in
  let i = slot t.keys mask k (home mask k) in
  if t.keys.(i) = k then t.vals.(i)
  else begin
    if t.n = Array.length t.item then grow_nodes t;
    let c = t.n in
    t.n <- c + 1;
    t.item.(c) <- item;
    t.next_sibling.(c) <- t.first_child.(parent);
    t.first_child.(parent) <- c;
    let mask = Array.length t.keys - 1 in
    let i = slot t.keys mask k (home mask k) in
    t.keys.(i) <- k;
    t.vals.(i) <- c;
    c
  end

(** [insert t items len] adds the sequence [items.(0) .. items.(len - 1)];
    [items] is the caller's buffer, only read.  Items are in
    [[0, 2{^31})]. *)
let insert t (items : int array) len =
  if len > 0 then begin
    let node = ref 0 in
    for i = 0 to len - 1 do
      let c = child t !node (Array.unsafe_get items i) in
      t.count.(c) <- t.count.(c) + 1;
      node := c
    done;
    Bytes.set t.last !node '\001';
    if len > t.depth then t.depth <- len
  end

let size t = t.n - 1

(* The sibling links in visit order: for each node with two or more
   children, its children sorted by [Hashtbl] bucket, stable over the
   newest-first links.  Returns (first child, next sibling) arrays. *)
let visit_links t =
  let first = Array.sub t.first_child 0 t.n and next = Array.sub t.next_sibling 0 t.n in
  for v = 0 to t.n - 1 do
    let k =
      let rec len c acc = if c < 0 then acc else len t.next_sibling.(c) (acc + 1) in
      len t.first_child.(v) 0
    in
    if k > 1 then begin
      let b = ref (if v = 0 then 64 else 16) in
      while k > 2 * !b do
        b := 2 * !b
      done;
      (* sort keys: bucket, then position in the newest-first list *)
      let order = Array.make k 0 and kids = Array.make k 0 in
      let c = ref t.first_child.(v) in
      for p = 0 to k - 1 do
        kids.(p) <- !c;
        order.(p) <- ((Hashtbl.hash t.item.(!c) land (!b - 1)) * k) + p;
        c := t.next_sibling.(!c)
      done;
      Array.sort Int.compare order;
      let at i = kids.(order.(i) mod k) in
      first.(v) <- at 0;
      for i = 0 to k - 2 do
        next.(at i) <- at (i + 1)
      done;
      next.(at (k - 1)) <- -1
    end
  done;
  (first, next)

(* Pre-order walk below [v], whose path from the root fills
   [path.(0 .. depth - 1)]. *)
let rec visit t first next path f v depth =
  let c = ref first.(v) in
  while !c >= 0 do
    let c' = !c in
    path.(depth) <- t.item.(c');
    if Bytes.get t.last c' = '\001' then f path (depth + 1) t.count.(c');
    visit t first next path f c' (depth + 1);
    c := next.(c')
  done

(** [iter_last t f] calls [f path len support] on every flagged node, in
    pre-order with children in the order the header describes:
    [path.(0 .. len - 1)] are the item ids from the root (one buffer,
    rewritten between calls) and [support] is the node's occurrence count
    — the support of the would-be pattern.  This is the traversal skeleton
    of Algorithm 2 ([genPatterns]). *)
let iter_last t f =
  let first, next = visit_links t in
  visit t first next (Array.make (max 1 t.depth) 0) f 0 0

(** {!iter_last} as a fold over item lists. *)
let fold_last_nodes t ~f acc =
  let acc = ref acc in
  iter_last t (fun path len support ->
      acc := f !acc ~path_items:(List.init len (Array.get path)) ~support);
  !acc
