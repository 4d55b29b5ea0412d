(** Mining name patterns from Big Code — Algorithms 1 and 2 (§3.3).

    [minePatterns] grows an FP-tree from the name paths of every statement
    in the corpus and then traverses it to generate candidate patterns,
    which are pruned by their satisfaction ratio over the same corpus
    ([pruneUncommon]).  The regularizations of §5.1 are all implemented and
    configurable:

    - at most [max_stmt_paths] name paths per statement (paper: 10, applied
      at extraction time);
    - only *frequent* name paths (> [min_path_freq] occurrences, paper: 10)
      participate in patterns — this is Algorithm 1's line-5 filter and
      removes over 99 % of path shapes, which are file-specific identifiers;
    - conditions use at most [max_condition_paths] paths (paper: 10);
    - [combinations] (Algorithm 2, line 7) enumerates the full condition set
      plus all subsets up to [max_subset_size], so patterns generalize
      beyond exact statement shapes without an exponential blow-up;
    - kept patterns need match support ≥ [min_support] (paper: 100 Python /
      500 Java at GitHub scale) and satisfaction ratio ≥
      [min_satisfaction_ratio] (paper: 0.8).

    The whole pipeline runs in the hash-consed {!Namepath.Interned} id
    space and allocates only what it keeps: path frequencies are counted
    per pid, splits compare end ids and copy a statement's rank-sorted
    pids into one reused insert buffer, the FP-tree is flat int arrays
    ({!Fptree}), and candidates are rows of pids in one flat array,
    deduplicated through an open-addressing table of candidate ids.  No
    canonical text is rendered, and no {!Pattern.t} is built, until a
    candidate survives the prune.

    Both corpus-wide counts are dense [int array]s.  The line-5 path
    frequencies are indexed by pid (the global table is frozen while a
    build mines, so the pid space is fixed), and {!mine_kinds} counts them
    once for all the pattern kinds it mines.  [pruneUncommon]'s tallies
    are indexed by candidate id, [0 .. n-1] in generation order.  Both
    passes run over index ranges of the statement array; with a pool,
    each domain counts into an array of its own, and the arrays are
    summed, so every count is the sequential one at any [--jobs].

    Survivors are compiled from the ids of the paths the miner holds
    ({!Pattern.of_ids}), so no prefix text is rendered to compile them.

    [pruneUncommon] matches every candidate against every statement in
    Algorithm 1; here each statement is checked only against the
    candidates of an {e anchor table} ({!Pattern.Matcher}, the one
    training's scan and model scans use too).  The table files each
    candidate once: under its exact condition item — a (prefix, end) pair
    — that is rarest in the corpus, or, when its condition has no exact
    item, under its first deduction prefix.  A statement looks up its own
    index items and index prefixes.  Any match needs every exact condition
    item and the first deduction prefix in the statement's index, so the
    candidates looked up are a superset of those that match; each gets
    {!Pattern.check}'s answer from the payload-free outcome functions it
    is built on, and the tallies are integer sums.  The mined store, its ids and its statistics are therefore
    exactly those of checking every candidate, at about 1/24 of the checks
    on a generated 100-repo corpus. *)

module Namepath = Namer_namepath.Namepath
module I = Namepath.Interned
module Pattern = Namer_pattern.Pattern
module Telemetry = Namer_telemetry.Telemetry

type config = {
  min_path_freq : int;
  max_stmt_paths : int;
  max_condition_paths : int;
  max_subset_size : int;
  min_support : int;
  min_satisfaction_ratio : float;
}

let default_config =
  {
    min_path_freq = 10;
    max_stmt_paths = 10;
    max_condition_paths = 10;
    max_subset_size = 2;
    min_support = 25;
    min_satisfaction_ratio = 0.8;
  }

type kind = [ `Confusing | `Consistency | `Ordering of (string * string) list ]

type result = {
  store : Pattern.Store.t;
  n_candidates : int;  (** patterns generated before pruning *)
  cond_counts : int array array;
      (** pattern id → the line-5 count of each condition path, the rank
          training's scan gives anchor items *)
}

(* Ends that cannot take part in a consistency deduction: literal
   abstractions and operator tokens are not names. *)
let is_name_end e =
  String.length e > 0
  && (match e.[0] with 'a' .. 'z' | 'A' .. 'Z' | '_' -> true | _ -> false)
  && not (List.mem e [ "NUM"; "STR"; "BOOL"; "NONE" ])

(* ------------------------------------------------------------------ *)
(* splitPaths (Algorithm 1, line 6)                                    *)
(* ------------------------------------------------------------------ *)

(* Per-mine-run split context: the per-end predicates of each split kind,
   precomputed once over the end-id space instead of re-derived from
   strings inside the statement loop. *)
type split_ctx =
  | Sc_consistency of bool array  (* end id → is a name end *)
  | Sc_confusing of bool array  (* end id → correct word of a mined pair *)
  | Sc_ordering of (int * int) list * (int, bool) Hashtbl.t
      (* vocab as end-id pairs; prefix id → is-call-argument memo *)

let make_split_ctx ~kind ~(pairs : Confusing_pairs.t) () =
  let n = I.n_ends () in
  match kind with
  | `Consistency -> Sc_consistency (Array.init n (fun e -> is_name_end (I.end_name e)))
  | `Confusing ->
      Sc_confusing
        (Array.init n (fun e -> Confusing_pairs.is_correct_word pairs (I.end_name e)))
  | `Ordering vocab ->
      (* a vocab word absent from the end-id space occurs in no statement,
         so dropping its pairs loses nothing *)
      let ids =
        List.filter_map
          (fun (a, b) ->
            match (I.lookup_end a, I.lookup_end b) with
            | Some x, Some y -> Some (x, y)
            | _ -> None)
          vocab
      in
      Sc_ordering (ids, Hashtbl.create 256)

(* Argument-swap patterns only make sense at call sites: parameter
   declaration order, field order etc. are free. *)
let is_call_argument_np (np : Namepath.t) =
  let rec scan = function
    | { Namepath.value = "Call"; index } :: _ when index > 0 -> true
    | _ :: rest -> scan rest
    | [] -> false
  in
  scan np.Namepath.prefix

(* Whether [it] sits at a call argument, memoized per prefix id. *)
let is_call_argument memo (it : I.t) =
  match Hashtbl.find_opt memo it.I.prefix with
  | Some b -> b
  | None ->
      let b = is_call_argument_np it.I.np in
      Hashtbl.replace memo it.I.prefix b;
      b

(** [iter_splits ctx paths n f] calls [f i j] for every (condition,
    deduction) split of [paths.(0 .. n - 1)], in Algorithm 1's order: the
    deduction is [paths.(i)] and, unless [j = -1], [paths.(j)]; the
    condition is every other path, by physical identity.  Nothing is
    allocated per split. *)
let iter_splits ctx (paths : I.t array) n f =
  match ctx with
  | Sc_ordering (vocab_ids, memo) ->
      (* ordered word pairs appearing at two distinct *call-argument*
         prefixes, in canonical order, become a two-path concrete
         deduction *)
      for i = 0 to n - 1 do
        for j = 0 to n - 1 do
          if i <> j && is_call_argument memo paths.(i) && is_call_argument memo paths.(j)
          then begin
            let e1 = paths.(i).I.end_ and e2 = paths.(j).I.end_ in
            if e1 >= 0 && e2 >= 0 && List.exists (fun (a, b) -> a = e1 && b = e2) vocab_ids
            then f i j
          end
        done
      done
  | Sc_confusing correct ->
      for i = 0 to n - 1 do
        let e = paths.(i).I.end_ in
        if e >= 0 && correct.(e) then f i (-1)
      done
  | Sc_consistency name_end ->
      for i = 0 to n - 1 do
        for j = i + 1 to n - 1 do
          let e1 = paths.(i).I.end_ and e2 = paths.(j).I.end_ in
          (* case-insensitive, matching the satisfaction check *)
          if e1 >= 0 && e2 >= 0 && I.lower_end e1 = I.lower_end e2 && name_end.(e1) then f i j
        done
      done

(* A deduction path's pid: symbolic for consistency (the symbolized
   pair), concrete otherwise. *)
let ded_pid ctx (it : I.t) = match ctx with Sc_consistency _ -> it.I.sym | _ -> it.I.pid

(** String-level view of {!iter_splits}, kept for tests: interns [paths]
    against the global table on the fly. *)
let split_paths ~kind ~(pairs : Confusing_pairs.t) (paths : Namepath.t list) :
    (Namepath.t list * Namepath.t list) list =
  let arr = Array.of_list (I.of_paths paths) in
  let ctx = make_split_ctx ~kind ~pairs () in
  let out = ref [] in
  iter_splits ctx arr (Array.length arr) (fun i j ->
      let di = arr.(i) and dj = if j < 0 then arr.(i) else arr.(j) in
      let cond = List.filter (fun a -> a != di && a != dj) (Array.to_list arr) in
      let ded = if j < 0 then [ di ] else [ di; dj ] in
      out :=
        ( List.map (fun (it : I.t) -> it.I.np) cond,
          List.map (fun it -> I.path_of_pid (ded_pid ctx it)) ded )
        :: !out);
  List.rev !out

(* ------------------------------------------------------------------ *)
(* combinations (Algorithm 2, line 7)                                  *)
(* ------------------------------------------------------------------ *)

(* Every distinct subsequence of [conds.(from .. m - 1)] extending
   [sub.(0 .. depth - 1)], of at most [k] items in all and fewer than [m],
   handed to [emit] in lexicographic order of its items.  A value repeated
   in [conds] is taken at its first index only: a later one yields no
   subsequence the first does not. *)
let rec subsets ~k conds m sub depth from emit =
  if depth < k then begin
    let last = ref min_int and more = ref true in
    while !more do
      (* the first index of the least value above [last] *)
      let best = ref (-1) in
      for i = from to m - 1 do
        let v = conds.(i) in
        if v > !last && (!best < 0 || v < conds.(!best)) then best := i
      done;
      if !best < 0 then more := false
      else begin
        let i = !best in
        sub.(depth) <- conds.(i);
        if depth + 1 < m then emit (depth + 1);
        subsets ~k conds m sub (depth + 1) (i + 1) emit;
        last := conds.(i)
      end
    done
  end

(** [iter_conditions ~max_subset_size conds m sub emit] hands [emit] each
    condition set generated from [conds.(0 .. m - 1)] — written to
    [sub.(0 .. len - 1)], [emit len] — in generation order: the full set,
    then every distinct subset of at most [max_subset_size] items that is
    smaller than the full set, the empty set included, in lexicographic
    order of its items (a subset keeps [conds]' order). *)
let iter_conditions ~max_subset_size conds m sub emit =
  Array.blit conds 0 sub 0 m;
  emit m;
  if m > 0 then begin
    emit 0;
    subsets ~k:(min max_subset_size m) conds m sub 0 0 emit
  end

(** The condition sets generated from the visited paths: the full set plus
    every subset of size ≤ [max_subset_size], including the empty condition
    (a pattern that fires wherever its deduction prefix appears — kept only
    if [pruneUncommon] finds it satisfied almost everywhere).  The list
    view of {!iter_conditions}. *)
let combinations ~max_subset_size (conds : int list) : int list list =
  let a = Array.of_list conds in
  let sub = Array.make (max 1 (Array.length a)) 0 and out = ref [] in
  iter_conditions ~max_subset_size a (Array.length a) sub (fun len ->
      out := List.init len (Array.get sub) :: !out);
  List.rev !out

(* ------------------------------------------------------------------ *)
(* Candidate rows                                                      *)
(* ------------------------------------------------------------------ *)

(* The candidates of one kind, in generation order: candidate [c]'s pids
   are [items.(starts.(c) .. starts.(c + 1) - 1)], its condition (in rank
   order) then its [n_deduct] deduction paths.  Deduction arity is fixed
   per kind, so the row is an unambiguous identity, equivalent to the
   canonical text without rendering it; [slots] is an open-addressing
   table of candidate ids that deduplicates rows. *)
type candidates = {
  c_kind : kind;
  n_deduct : int;
  mutable items : int array;
  mutable starts : int array;
  mutable n : int;
  mutable slots : int array;  (** candidate id per slot, [-1] free *)
}

let deduction_arity = function `Confusing -> 1 | `Consistency | `Ordering _ -> 2

let empty_candidates kind =
  {
    c_kind = kind;
    n_deduct = deduction_arity kind;
    items = Array.make 1024 0;
    starts = Array.make 256 0;
    n = 0;
    slots = Array.make 512 (-1);
  }

let row_hash (a : int array) lo hi =
  let h = ref (hi - lo) in
  for i = lo to hi - 1 do
    h := (!h * 0x9E3779B97F4A7C1) + Array.unsafe_get a i
  done;
  !h lxor (!h lsr 29)

let rec row_equal (a : int array) i (b : int array) j len =
  len = 0 || (a.(i) = b.(j) && row_equal a (i + 1) b (j + 1) (len - 1))

(* The slot of the candidate with row [buf.(0 .. len - 1)], or the free
   slot where it belongs. *)
let rec find_slot c buf len i =
  let id = c.slots.(i) in
  if
    id < 0
    || (c.starts.(id + 1) - c.starts.(id) = len && row_equal c.items c.starts.(id) buf 0 len)
  then i
  else find_slot c buf len ((i + 1) land (Array.length c.slots - 1))

let grow_slots c =
  let slots = Array.make (2 * Array.length c.slots) (-1) in
  let mask = Array.length slots - 1 in
  for id = 0 to c.n - 1 do
    let i = ref (row_hash c.items c.starts.(id) c.starts.(id + 1) land mask) in
    while slots.(!i) >= 0 do
      i := (!i + 1) land mask
    done;
    slots.(!i) <- id
  done;
  c.slots <- slots

(* Add the row [buf.(0 .. len - 1)] unless it is there already. *)
let add_row c buf len =
  let mask = Array.length c.slots - 1 in
  let i = find_slot c buf len (row_hash buf 0 len land mask) in
  if c.slots.(i) < 0 then begin
    let id = c.n and at = c.starts.(c.n) in
    if at + len > Array.length c.items then begin
      let items = Array.make (2 * (at + len)) 0 in
      Array.blit c.items 0 items 0 at;
      c.items <- items
    end;
    if id + 2 > Array.length c.starts then begin
      let starts = Array.make (2 * Array.length c.starts) 0 in
      Array.blit c.starts 0 starts 0 (id + 1);
      c.starts <- starts
    end;
    Array.blit buf 0 c.items at len;
    c.starts.(id + 1) <- at + len;
    c.slots.(i) <- id;
    c.n <- id + 1;
    if 2 * c.n > Array.length c.slots then grow_slots c
  end

let candidate_rows ~kind rows =
  let c = empty_candidates kind in
  List.iter (fun row -> add_row c row (Array.length row)) rows;
  c

let candidate_count c = c.n

(* Whether the condition pids [items.(i .. stop - 1)] all hold in [s]. *)
let rec row_holds s (items : int array) i stop =
  i >= stop
  ||
  let pid = Array.unsafe_get items i in
  Pattern.item_holds s ~prefix:(I.prefix_of_pid pid) ~want:(I.end_of_pid pid)
  && row_holds s items (i + 1) stop

(* Candidate [id]'s payload-free relation to [s]: 0 no match, 1
   satisfied, 2 violated — {!Pattern.check}'s answer for the candidate's
   pattern, without rendering a violation. *)
let outcome c s id =
  let d = c.starts.(id + 1) - c.n_deduct and items = c.items in
  if not (row_holds s items c.starts.(id) d) then 0
  else
    let d0 = items.(d) in
    match c.c_kind with
    | `Confusing -> Pattern.confusing_outcome s (I.prefix_of_pid d0) ~correct:(I.end_of_pid d0)
    | `Consistency ->
        Pattern.consistency_outcome s (I.prefix_of_pid d0) (I.prefix_of_pid items.(d + 1))
    | `Ordering _ ->
        let d1 = items.(d + 1) in
        Pattern.ordering_outcome s (I.prefix_of_pid d0) (I.prefix_of_pid d1)
          ~first:(I.end_of_pid d0) ~second:(I.end_of_pid d1)

(* A pid's compiled form: its (prefix id, end id), read off the table —
   the ids compiling its rendered text would look up. *)
let ids_of_pid pid = (I.prefix_of_pid pid, I.end_of_pid pid)

(* Candidate [id] as a pattern, compiled from its pids ({!Pattern.of_ids}):
   nothing is rendered or looked up. *)
let candidate_pattern c id =
  let lo = c.starts.(id) and hi = c.starts.(id + 1) in
  let d = hi - c.n_deduct in
  let cond_p = Array.sub c.items lo (d - lo) and ded_p = Array.sub c.items d c.n_deduct in
  let deduction = List.map I.path_of_pid (Array.to_list ded_p) in
  let kind =
    match (c.c_kind, deduction) with
    | `Consistency, _ -> Pattern.Consistency
    | `Confusing, [ d ] -> (
        match d.Namepath.end_node with
        | Some w -> Pattern.Confusing_word { correct = w }
        | None -> Pattern.Consistency (* unreachable *))
    | `Ordering _, [ d1; d2 ] -> (
        match (d1.Namepath.end_node, d2.Namepath.end_node) with
        | Some first, Some second -> Pattern.Ordering { first; second }
        | _ -> Pattern.Consistency (* unreachable *))
    | _ -> Pattern.Consistency (* unreachable *)
  in
  Pattern.of_ids ~kind
    ~condition:(List.map I.path_of_pid (Array.to_list cond_p))
    ~deduction ~cond:(Array.map ids_of_pid cond_p) ~ded:(Array.map ids_of_pid ded_p)

let candidate_patterns c =
  let store = Pattern.Store.create () in
  for id = 0 to c.n - 1 do
    ignore (Pattern.Store.add store (candidate_pattern c id))
  done;
  store

(* ------------------------------------------------------------------ *)
(* minePatterns (Algorithm 1)                                          *)
(* ------------------------------------------------------------------ *)

(* [count_per_domain ?pool ~n f stmts]: shards of [stmts] count into
   zeroed [int array]s of length [n] ([f counts stmts lo hi]), summed
   element-wise at the end.  A shard borrows an array no running shard
   holds and returns it, so there are as many arrays as shards ever ran
   at once — one per domain, one without a pool.  The sums are integers,
   so the total is independent of the plan and the schedule.  A shard
   that raises keeps its array: counting over fixed data raises again
   when the pool reruns it inline, and nothing is returned. *)
let count_per_domain ?pool ~n f stmts =
  let m = Mutex.create () and idle = ref [] and all = ref [] in
  let borrow () =
    Mutex.protect m (fun () ->
        match !idle with
        | a :: rest ->
            idle := rest;
            a
        | [] ->
            let a = Array.make n 0 in
            all := a :: !all;
            a)
  in
  let jobs = match pool with Some p -> Namer_parallel.Pool.size p | None -> 1 in
  ignore
    (Namer_parallel.Accumulator.sharded_map_range ?pool
       ~shards:(Namer_parallel.Shard.oversubscribe ~jobs)
       (fun lo hi ->
         let counts = borrow () in
         f counts stmts lo hi;
         Mutex.protect m (fun () -> idle := counts :: !idle))
       (Array.length stmts));
  match !all with
  | [] -> Array.make n 0
  | into :: rest ->
      List.iter (Array.iteri (fun i x -> into.(i) <- into.(i) + x)) rest;
      into

type tally = { sats : int array; viols : int array; checks : int }

let prune_tally ?pool ~rank (c : candidates) stmts =
  (* Build the anchor table before the fan-out; shards only read it. *)
  let table =
    Pattern.Matcher.index ~n:c.n (fun id ->
        let lo = c.starts.(id) in
        let d = c.starts.(id + 1) - c.n_deduct in
        Some
          (Pattern.Matcher.anchor ~ded0:(I.prefix_of_pid c.items.(d)) ~n:(d - lo)
             ~prefix:(fun i -> I.prefix_of_pid c.items.(lo + i))
             ~want:(fun i -> I.end_of_pid c.items.(lo + i))
             ~rank:(rank id)))
  in
  let n = c.n in
  (* candidate [id]'s satisfactions at [2 id], its violations at
     [2 id + 1], the full checks run at [2 n] *)
  let counts =
    count_per_domain ?pool ~n:((2 * n) + 1)
      (fun counts stmts lo hi ->
        let tally s id =
          match outcome c s id with
          | 0 -> ()
          | 1 -> counts.(2 * id) <- counts.(2 * id) + 1
          | _ -> counts.((2 * id) + 1) <- counts.((2 * id) + 1) + 1
        in
        for i = lo to hi - 1 do
          counts.(2 * n) <- counts.(2 * n) + Pattern.Matcher.iter_ids table tally stmts.(i)
        done)
      stmts
  in
  {
    sats = Array.init n (fun id -> counts.(2 * id));
    viols = Array.init n (fun id -> counts.((2 * id) + 1));
    checks = counts.(2 * n);
  }

(* Line 5 of Algorithm 1: global path frequencies, indexed by pid — one
   count per pid (concrete form) plus one per symbolic pid, the form
   consistency deductions are checked in.  The pid space is the global
   table's, which holds every path of [stmts]. *)
let path_freq ?pool (stmts : Pattern.Stmt_paths.t array) =
  Telemetry.with_span "mine:path-freq" @@ fun () ->
  let n, _, _ = I.sizes I.global in
  count_per_domain ?pool ~n
    (fun freq stmts lo hi ->
      for i = lo to hi - 1 do
        Array.iter
          (fun (it : I.t) ->
            freq.(it.I.pid) <- freq.(it.I.pid) + 1;
            freq.(it.I.sym) <- freq.(it.I.sym) + 1)
          stmts.(i).Pattern.Stmt_paths.ipaths
      done)
    stmts

(* Lines 4–8 of Algorithm 1: frequency filter → FP-tree growth → pattern
   generation, given the line-5 path frequencies [freq] ({!path_freq}).
   Returns the candidates in generation order — the order that assigns
   their ids. *)
let generate ~(config : config) ~freq ~kind ~(pairs : Confusing_pairs.t)
    (stmts : Pattern.Stmt_paths.t array) =
  let frequent pid = freq.(pid) > config.min_path_freq in
  (* Grow the FP-tree (lines 4–7).  The line-5 frequency filter applies to
     condition paths in their concrete form; deduction paths are checked in
     the form they take inside the pattern (symbolic for consistency
     deductions, whose *prefix* must be a common shape even when the
     concrete name at its end is file-specific).  A statement's frequent
     paths are sorted by rank once; each split copies its condition from
     them, skipping its own deduction paths, into one insert buffer. *)
  let ctx = make_split_ctx ~kind ~pairs () in
  let tree =
    Telemetry.with_span "mine:fptree-grow" @@ fun () ->
    let tree = Fptree.create () in
    let paths = ref [||] in
    (* indices into [!paths] of its frequent paths, by rank *)
    let ranked = Array.make config.max_stmt_paths 0 and n_ranked = ref 0 in
    let buf = Array.make (config.max_condition_paths + 2) 0 in
    let split i j =
      let p = !paths in
      let di = p.(i) and dj = if j < 0 then p.(i) else p.(j) in
      let d1 = ded_pid ctx di and d2 = ded_pid ctx dj in
      if frequent d1 && (j < 0 || frequent d2) then begin
        let k = ref 0 in
        for r = 0 to !n_ranked - 1 do
          let it = p.(ranked.(r)) in
          if it != di && it != dj && !k < config.max_condition_paths then begin
            buf.(!k) <- it.I.pid;
            incr k
          end
        done;
        if j < 0 then begin
          buf.(!k) <- d1;
          Fptree.insert tree buf (!k + 1)
        end
        else begin
          let first = I.compare_pids d1 d2 <= 0 in
          buf.(!k) <- (if first then d1 else d2);
          buf.(!k + 1) <- (if first then d2 else d1);
          Fptree.insert tree buf (!k + 2)
        end
      end
    in
    Array.iter
      (fun (s : Pattern.Stmt_paths.t) ->
        let p = s.Pattern.Stmt_paths.ipaths in
        let n = min (Array.length p) config.max_stmt_paths in
        paths := p;
        (* stable insertion sort: ties keep statement order *)
        n_ranked := 0;
        for i = 0 to n - 1 do
          if frequent p.(i).I.pid then begin
            let r = ref !n_ranked in
            while !r > 0 && I.compare_rank p.(ranked.(!r - 1)) p.(i) > 0 do
              ranked.(!r) <- ranked.(!r - 1);
              decr r
            done;
            ranked.(!r) <- i;
            incr n_ranked
          end
        done;
        iter_splits ctx p n split)
      stmts;
    tree
  in
  Telemetry.count ~by:(Fptree.size tree) "mine.fptree_nodes";
  (* genPatterns (line 8 / Algorithm 2): every flagged node's path is a
     condition then a deduction; each condition set generated from it,
     with the deduction, is a candidate row. *)
  let cands = empty_candidates kind in
  Telemetry.with_span "mine:gen-patterns" (fun () ->
      let nd = cands.n_deduct in
      let row = Array.make (config.max_condition_paths + nd) 0 in
      let path = ref [||] and m = ref 0 in
      let emit len =
        for t = 0 to nd - 1 do
          row.(len + t) <- !path.(!m + t)
        done;
        add_row cands row (len + nd)
      in
      Fptree.iter_last tree (fun p len _support ->
          if len >= nd then begin
            path := p;
            m := len - nd;
            iter_conditions ~max_subset_size:config.max_subset_size p !m row emit
          end));
  cands

let candidates ?pool ~config ~kind ~pairs stmts =
  let stmts = Array.of_list stmts in
  generate ~config ~freq:(path_freq ?pool stmts) ~kind ~pairs stmts

(* The pipeline for one pattern kind over the line-5 frequencies [freq]:
   FP-tree growth and pattern generation, then pruning.  FP-tree growth
   stays sequential: the tree's node order (and hence pattern-id
   assignment downstream) depends on insertion order, which sharding
   would perturb. *)
let mine_kind ?pool ~(config : config) ~freq ~kind ~(pairs : Confusing_pairs.t)
    (stmts : Pattern.Stmt_paths.t array) : result =
  let kind_label =
    match kind with
    | `Consistency -> "consistency"
    | `Confusing -> "confusing"
    | `Ordering _ -> "ordering"
  in
  Telemetry.with_span ~args:[ ("kind", kind_label) ] ("mine:" ^ kind_label)
  @@ fun () ->
  let c = generate ~config ~freq ~kind ~pairs stmts in
  (* pruneUncommon (line 9): count matches and satisfactions over the
     corpus, keep patterns with enough support and a high enough
     satisfaction ratio.  Candidates are enumerated through the anchor
     index, a superset of the patterns that match each statement; the
     tallies are integer sums, so they equal a full candidate scan's.
     Only the survivors become patterns. *)
  Telemetry.with_span "mine:prune" @@ fun () ->
  (* Rank anchors by the line-5 count of the condition path's pid.  It
     bounds the number of statements whose index holds that item from
     above (it also counts repeats, and paths behind the first at their
     prefix).  On two generated 100-repo corpora it led to exactly as many
     checks as an exact count of index items, without another corpus
     pass. *)
  let rank id i = freq.(c.items.(c.starts.(id) + i)) in
  let tally = prune_tally ?pool ~rank c stmts in
  Telemetry.count ~by:tally.checks "mine.prune_checks";
  let store = Pattern.Store.create () in
  let cond_counts_rev = ref [] in
  for id = 0 to c.n - 1 do
    let sats = tally.sats.(id) in
    let matches = sats + tally.viols.(id) in
    if
      matches >= config.min_support
      && float_of_int sats /. float_of_int matches >= config.min_satisfaction_ratio
    then begin
      let n = Pattern.Store.size store in
      if Pattern.Store.add store (candidate_pattern c id) = n then begin
        let lo = c.starts.(id) in
        cond_counts_rev :=
          Array.init (c.starts.(id + 1) - c.n_deduct - lo) (fun i -> freq.(c.items.(lo + i)))
          :: !cond_counts_rev
      end
    end
  done;
  { store; n_candidates = c.n; cond_counts = Array.of_list (List.rev !cond_counts_rev) }

let mine_kinds ?pool ~config ~kinds ~pairs stmts =
  let freq = path_freq ?pool stmts in
  List.map (fun kind -> mine_kind ?pool ~config ~freq ~kind ~pairs stmts) kinds

let mine ?pool ~config ~kind ~pairs stmts =
  let stmts = Array.of_list stmts in
  mine_kind ?pool ~config ~freq:(path_freq ?pool stmts) ~kind ~pairs stmts
