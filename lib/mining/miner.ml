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
    space: path frequencies are counted per pid, splits compare end ids,
    the FP-tree holds pid lists, and candidate dedup keys are pid lists —
    no canonical text is rendered until a surviving pattern reaches the
    final store.

    Both corpus-wide counts are dense [int array]s.  The line-5 path
    frequencies are indexed by pid (the global table is frozen while a
    build mines, so the pid space is fixed), and {!mine_kinds} counts them
    once for all the pattern kinds it mines.  [pruneUncommon]'s tallies
    are indexed by candidate id, [0 .. n-1] in generation order.  With a
    pool, each shard counts into arrays of its own, summed element-wise in
    shard order, so every count is the sequential one at any [--jobs].

    Candidates are compiled from the ids of the paths the miner holds
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
    patterns looked up are a superset of those that match; each is run
    through the unchanged {!Pattern.check}, and the tallies are integer
    sums.  The mined store, its ids and its statistics are therefore
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

(** All (condition, deduction) splits of one statement's interned paths.
    The deduction is returned as pids — symbolic pids for consistency
    (the symbolized pair), concrete pids otherwise. *)
let split_interned ctx (ipaths : I.t list) : (I.t list * int list) list =
  match ctx with
  | Sc_ordering (vocab_ids, memo) ->
      (* ordered word pairs appearing at two distinct *call-argument*
         prefixes, in canonical order, become a two-path concrete
         deduction *)
      let is_call_argument (it : I.t) =
        match Hashtbl.find_opt memo it.I.prefix with
        | Some b -> b
        | None ->
            let b = is_call_argument_np it.I.np in
            Hashtbl.replace memo it.I.prefix b;
            b
      in
      let arr = Array.of_list ipaths in
      let n = Array.length arr in
      let out = ref [] in
      for i = 0 to n - 1 do
        for j = 0 to n - 1 do
          if i <> j && is_call_argument arr.(i) && is_call_argument arr.(j) then begin
            let e1 = arr.(i).I.end_ and e2 = arr.(j).I.end_ in
            if
              e1 >= 0 && e2 >= 0
              && List.exists (fun (a, b) -> a = e1 && b = e2) vocab_ids
            then begin
              let cond = List.filter (fun a -> a != arr.(i) && a != arr.(j)) ipaths in
              out := (cond, [ arr.(i).I.pid; arr.(j).I.pid ]) :: !out
            end
          end
        done
      done;
      List.rev !out
  | Sc_confusing correct ->
      List.filter_map
        (fun (d : I.t) ->
          if d.I.end_ >= 0 && correct.(d.I.end_) then
            Some (List.filter (fun a -> a != d) ipaths, [ d.I.pid ])
          else None)
        ipaths
  | Sc_consistency name_end ->
      let arr = Array.of_list ipaths in
      let n = Array.length arr in
      let out = ref [] in
      for i = 0 to n - 1 do
        for j = i + 1 to n - 1 do
          let e1 = arr.(i).I.end_ and e2 = arr.(j).I.end_ in
          (* case-insensitive, matching the satisfaction check *)
          if e1 >= 0 && e2 >= 0 && I.lower_end e1 = I.lower_end e2 && name_end.(e1)
          then begin
            let cond = List.filter (fun a -> a != arr.(i) && a != arr.(j)) ipaths in
            out := (cond, [ arr.(i).I.sym; arr.(j).I.sym ]) :: !out
          end
        done
      done;
      List.rev !out

(** String-level view of {!split_interned} — the historical interface,
    kept for tests: interns [paths] against the global table on the fly. *)
let split_paths ~kind ~(pairs : Confusing_pairs.t) (paths : Namepath.t list) :
    (Namepath.t list * Namepath.t list) list =
  let ipaths = I.of_paths paths in
  let ctx = make_split_ctx ~kind ~pairs () in
  split_interned ctx ipaths
  |> List.map (fun (cond, ded_pids) ->
         ( List.map (fun (it : I.t) -> it.I.np) cond,
           List.map I.path_of_pid ded_pids ))

(* ------------------------------------------------------------------ *)
(* combinations (Algorithm 2, line 7)                                  *)
(* ------------------------------------------------------------------ *)

(** The condition sets generated from the visited paths: the full set plus
    every subset of size ≤ [max_subset_size], including the empty condition
    (a pattern that fires wherever its deduction prefix appears — kept only
    if [pruneUncommon] finds it satisfied almost everywhere). *)
let combinations ~max_subset_size (conds : 'a list) : 'a list list =
  let n = List.length conds in
  let full = if n > 0 then [ conds ] else [ [] ] in
  let rec subsets k xs =
    if k = 0 then [ [] ]
    else
      match xs with
      | [] -> [ [] ]
      | x :: rest ->
          let with_x = List.map (fun s -> x :: s) (subsets (k - 1) rest) in
          with_x @ subsets k rest
  in
  let small =
    subsets (min max_subset_size n) conds
    |> List.filter (fun s -> List.length s < n)
    |> List.sort_uniq compare
  in
  full @ List.filter (fun s -> s <> conds) small

(* ------------------------------------------------------------------ *)
(* minePatterns (Algorithm 1)                                          *)
(* ------------------------------------------------------------------ *)

(* [count_sharded ?pool ~n f stmts]: each shard of [stmts] counts into a
   zeroed [int array] of length [n] of its own ([f counts shard]), and the
   shards' arrays are summed element-wise in shard order — integer sums,
   so the total is independent of the shard plan. *)
let count_sharded ?pool ~n f stmts =
  let module Sum = struct
    type t = int array

    let empty () = Array.make n 0
    let merge ~into a = Array.iteri (fun i x -> into.(i) <- into.(i) + x) a
  end in
  let jobs = match pool with Some p -> Namer_parallel.Pool.size p | None -> 1 in
  Namer_parallel.Accumulator.sharded_reduce
    (module Sum)
    ?pool
    ~shards:(Namer_parallel.Shard.oversubscribe ~jobs)
    (fun shard ->
      let counts = Sum.empty () in
      f counts shard;
      counts)
    stmts

type tally = { sats : int array; viols : int array; checks : int }

let prune_tally ?pool ~rank (candidates : Pattern.Store.t) stmts =
  (* Build the anchor table before the fan-out; shards only read it. *)
  let matcher = Pattern.Matcher.create ~rank candidates in
  let n = Pattern.Store.size candidates in
  (* one array per shard: candidate [id]'s satisfactions at [2 id], its
     violations at [2 id + 1], the full checks run at [2 n] *)
  let counts =
    count_sharded ?pool ~n:((2 * n) + 1)
      (fun counts shard ->
        let tally (p : Pattern.t) = function
          | Pattern.No_match -> ()
          | Pattern.Satisfied -> counts.(2 * p.id) <- counts.(2 * p.id) + 1
          | Pattern.Violated _ -> counts.((2 * p.id) + 1) <- counts.((2 * p.id) + 1) + 1
        in
        List.iter
          (fun s -> counts.(2 * n) <- counts.(2 * n) + Pattern.Matcher.iter_matches matcher tally s)
          shard)
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
let path_freq ?pool (stmts : Pattern.Stmt_paths.t list) =
  Telemetry.with_span "mine:path-freq" @@ fun () ->
  let n, _, _ = I.sizes I.global in
  count_sharded ?pool ~n
    (fun freq shard ->
      List.iter
        (fun (s : Pattern.Stmt_paths.t) ->
          Array.iter
            (fun (it : I.t) ->
              freq.(it.I.pid) <- freq.(it.I.pid) + 1;
              freq.(it.I.sym) <- freq.(it.I.sym) + 1)
            s.Pattern.Stmt_paths.ipaths)
        shard)
    stmts

(* A pid's compiled form: its (prefix id, end id), read off the table —
   the ids compiling its rendered text would look up. *)
let ids_of_pid pid = (I.prefix_of_pid pid, I.end_of_pid pid)

(* Lines 4–8 of Algorithm 1: frequency filter → FP-tree growth → pattern
   generation, given the line-5 path frequencies [freq] ({!path_freq}).
   Returns the candidates in generation order — the order that assigns
   their ids — each with the pids of its condition paths. *)
let generate ~(config : config) ~freq ~kind ~(pairs : Confusing_pairs.t)
    (stmts : Pattern.Stmt_paths.t list) =
  let frequent_pid pid = freq.(pid) > config.min_path_freq in
  (* Grow the FP-tree (lines 4–7).  The line-5 frequency filter applies to
     condition paths in their concrete form; deduction paths are checked in
     the form they take inside the pattern (symbolic for consistency
     deductions, whose *prefix* must be a common shape even when the
     concrete name at its end is file-specific). *)
  let ctx = make_split_ctx ~kind ~pairs () in
  let tree =
    Telemetry.with_span "mine:fptree-grow" @@ fun () ->
    let tree = Fptree.create () in
    List.iter
      (fun (s : Pattern.Stmt_paths.t) ->
        let ipaths =
          if Array.length s.Pattern.Stmt_paths.ipaths <= config.max_stmt_paths then
            Array.to_list s.Pattern.Stmt_paths.ipaths
          else
            List.init config.max_stmt_paths (fun i -> s.Pattern.Stmt_paths.ipaths.(i))
        in
        split_interned ctx ipaths
        |> List.iter (fun (cond, ded_pids) ->
               if List.for_all frequent_pid ded_pids then begin
                 let cond =
                   List.filter (fun (it : I.t) -> frequent_pid it.I.pid) cond
                   |> List.sort I.compare_rank
                   |> List.filteri (fun i _ -> i < config.max_condition_paths)
                 in
                 let ded = List.sort I.compare_pids ded_pids in
                 Fptree.insert tree
                   (List.map (fun (it : I.t) -> it.I.pid) cond @ ded)
               end))
      stmts;
    tree
  in
  Telemetry.count ~by:(Fptree.size tree) "mine.fptree_nodes";
  (* genPatterns (line 8 / Algorithm 2).  Candidates are deduplicated by
     their pid lists — deduction arity is fixed per kind, so the item list
     [cond @ ded] is an unambiguous identity, equivalent to the canonical
     text without rendering it. *)
  let n_deduct = match kind with `Confusing -> 1 | `Consistency | `Ordering _ -> 2 in
  let seen : (int list, unit) Hashtbl.t = Hashtbl.create (1 lsl 14) in
  let cand_rev = ref [] in
  Telemetry.with_span "mine:gen-patterns" (fun () ->
      Fptree.fold_last_nodes tree
        ~f:(fun () ~path_items ~support ->
          ignore support;
          let n = List.length path_items in
          if n >= n_deduct then begin
            let rec split_at k xs =
              if k = 0 then ([], xs)
              else
                match xs with
                | [] -> ([], [])
                | x :: rest ->
                    let a, b = split_at (k - 1) rest in
                    (x :: a, b)
            in
            let conds_p, ded_p = split_at (n - n_deduct) path_items in
            let deduction = List.map I.path_of_pid ded_p in
            let ded = Array.of_list (List.map ids_of_pid ded_p) in
            let kind_v =
              match (kind, deduction) with
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
            combinations ~max_subset_size:config.max_subset_size conds_p
            |> List.iter (fun cond_p ->
                   let key = cond_p @ ded_p in
                   if not (Hashtbl.mem seen key) then begin
                     Hashtbl.replace seen key ();
                     cand_rev :=
                       ( Pattern.of_ids ~kind:kind_v
                           ~condition:(List.map I.path_of_pid cond_p)
                           ~deduction
                           ~cond:(Array.of_list (List.map ids_of_pid cond_p))
                           ~ded,
                         Array.of_list cond_p )
                       :: !cand_rev
                   end)
          end)
        ());
  List.rev !cand_rev

(* Candidates get ids 0, 1, … in generation order. *)
let candidate_store cands =
  let store = Pattern.Store.create () in
  List.iter (fun (p, _) -> ignore (Pattern.Store.add_nodedup store p)) cands;
  store

let candidates ?pool ~config ~kind ~pairs stmts =
  candidate_store (generate ~config ~freq:(path_freq ?pool stmts) ~kind ~pairs stmts)

(* The pipeline for one pattern kind over the line-5 frequencies [freq]:
   FP-tree growth and pattern generation, then pruning.  FP-tree growth
   stays sequential: the tree's node order (and hence pattern-id
   assignment downstream) depends on insertion order, which sharding
   would perturb. *)
let mine_kind ?pool ~(config : config) ~freq ~kind ~(pairs : Confusing_pairs.t)
    (stmts : Pattern.Stmt_paths.t list) : result =
  let kind_label =
    match kind with
    | `Consistency -> "consistency"
    | `Confusing -> "confusing"
    | `Ordering _ -> "ordering"
  in
  Telemetry.with_span ~args:[ ("kind", kind_label) ] ("mine:" ^ kind_label)
  @@ fun () ->
  let cands = generate ~config ~freq ~kind ~pairs stmts in
  (* pruneUncommon (line 9): count matches and satisfactions over the
     corpus, keep patterns with enough support and a high enough
     satisfaction ratio.  Candidates are enumerated through the anchor
     index, a superset of the patterns that match each statement; the
     tallies are integer sums, so they equal a full candidate scan's. *)
  Telemetry.with_span "mine:prune" @@ fun () ->
  let candidate_store = candidate_store cands in
  (* Rank anchors by the line-5 count of the condition path's pid.  It
     bounds the number of statements whose index holds that item from
     above (it also counts repeats, and paths behind the first at their
     prefix).  On two generated 100-repo corpora it led to exactly as many
     checks as an exact count of index items, without another corpus
     pass. *)
  let cond_pids = Array.of_list (List.map snd cands) in
  let rank (p : Pattern.t) i = freq.(cond_pids.(p.id).(i)) in
  let tally = prune_tally ?pool ~rank candidate_store stmts in
  Telemetry.count ~by:tally.checks "mine.prune_checks";
  let store = Pattern.Store.create () in
  let cond_counts_rev = ref [] in
  Pattern.Store.iter
    (fun p ->
      let sats = tally.sats.(p.id) in
      let matches = sats + tally.viols.(p.id) in
      if
        matches >= config.min_support
        && float_of_int sats /. float_of_int matches >= config.min_satisfaction_ratio
      then begin
        let n = Pattern.Store.size store in
        let new_id = Pattern.Store.add store { p with id = -1 } in
        if new_id = n then
          cond_counts_rev := Array.map (fun pid -> freq.(pid)) cond_pids.(p.id) :: !cond_counts_rev
      end)
    candidate_store;
  {
    store;
    n_candidates = Pattern.Store.size candidate_store;
    cond_counts = Array.of_list (List.rev !cond_counts_rev);
  }

let mine_kinds ?pool ~config ~kinds ~pairs stmts =
  let freq = path_freq ?pool stmts in
  List.map (fun kind -> mine_kind ?pool ~config ~freq ~kind ~pairs stmts) kinds

let mine ?pool ~config ~kind ~pairs stmts =
  mine_kind ?pool ~config ~freq:(path_freq ?pool stmts) ~kind ~pairs stmts
