(** Name patterns (Definitions 3.6–3.9) and their match / satisfaction /
    violation relationships against program statements.

    A name pattern is a pair of name-path sets: the *condition* C (concrete
    paths that must all occur in the statement) and the *deduction* D
    (prefixes that must occur, whose end nodes the pattern constrains).  Two
    pattern types are implemented, as in the paper:

    - {e consistency} patterns — D = two symbolic paths; the statement
      satisfies the pattern when the subtokens at both prefixes are equal
      (Example 3.8: [self.<n> = <n>]);
    - {e confusing-word} patterns — D = one concrete path whose end is the
      *correct* word of a mined confusing word pair; any other subtoken at
      that prefix violates the pattern (Figure 2(e): second subtoken of the
      assert callee must be [Equal]).

    Statements are pre-digested into {!Stmt_paths.t} — their name paths in
    the hash-consed {!Namepath.Interned} representation plus a tiny
    prefix-id → end-id index — and patterns are lazily *compiled* to the
    same id space, making every relationship check a handful of integer
    comparisons with no string rendering. *)

module Namepath = Namer_namepath.Namepath
module I = Namepath.Interned

type kind =
  | Consistency
  | Confusing_word of { correct : string }
      (** the deduced word w₂ of a mined confusing pair ⟨w₁, w₂⟩; whether a
          violation's found word actually forms a mined pair with w₂ is
          feature 17, checked against {!Namer_mining.Confusing_pairs} *)
  | Ordering of { first : string; second : string }
      (** extension (the paper's "addition of more patterns" future work):
          two sibling positions must carry the word pair in its canonical
          order — [resize(width, height)], [range(min, max)]; the exact swap
          is the violation (the argument-swap defect class of Rice et al.
          and DeepBugs, both discussed in the paper's related work) *)

(** A pattern compiled to the global interned-id space: condition and
    deduction prefixes as prefix ids, constrained ends as end ids.  The
    sentinel [-1] in a condition's want-slot is ϵ (any end); [-2] anywhere
    is "unknown while frozen" and never matches. *)
type compiled = {
  c_cond : (int * int) array;  (** (prefix id, wanted end id or -1 for ϵ) *)
  c_ded : int array;  (** deduction prefix ids, in deduction order *)
  c_kind : ckind;
}

and ckind =
  | C_consistency
  | C_confusing of int  (** correct end id *)
  | C_ordering of int * int  (** (first, second) end ids *)
  | C_malformed  (** deduction arity does not match kind; {!check} raises *)

type t = {
  kind : kind;
  condition : Namepath.t list;  (** concrete paths *)
  deduction : Namepath.t list;
      (** symbolic ×2 for consistency; concrete ×1 for confusing word *)
  id : int;  (** dense id assigned by the store; -1 before registration *)
  mutable compiled : compiled option;
      (** lazy int-space form; memoized so scans never re-render prefixes *)
}

let make ~kind ~condition ~deduction =
  { kind; condition; deduction; id = -1; compiled = None }

(** Canonical text: condition and deduction in canonical order, separated by
    ["=>"]; stable across runs, used for de-duplication and persistence. *)
let canonical p =
  let paths ps =
    ps
    |> List.map Namepath.to_string
    |> List.sort compare
    |> String.concat " ; "
  in
  let kind_tag =
    match p.kind with
    | Consistency -> "CONSISTENCY"
    | Confusing_word { correct } -> Printf.sprintf "CONFUSING(->%s)" correct
    | Ordering { first; second } -> Printf.sprintf "ORDERING(%s<%s)" first second
  in
  Printf.sprintf "%s : %s => %s" kind_tag (paths p.condition) (paths p.deduction)

let pp fmt p = Format.pp_print_string fmt (canonical p)

(** Whether the pattern constrains a function/method name (callee subtoken)
    rather than an object/variable name — feature 13 of the classifier.
    Determined from the deduction prefix: callee names live under the [Attr]
    of a call's [AttributeLoad], or under a bare [NameLoad] directly below
    [Call]. *)
let targets_function_name p =
  let prefix_has_call_attr (np : Namepath.t) =
    let rec scan = function
      | { Namepath.value = "Call"; _ } :: { Namepath.value = "AttributeLoad"; index = 1 }
        :: { Namepath.value = "Attr"; _ } :: _ ->
          true
      | { Namepath.value = "Call"; index = 0 } :: { Namepath.value = "NameLoad"; _ } :: _ ->
          true
      | _ :: rest -> scan rest
      | [] -> false
    in
    scan np.Namepath.prefix
  in
  List.exists prefix_has_call_attr p.deduction

(* ------------------------------------------------------------------ *)
(* Compilation to the interned-id space                                *)
(* ------------------------------------------------------------------ *)

let compile (p : t) : compiled =
  let want (np : Namepath.t) =
    match np.Namepath.end_node with None -> -1 | Some e -> I.end_id e
  in
  let c_cond =
    Array.of_list (List.map (fun c -> (I.prefix_id c, want c)) p.condition)
  in
  let c_ded = Array.of_list (List.map I.prefix_id p.deduction) in
  let c_kind =
    match (p.kind, p.deduction) with
    | Consistency, [ _; _ ] -> C_consistency
    | Confusing_word { correct }, [ _ ] -> C_confusing (I.end_id correct)
    | Ordering { first; second }, [ _; _ ] ->
        C_ordering (I.end_id first, I.end_id second)
    | _ -> C_malformed
  in
  { c_cond; c_ded; c_kind }

(** The memoized compiled form.  Compilation interns against the global
    table when it is unfrozen (pattern loading), and falls back to
    never-matching [-2] sentinels for unknown strings when frozen — so it is
    safe, but only useful, to compile before worker domains fan out;
    {!Store.add} does exactly that. *)
let ensure_compiled p =
  match p.compiled with
  | Some c -> c
  | None ->
      let c = compile p in
      p.compiled <- Some c;
      c

(** [make] with the compiled form given rather than derived: [cond] holds
    the condition items in condition order, [ded] the (prefix id, end id)
    of each deduction path.  For callers whose paths are already interned
    (the miner): nothing is rendered or looked up.  The kind's word ids are
    the deduction ends — what {!compile} finds for a mined pattern, whose
    words are those ends. *)
let of_ids ~kind ~condition ~deduction ~cond ~ded =
  let c_kind =
    match (kind, Array.length ded) with
    | Consistency, 2 -> C_consistency
    | Confusing_word _, 1 -> C_confusing (snd ded.(0))
    | Ordering _, 2 -> C_ordering (snd ded.(0), snd ded.(1))
    | _ -> C_malformed
  in
  {
    kind;
    condition;
    deduction;
    id = -1;
    compiled = Some { c_cond = cond; c_ded = Array.map fst ded; c_kind };
  }

(** The compiled condition items, [(prefix id, wanted end id)] — the want
    is [-1] for ϵ, and [-2] anywhere is unknown-while-frozen. *)
let condition_items p = (ensure_compiled p).c_cond

(** The compiled deduction prefix ids, in deduction order. *)
let deduction_prefixes p = (ensure_compiled p).c_ded

(* ------------------------------------------------------------------ *)
(* Scan vocabularies                                                   *)
(* ------------------------------------------------------------------ *)

(** Everything a store's compiled patterns mention, frozen for scanning:
    the prefixes of their conditions and deductions under their compiled
    ids, and the end words they compare against under theirs.  Built once
    per store and never written again, so scans on any number of domains
    share it without touching an interning table. *)
type vocab = {
  v_prefixes : I.prefix_set;
  v_prefix_text : (int, string) Hashtbl.t;  (** compiled prefix id → prefix key *)
  v_ends : (string, int) Hashtbl.t;  (** end word → compiled end id *)
  v_local_end : int;  (** above every compiled end id: statement-local ids start here *)
}

(* ------------------------------------------------------------------ *)
(* Statement digests                                                   *)
(* ------------------------------------------------------------------ *)

module Stmt_paths = struct
  (** How a digest's ids turn back into text: through the global table, or
      through the scan vocabulary it was made against plus the end words
      of its index, which also name the statement-local ends. *)
  type names = Global | Vocab of vocab * string array

  (** A statement digested for pattern checking: its name paths in interned
      form, plus the concrete prefix → end index as two parallel int arrays
      in leaf order (statements hold ≤ 10 paths, so a linear scan over an
      int array beats a hash lookup and allocates nothing). *)
  type t = {
    ipaths : I.t array;  (** all paths, original order *)
    index_prefix : int array;  (** distinct concrete-path prefix ids, leaf order *)
    index_end : int array;  (** end id of the first path at that prefix *)
    n_paths : int;
    names : names;
  }

  let of_interned (paths : I.t list) =
    let ipaths = Array.of_list paths in
    let n = Array.length ipaths in
    let ip = Array.make n 0 and ie = Array.make n 0 in
    let k = ref 0 in
    Array.iter
      (fun (it : I.t) ->
        if it.I.end_ >= 0 then begin
          let dup = ref false in
          for j = 0 to !k - 1 do
            if ip.(j) = it.I.prefix then dup := true
          done;
          if not !dup then begin
            ip.(!k) <- it.I.prefix;
            ie.(!k) <- it.I.end_;
            incr k
          end
        end)
      ipaths;
    let fit a = if !k = n then a else Array.sub a 0 !k in
    {
      ipaths;
      index_prefix = fit ip;
      index_end = fit ie;
      n_paths = n;
      names = Global;
    }

  let of_paths ?table (paths : Namepath.t list) = of_interned (I.of_paths ?table paths)

  (* the digest hot path: extract + intern fused into one traversal *)
  let of_tree ?table ?limit tree =
    of_interned (Namepath.extract_interned ?table ?limit tree)

  (* The scan hot path: only the paths whose prefix some pattern mentions
     are kept, with the compiled ids; an end word no pattern mentions gets
     a statement-local id, one per index slot. *)
  let of_vocab (v : vocab) ?(limit = 10) tree =
    let n_paths, kept = I.walk_prefix_set v.v_prefixes ~limit tree in
    let k = List.length kept in
    let index_prefix = Array.make k 0
    and index_end = Array.make k 0
    and words = Array.make k "" in
    List.iteri
      (fun i (pfx, w) ->
        index_prefix.(i) <- pfx;
        index_end.(i) <-
          (match Hashtbl.find_opt v.v_ends w with Some e -> e | None -> v.v_local_end + i);
        words.(i) <- w)
      kept;
    { ipaths = [||]; index_prefix; index_end; n_paths; names = Vocab (v, words) }

  let paths t = Array.to_list (Array.map (fun (it : I.t) -> it.I.np) t.ipaths)

  (* top-level, so a lookup allocates no closure *)
  let rec slot_from (ids : int array) prefix i =
    if i >= Array.length ids then -1
    else if Array.unsafe_get ids i = prefix then i
    else slot_from ids prefix (i + 1)

  (** Index slot of [prefix], or [-1] when the prefix does not occur. *)
  let slot t ~prefix = slot_from t.index_prefix prefix 0

  (** End id at [prefix], or [-1] when the prefix does not occur. *)
  let end_id t ~prefix =
    let i = slot t ~prefix in
    if i < 0 then -1 else t.index_end.(i)

  (** The end word at index slot [i]. *)
  let word t i =
    match t.names with Global -> I.end_name t.index_end.(i) | Vocab (_, w) -> w.(i)

  (** Whether slots [i] and [j] hold the same word up to ASCII case. *)
  let same_word_ci t i j =
    match t.names with
    | Global -> I.lower_end t.index_end.(i) = I.lower_end t.index_end.(j)
    | Vocab (_, w) ->
        let a = w.(i) and b = w.(j) in
        String.length a = String.length b
        &&
        let rec go k =
          k >= String.length a
          || Char.lowercase_ascii a.[k] = Char.lowercase_ascii b.[k] && go (k + 1)
        in
        go 0

  (** Text of a prefix id the digest was looked up with. *)
  let prefix_text t pfx =
    match t.names with
    | Global -> I.prefix_name pfx
    | Vocab (v, _) -> Hashtbl.find v.v_prefix_text pfx

  (** The distinct concrete prefix ids, leaf order — the digest's own index,
      shared, not rebuilt per call. *)
  let prefix_ids t = t.index_prefix

  (** Translate a digest built on a shard-local table into global ids, in
      place: its arrays are rewritten, not copied. *)
  let remap (m : I.remap) t =
    let ip = t.ipaths and pf = t.index_prefix and en = t.index_end in
    for i = 0 to Array.length ip - 1 do
      ip.(i) <- I.apply_remap m ip.(i)
    done;
    for i = 0 to Array.length pf - 1 do
      pf.(i) <- m.I.prefix_map.(pf.(i));
      en.(i) <- m.I.end_map.(en.(i))
    done
end

(* ------------------------------------------------------------------ *)
(* Relationships                                                       *)
(* ------------------------------------------------------------------ *)

(** Details of one violated pattern occurrence: what was found at the
    deduction prefix and what the pattern deduces it should be — the
    suggested fix (§3.2: "modify the statement so that the violated pattern
    becomes satisfied"). *)
type violation_info = {
  offending_prefix : string;  (** prefix key of the offending name path *)
  found : string;  (** subtoken present in the statement *)
  suggested : string;  (** subtoken the pattern deduces *)
}

type relation = No_match | Satisfied | Violated of violation_info

(* Whether the condition item [(prefix, want)] holds in [s]: the prefix
   occurs, with the wanted end unless the want is ϵ. *)
let item_holds (s : Stmt_paths.t) ~prefix ~want =
  let got = Stmt_paths.end_id s ~prefix in
  got >= 0 && (want = -1 || want = got)

(* Whether condition items [i..] all hold in [s]: each prefix occurs, with
   the wanted end unless the want is ϵ.  A top-level loop, so a check
   allocates no closure. *)
let rec condition_holds (s : Stmt_paths.t) (cond : (int * int) array) i =
  i >= Array.length cond
  ||
  let pfx, want = Array.unsafe_get cond i in
  item_holds s ~prefix:pfx ~want && condition_holds s cond (i + 1)

(* The payload-free relationship of a pattern whose condition holds, one
   function per kind: 0 no match, 1 satisfied, 2 violated. *)

let consistency_outcome (s : Stmt_paths.t) d0 d1 =
  let i1 = Stmt_paths.slot s ~prefix:d0 and i2 = Stmt_paths.slot s ~prefix:d1 in
  if i1 < 0 || i2 < 0 then 0
    (* Case-insensitive: [stringWriter] is consistent with its
       [StringWriter] type; [camelCase] with [snake_case] renderings. *)
  else if Stmt_paths.same_word_ci s i1 i2 then 1
  else 2

let confusing_outcome (s : Stmt_paths.t) d0 ~correct =
  let i = Stmt_paths.slot s ~prefix:d0 in
  if i < 0 then 0 else if s.Stmt_paths.index_end.(i) = correct then 1 else 2

let ordering_outcome (s : Stmt_paths.t) d0 d1 ~first ~second =
  let e1 = Stmt_paths.end_id s ~prefix:d0 and e2 = Stmt_paths.end_id s ~prefix:d1 in
  if e1 < 0 || e2 < 0 then 0
  else if e1 = first && e2 = second then 1
    (* only the exact swap is a violation; unrelated words at these
       positions are not this pattern's business *)
  else if e1 = second && e2 = first then 2
  else 0

(* The [Violated] payload of [p], which violates [s]. *)
let violation (p : t) c (s : Stmt_paths.t) =
  match p.kind with
  | Consistency ->
      {
        offending_prefix = Stmt_paths.prefix_text s c.c_ded.(1);
        found = Stmt_paths.word s (Stmt_paths.slot s ~prefix:c.c_ded.(1));
        suggested = Stmt_paths.word s (Stmt_paths.slot s ~prefix:c.c_ded.(0));
      }
  | Confusing_word { correct } ->
      {
        offending_prefix = Stmt_paths.prefix_text s c.c_ded.(0);
        found = Stmt_paths.word s (Stmt_paths.slot s ~prefix:c.c_ded.(0));
        suggested = correct;
      }
  | Ordering { first; second } ->
      { offending_prefix = Stmt_paths.prefix_text s c.c_ded.(0); found = second; suggested = first }

(** [check p s] classifies statement digest [s] against pattern [p].  Pure
    integer comparisons on the hot path; strings are only rendered for the
    [Violated] payload. *)
let check (p : t) (s : Stmt_paths.t) : relation =
  let c = ensure_compiled p in
  if not (condition_holds s c.c_cond 0) then No_match
  else
    let outcome =
      match c.c_kind with
      | C_consistency -> consistency_outcome s c.c_ded.(0) c.c_ded.(1)
      | C_confusing correct -> confusing_outcome s c.c_ded.(0) ~correct
      | C_ordering (first, second) -> ordering_outcome s c.c_ded.(0) c.c_ded.(1) ~first ~second
      | C_malformed ->
          invalid_arg
            "Pattern.check: malformed pattern (deduction arity does not match kind)"
    in
    if outcome = 0 then No_match else if outcome = 1 then Satisfied else Violated (violation p c s)

(* ------------------------------------------------------------------ *)
(* Pattern store and matching index                                    *)
(* ------------------------------------------------------------------ *)

module Store = struct
  (** A deduplicated collection of patterns with an inverted index from
      deduction-prefix ids to the patterns constraining them.  Every
      pattern's deduction prefix must be present in a statement for the
      pattern to match, so bucketing by that id lets a scan consider only
      the patterns that could possibly match each statement. *)
  type nonrec t = {
    mutable patterns : t array;
    mutable n : int;
    by_canonical : (string, int) Hashtbl.t;
    mutable indexed : int;  (** patterns [0 .. indexed - 1] are in [by_canonical] *)
    by_deduction_prefix : (int, int list ref) Hashtbl.t;
  }

  let dummy =
    { kind = Consistency; condition = []; deduction = []; id = -1; compiled = None }

  let create () =
    {
      patterns = Array.make 256 dummy;
      n = 0;
      by_canonical = Hashtbl.create 1024;
      indexed = 0;
      by_deduction_prefix = Hashtbl.create 1024;
    }

  let size t = t.n
  let get t id = t.patterns.(id)

  (* Insert under the next id.  Compiles eagerly so later (possibly
     sharded) checks never intern. *)
  let insert t p =
    let id = t.n in
    if id >= Array.length t.patterns then begin
      let bigger = Array.make (2 * Array.length t.patterns) dummy in
      Array.blit t.patterns 0 bigger 0 t.n;
      t.patterns <- bigger
    end;
    let p = { p with id } in
    let c = ensure_compiled p in
    t.patterns.(id) <- p;
    t.n <- id + 1;
    if Array.length c.c_ded > 0 then begin
      let dkey = c.c_ded.(0) in
      match Hashtbl.find_opt t.by_deduction_prefix dkey with
      | Some l -> l := id :: !l
      | None -> Hashtbl.replace t.by_deduction_prefix dkey (ref [ id ])
    end;
    id

  (** [add t p] registers [p] (deduplicating by canonical form) and returns
      its id. *)
  let add t p =
    (* patterns {!of_list} registered enter the canonical index here *)
    while t.indexed < t.n do
      let key = canonical t.patterns.(t.indexed) in
      if not (Hashtbl.mem t.by_canonical key) then Hashtbl.replace t.by_canonical key t.indexed;
      t.indexed <- t.indexed + 1
    done;
    let key = canonical p in
    match Hashtbl.find_opt t.by_canonical key with
    | Some id -> id
    | None ->
        let id = insert t p in
        Hashtbl.replace t.by_canonical key id;
        t.indexed <- t.n;
        id

  (** The store of [ps] under ids [0, 1, …] in list order, registered
      without rendering canonical text: [ps] are distinct (a saved store).
      A later {!add} indexes them before it deduplicates. *)
  let of_list ps =
    let t = create () in
    List.iter (fun p -> ignore (insert t p)) ps;
    t

  (** All patterns whose deduction prefix occurs in the statement — a
      superset of the patterns {!check} matches.  Drives off the digest's
      prefix-id index; no strings, no per-call key list.  Nothing repeats:
      a pattern is filed under its first deduction prefix only, and a
      digest's index holds each prefix id once.  Scans enumerate candidates
      through {!Matcher}'s anchor table instead; this is the plain
      reference it is tested against, and its order — index slot of the
      first deduction prefix, then descending pattern id — is the order
      {!Matcher.match_file} keeps among one statement's violations. *)
  let candidates t (s : Stmt_paths.t) =
    let acc = ref [] in
    Array.iter
      (fun pfx ->
        match Hashtbl.find_opt t.by_deduction_prefix pfx with
        | Some l -> List.iter (fun id -> acc := get t id :: !acc) !l
        | None -> ())
      (Stmt_paths.prefix_ids s);
    List.rev !acc

  let iter f t =
    for i = 0 to t.n - 1 do
      f t.patterns.(i)
    done

  (** The store's scan vocabulary. *)
  let vocab t =
    let texts = Hashtbl.create 1024 and ends = Hashtbl.create 1024 and top = ref (-1) in
    (* [-2] ids are unknown-while-frozen: they never match, so they stay out *)
    let add_prefix (np : Namepath.t) id =
      if id >= 0 && not (Hashtbl.mem texts id) then
        Hashtbl.replace texts id (Namepath.prefix_key np)
    and add_end w id =
      if id >= 0 then begin
        Hashtbl.replace ends w id;
        top := max !top id
      end
    in
    iter
      (fun p ->
        let c = ensure_compiled p in
        List.iteri
          (fun i (np : Namepath.t) ->
            let pfx, want = c.c_cond.(i) in
            add_prefix np pfx;
            Option.iter (fun w -> add_end w want) np.Namepath.end_node)
          p.condition;
        List.iteri (fun i np -> add_prefix np c.c_ded.(i)) p.deduction;
        match (c.c_kind, p.kind) with
        | C_confusing id, Confusing_word { correct } -> add_end correct id
        | C_ordering (a, b), Ordering { first; second } ->
            add_end first a;
            add_end second b
        | _ -> ())
      t;
    {
      v_prefixes = I.prefix_set (Hashtbl.fold (fun id text acc -> (text, id) :: acc) texts []);
      v_prefix_text = texts;
      v_ends = ends;
      v_local_end = !top + 1;
    }

  let fold f t init =
    let acc = ref init in
    iter (fun p -> acc := f !acc p) t;
    !acc
end

(* ------------------------------------------------------------------ *)
(* The anchored matcher                                                *)
(* ------------------------------------------------------------------ *)

(* A pattern can only match a statement whose index holds each of its exact
   condition items — a (prefix, end) pair — and its first deduction
   prefix.  The anchor table files every pattern id once, under one such
   key that is rare, and a statement enumerates only the ids filed under
   its own index items and prefixes: a superset of the patterns it
   matches, each at most once.  The table is built once and only read, so
   any number of domains share it.  Items and prefixes share one int key
   space: an item packs its two ids (each below 2^31), a prefix is
   negative.  A statement makes two lookups per index slot, and most
   miss, so the table is open-addressed: a lookup is a multiply, a mask
   and a few loads, with no hashing call and no allocation.  The table
   holds ids, not patterns, so a store's patterns and the miner's
   candidate rows share it. *)
module Matcher = struct
  module Key_tbl = Hashtbl.Make (Int)

  type pattern = t

  type table = {
    keys : int array;  (** anchor key per slot, [free] when empty *)
    buckets : int array array;  (** the ids filed under [keys.(i)], ascending *)
    mask : int;  (** slots - 1; at most half the slots are used *)
  }

  type nonrec t = { table : table; patterns : pattern array }

  let free = min_int

  let home mask k =
    let h = k * 0x9E3779B97F4A7C1 in
    (h lxor (h lsr 32)) land mask

  (* The slot holding key [k], or [-1]; top-level, so a probe allocates
     nothing. *)
  let rec probe tb k i =
    let key = Array.unsafe_get tb.keys i in
    if key = k then i else if key = free then -1 else probe tb k ((i + 1) land tb.mask)

  let item_key ~prefix ~end_ = (prefix lsl 31) lor end_
  let prefix_key prefix = -1 - prefix

  let anchor ~ded0 ~n ~prefix ~want ~rank =
    let best = ref (prefix_key ded0) and best_rank = ref max_int in
    for i = 0 to n - 1 do
      let w = want i in
      if w >= 0 then begin
        let r = rank i in
        if r < !best_rank then begin
          best := item_key ~prefix:(prefix i) ~end_:w;
          best_rank := r
        end
      end
    done;
    !best

  let anchor_key ~rank (p : pattern) =
    let cond = condition_items p and ded = deduction_prefixes p in
    if
      Array.length ded = 0
      || Array.exists (fun d -> d < 0) ded
      || Array.exists (fun (pfx, want) -> pfx < 0 || want < -1) cond
    then None
    else
      Some
        (anchor ~ded0:ded.(0) ~n:(Array.length cond)
           ~prefix:(fun i -> fst cond.(i))
           ~want:(fun i -> snd cond.(i))
           ~rank:(rank p))

  let index ~n key =
    let lists = Key_tbl.create (1 lsl 12) in
    for id = n - 1 downto 0 do
      match key id with
      | Some k -> Key_tbl.replace lists k (id :: (try Key_tbl.find lists k with Not_found -> []))
      | None -> ()
    done;
    let size = ref 16 in
    while !size < 2 * Key_tbl.length lists do
      size := 2 * !size
    done;
    let tb = { keys = Array.make !size free; buckets = Array.make !size [||]; mask = !size - 1 } in
    Key_tbl.iter
      (fun k l ->
        let i = ref (home tb.mask k) in
        while tb.keys.(!i) <> free do
          i := (!i + 1) land tb.mask
        done;
        tb.keys.(!i) <- k;
        tb.buckets.(!i) <- Array.of_list l)
      lists;
    tb

  let create ~rank store =
    let patterns = Array.init (Store.size store) (Store.get store) in
    let table = index ~n:(Array.length patterns) (fun id -> anchor_key ~rank patterns.(id)) in
    { table; patterns }

  (* Without corpus counts, an item is ranked by how many of the store's
     conditions hold it: mined patterns combine frequent paths, so an item
     few patterns share tends to be rare in code too. *)
  let of_store store =
    let uses = Key_tbl.create (1 lsl 12) in
    let key (pfx, want) = item_key ~prefix:pfx ~end_:want in
    Store.iter
      (fun p ->
        Array.iter
          (fun ((pfx, want) as it) ->
            if pfx >= 0 && want >= 0 then
              let k = key it in
              Key_tbl.replace uses k (1 + try Key_tbl.find uses k with Not_found -> 0))
          (condition_items p))
      store;
    create ~rank:(fun p i -> Key_tbl.find uses (key (condition_items p).(i))) store

  (* Hand each id of one bucket from [i] on to [f s]; returns [visited]
     plus the ids visited.  Top-level, so a bucket walk allocates no
     closure. *)
  let rec visit_ids f s (bucket : int array) i visited =
    if i >= Array.length bucket then visited
    else begin
      f s (Array.unsafe_get bucket i);
      visit_ids f s bucket (i + 1) (visited + 1)
    end

  let iter_ids tb f (s : Stmt_paths.t) =
    let ip = s.Stmt_paths.index_prefix and ie = s.Stmt_paths.index_end in
    let visited = ref 0 in
    for i = 0 to Array.length ip - 1 do
      let k = item_key ~prefix:ip.(i) ~end_:ie.(i) in
      let j = probe tb k (home tb.mask k) in
      if j >= 0 then visited := visit_ids f s tb.buckets.(j) 0 !visited;
      let k = prefix_key ip.(i) in
      let j = probe tb k (home tb.mask k) in
      if j >= 0 then visited := visit_ids f s tb.buckets.(j) 0 !visited
    done;
    !visited

  (* Check [s] against the patterns of one bucket from [i] on, handing each
     match to [f]; returns [checks] plus the checks run.  Top-level, so a
     bucket walk allocates no closure. *)
  let rec check_bucket f s patterns (bucket : int array) i checks =
    if i >= Array.length bucket then checks
    else begin
      let p = Array.unsafe_get patterns (Array.unsafe_get bucket i) in
      (match check p s with No_match -> () | rel -> f p rel);
      check_bucket f s patterns bucket (i + 1) (checks + 1)
    end

  let iter_matches m f (s : Stmt_paths.t) =
    let tb = m.table and patterns = m.patterns in
    let ip = s.Stmt_paths.index_prefix and ie = s.Stmt_paths.index_end in
    let checks = ref 0 in
    for i = 0 to Array.length ip - 1 do
      let k = item_key ~prefix:ip.(i) ~end_:ie.(i) in
      let j = probe tb k (home tb.mask k) in
      if j >= 0 then checks := check_bucket f s patterns tb.buckets.(j) 0 !checks;
      let k = prefix_key ip.(i) in
      let j = probe tb k (home tb.mask k) in
      if j >= 0 then checks := check_bucket f s patterns tb.buckets.(j) 0 !checks
    done;
    !checks

  let kind_tag p = match p.kind with Consistency -> 0 | Confusing_word _ -> 1 | Ordering _ -> 2

  (* {!Store.candidates} order: the index slot of the first deduction
     prefix, then the higher pattern id first *)
  let candidate_order s ((p : pattern), _) ((q : pattern), _) =
    let slot (x : pattern) = Stmt_paths.slot s ~prefix:(deduction_prefixes x).(0) in
    let c = compare (slot p) (slot q) in
    if c <> 0 then c else compare q.id p.id

  type 's file_matches = {
    violations : ('s * pattern * violation_info) list;
    raw : int;
    checks : int;
  }

  let match_file m ~digest ~line ~on_match (stmts : 's array) lo hi =
    let winners = Hashtbl.create 16 and keys_rev = ref [] in
    let raw = ref 0 and checks = ref 0 in
    let offer st ((p : pattern), info) =
      incr raw;
      let key = (line st, info.offending_prefix, info.suggested, kind_tag p) in
      match Hashtbl.find_opt winners key with
      | Some (_, (prev : pattern), _)
        when Array.length (condition_items prev) >= Array.length (condition_items p) ->
          ()
      | Some _ -> Hashtbl.replace winners key (st, p, info)
      | None ->
          Hashtbl.replace winners key (st, p, info);
          keys_rev := key :: !keys_rev
    in
    for i = lo to hi - 1 do
      let st = stmts.(i) in
      let s = digest st in
      let viols = ref [] in
      checks :=
        !checks
        + iter_matches m
            (fun p rel ->
              on_match st p rel;
              match rel with Violated info -> viols := (p, info) :: !viols | _ -> ())
            s;
      match !viols with
      | [] -> ()
      | [ v ] -> offer st v
      | vs -> List.iter (offer st) (List.sort (candidate_order s) vs)
    done;
    {
      violations = List.rev_map (Hashtbl.find winners) !keys_rev;
      raw = !raw;
      checks = !checks;
    }
end
