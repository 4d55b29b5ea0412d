(** Name paths (Definition 3.2) and their relational operators.

    A name path is the paper's program abstraction for one identifier-name
    usage: the prefix [S] — the (node value, child index) steps from the root
    of a transformed AST to the parent of a terminal — plus the end node,
    which is either the concrete leaf subtoken or the symbolic node ϵ.

    [extract] enumerates the concrete name paths of a statement's AST+ in
    leaf order, enforcing the two properties of §3.1: all extracted paths
    are concrete and their prefixes are pairwise distinct (duplicate
    prefixes keep the first occurrence; statements whose abstraction would
    conflate distinct leaves under one prefix are simply represented by the
    leftmost one, matching the "keep the first 10 paths" regularization
    spirit of §5.1). *)

module Tree = Namer_tree.Tree

type step = { value : string; index : int }

type t = {
  prefix : step list;
  end_node : string option;  (** [None] is the symbolic node ϵ *)
}

let is_symbolic p = p.end_node = None

(** [np1 ∼ np2]: equal prefixes (Definition 3.4). *)
let same_prefix a b =
  List.length a.prefix = List.length b.prefix
  && List.for_all2
       (fun s1 s2 -> s1.index = s2.index && String.equal s1.value s2.value)
       a.prefix b.prefix

(** [np1 = np2]: equal prefixes, and end nodes equal or either ϵ. *)
let equal a b =
  same_prefix a b
  &&
  match (a.end_node, b.end_node) with
  | None, _ | _, None -> true
  | Some x, Some y -> String.equal x y

(** Forget the end node: the symbolic version of a concrete path. *)
let to_symbolic p = { p with end_node = None }

(** Canonical text of the prefix, e.g.
    ["NumArgs(2) 0 Call 0 AttributeLoad 1 Attr 0 NumST(2) 1 TestCase"].
    Used as the interning key for prefixes. *)
let prefix_key p =
  String.concat " "
    (List.map (fun s -> Printf.sprintf "%s %d" s.value s.index) p.prefix)

let to_string p =
  prefix_key p ^ " " ^ (match p.end_node with Some e -> e | None -> "ϵ")

let pp fmt p = Format.pp_print_string fmt (to_string p)

(** Compare by canonical text — the [sort] used when inserting into the
    FP-tree (Algorithm 1, line 7). *)
let compare_canonical a b = compare (to_string a) (to_string b)

(** [extract ?limit t] returns the concrete name paths of AST+ [t], in leaf
    order, at most [limit] of them (the paper keeps the first 10). *)
let extract ?(limit = 10) (t : Tree.t) : t list =
  let out = ref [] and count = ref 0 in
  let seen_prefix = Hashtbl.create 16 in
  let rec go rev_prefix (node : Tree.t) =
    if !count < limit then
      if Tree.is_leaf node then begin
        let p = { prefix = List.rev rev_prefix; end_node = Some node.Tree.value } in
        let key = prefix_key p in
        if not (Hashtbl.mem seen_prefix key) then begin
          Hashtbl.replace seen_prefix key ();
          out := p :: !out;
          incr count
        end
      end
      else
        List.iteri
          (fun i child ->
            go ({ value = node.Tree.value; index = i } :: rev_prefix) child)
          node.Tree.children
  in
  go [] t;
  List.rev !out

(** Parse the canonical text back to a name path — the inverse of
    {!to_string}, used by tests and the pattern store. *)
let of_string s =
  let parts = String.split_on_char ' ' s in
  let rec go acc = function
    | [ end_ ] ->
        {
          prefix = List.rev acc;
          end_node = (if end_ = "ϵ" then None else Some end_);
        }
    | value :: index :: rest ->
        go ({ value; index = int_of_string index } :: acc) rest
    | [] -> invalid_arg "Namepath.of_string: empty"
  in
  go [] parts

(* ------------------------------------------------------------------ *)
(* Hash-consed representation                                          *)
(* ------------------------------------------------------------------ *)

module Interner = Namer_util.Interner

(** The interned-id representation of name paths: every path's canonical
    text, prefix text and end subtoken are hash-consed into dense ids, so
    the mining/scan hot loops compare and hash machine integers instead of
    re-rendering strings (the [prefix_key : t -> int] memoization of the
    hash-consing layer).

    A {!table} owns three interners (whole paths, prefixes, ends) plus the
    derived maps the hot paths need: the name path behind every path id,
    the lowercase-folded id of every end (consistency checks are
    case-insensitive), and — once frozen — the canonical-text rank of every
    path id, so "sort by canonical text" becomes an integer sort.

    Multicore contract: the implicit {!global} table is populated
    sequentially (or by {!remap}-merging shard-local tables in shard
    order), then {!freeze}-frozen before worker domains fan out; frozen
    tables are read-only and safe to share.  Strings survive only at the
    serialization boundary ({!Namepath.of_string}/{!to_string},
    pattern persistence, report rendering). *)
module Interned = struct
  type path = t

  type nonrec t = {
    np : path;  (** the underlying name path *)
    pid : int;  (** id of the whole canonical text *)
    prefix : int;  (** id of the prefix text — the memoized prefix key *)
    end_ : int;  (** id of the end subtoken; [-1] is ϵ *)
    sym : int;  (** pid of the symbolic form (= [pid] when already ϵ) *)
  }

  type table = {
    paths : Interner.t;
    prefixes : Interner.t;
    ends : Interner.t;
    mutable lower : int array;  (** end id → end id of the lowercased form *)
    mutable by_pid : path array;  (** path id → the name path *)
    mutable rank : int array;  (** path id → canonical-text rank (frozen) *)
    mutable frozen : bool;
  }

  let dummy_path = { prefix = []; end_node = None }

  let create_table () =
    {
      paths = Interner.create ();
      prefixes = Interner.create ();
      ends = Interner.create ();
      lower = Array.make 64 (-1);
      by_pid = Array.make 64 dummy_path;
      rank = [||];
      frozen = false;
    }

  let global = create_table ()

  let grow_to arr n fill =
    if n <= Array.length arr then arr
    else begin
      let bigger = Array.make (max n (2 * Array.length arr)) fill in
      Array.blit arr 0 bigger 0 (Array.length arr);
      bigger
    end

  let rec intern_end tb e =
    match Interner.lookup tb.ends e with
    | Some id -> id
    | None ->
        let id = Interner.intern tb.ends e in
        tb.lower <- grow_to tb.lower (id + 1) (-1);
        let low = String.lowercase_ascii e in
        let lid = if String.equal low e then id else intern_end tb low in
        tb.lower.(id) <- lid;
        id

  let intern_path tb np text =
    match Interner.lookup tb.paths text with
    | Some id -> id
    | None ->
        let id = Interner.intern tb.paths text in
        tb.by_pid <- grow_to tb.by_pid (id + 1) dummy_path;
        tb.by_pid.(id) <- np;
        id

  (** Intern one name path: renders its prefix/whole/symbolic texts exactly
      once, at extraction time.  Raises [Invalid_argument] on a frozen
      table when the path is unknown. *)
  let of_path ?(table = global) (np : path) : t =
    let prefix_text = prefix_key np in
    let prefix = Interner.intern table.prefixes prefix_text in
    match np.end_node with
    | None ->
        let pid = intern_path table np (prefix_text ^ " ϵ") in
        { np; pid; prefix; end_ = -1; sym = pid }
    | Some e ->
        let pid = intern_path table np (prefix_text ^ " " ^ e) in
        let end_ = intern_end table e in
        let sym = intern_path table { np with end_node = None } (prefix_text ^ " ϵ") in
        { np; pid; prefix; end_; sym }

  let of_paths ?table nps = List.map (fun np -> of_path ?table np) nps

  (** Fused extract-and-intern: the concrete name paths of AST+ [tree] in
      leaf order, already interned — semantically
      [of_paths ?table (extract ?limit tree)], with identical dedup,
      traversal-limit and intern-call order (so id assignment is
      bit-identical), but each prefix's canonical text is rendered once,
      incrementally, in a single reused buffer instead of twice via
      [Printf.sprintf] per step.  This is the digest hot path. *)
  let extract_tree ?(table = global) ?(limit = 10) (tree : Tree.t) : t list =
    let out = ref [] and count = ref 0 in
    let seen_prefix = Hashtbl.create 16 in
    let pbuf = Buffer.create 128 in
    let rec go rev_prefix (node : Tree.t) =
      if !count < limit then
        if Tree.is_leaf node then begin
          let prefix_text = Buffer.contents pbuf in
          if not (Hashtbl.mem seen_prefix prefix_text) then begin
            Hashtbl.replace seen_prefix prefix_text ();
            let np =
              { prefix = List.rev rev_prefix; end_node = Some node.Tree.value }
            in
            (* same intern order as {!of_path}: prefix, whole path, end,
               symbolic path *)
            let prefix = Interner.intern table.prefixes prefix_text in
            let e = node.Tree.value in
            let pid = intern_path table np (prefix_text ^ " " ^ e) in
            let end_ = intern_end table e in
            let sym =
              intern_path table { np with end_node = None } (prefix_text ^ " ϵ")
            in
            out := { np; pid; prefix; end_; sym } :: !out;
            incr count
          end
        end
        else
          List.iteri
            (fun i child ->
              let saved = Buffer.length pbuf in
              if saved > 0 then Buffer.add_char pbuf ' ';
              Buffer.add_string pbuf node.Tree.value;
              Buffer.add_char pbuf ' ';
              Buffer.add_string pbuf (string_of_int i);
              go ({ value = node.Tree.value; index = i } :: rev_prefix) child;
              Buffer.truncate pbuf saved)
            node.Tree.children
    in
    go [] tree;
    List.rev !out

  (* lookup-or-intern against the global table: when the table is frozen,
     unknown strings map to the never-matching sentinel [-2] instead of
     raising — a frozen table means the corpus has been fully interned, so
     an unknown string cannot occur in any statement. *)
  let find_or ~intern ~look s =
    if global.frozen then match look s with Some i -> i | None -> -2 else intern s

  (** Global prefix id of a path (intern when unfrozen, [-2] sentinel when
      frozen and unknown). *)
  let prefix_id np =
    find_or
      ~intern:(fun s -> Interner.intern global.prefixes s)
      ~look:(fun s -> Interner.lookup global.prefixes s)
      (prefix_key np)

  (** Global end id of a subtoken (same sentinel). *)
  let end_id e =
    find_or ~intern:(fun s -> intern_end global s)
      ~look:(fun s -> Interner.lookup global.ends s)
      e

  let end_name e = Interner.name global.ends e
  let prefix_name p = Interner.name global.prefixes p
  let n_ends () = Interner.size global.ends
  let lookup_end s = Interner.lookup global.ends s

  (** Lowercase-folded end id ([lower_end e = lower_end (lower_end e)]). *)
  let lower_end e = global.lower.(e)

  (** The name path behind a global path id. *)
  let path_of_pid pid = global.by_pid.(pid)

  (** Freeze the global table read-only and precompute the canonical-text
      rank of every path id: after this, sorting paths by [rank] is
      sorting by canonical text, with no string comparison. *)
  let freeze () =
    Interner.freeze global.paths;
    Interner.freeze global.prefixes;
    Interner.freeze global.ends;
    let n = Interner.size global.paths in
    let order = Array.init n (fun i -> i) in
    Array.sort
      (fun a b -> compare (Interner.name global.paths a) (Interner.name global.paths b))
      order;
    let rank = Array.make n 0 in
    Array.iteri (fun r pid -> rank.(pid) <- r) order;
    global.rank <- rank;
    global.frozen <- true

  let thaw () =
    Interner.thaw global.paths;
    Interner.thaw global.prefixes;
    Interner.thaw global.ends;
    global.frozen <- false

  let is_frozen () = global.frozen

  (** Canonical-text order on interned paths: an integer comparison when
      the global table is frozen, a text comparison otherwise.  Rank order
      equals text order restricted to any subset, so both branches sort
      identically. *)
  let compare_rank a b =
    if global.frozen then compare global.rank.(a.pid) global.rank.(b.pid)
    else compare_canonical a.np b.np

  (** Same order on bare global path ids. *)
  let compare_pids a b =
    if global.frozen then compare global.rank.(a) global.rank.(b)
    else compare_canonical global.by_pid.(a) global.by_pid.(b)

  (* ---------------- snapshot persistence ---------------- *)

  let interner_strings i =
    let acc = ref [] in
    Interner.iter (fun _ s -> acc := s :: !acc) i;
    List.rev !acc

  (** The global prefix and end vocabularies in id order — the interner
      state a compiled pattern store references, exported for model
      snapshots.  Whole-path ids are per-scan digest state (every scan
      re-derives them from its input), so they are not part of the model. *)
  let export_global () = (interner_strings global.prefixes, interner_strings global.ends)

  (** Re-populate the global table from a snapshot, in saved id order:
      interning through the same {!intern_end} recursion that produced the
      saved order reproduces the id assignment (and the lowercase-fold map)
      exactly when the table is empty, and is a harmless warm-up merge when
      it is not.  @raise Invalid_argument on a frozen table. *)
  let preload_global ~prefixes ~ends =
    List.iter (fun s -> ignore (Interner.intern global.prefixes s)) prefixes;
    List.iter (fun e -> ignore (intern_end global e)) ends

  (** Id translations from a shard-local table into the global one. *)
  type remap = { path_map : int array; prefix_map : int array; end_map : int array }

  (** [remap_into_global local] interns every string of [local] into the
      global table, in [local]'s first-seen id order, and returns the id
      translations.  Merging shard-local tables in shard order reproduces
      the id assignment of a sequential interning pass, which is why a
      [jobs = N] build is byte-identical to [jobs = 1]. *)
  let remap_into_global (local : table) : remap =
    let prefix_map = Interner.remap ~into:global.prefixes local.prefixes in
    let end_map = Array.make (Interner.size local.ends) (-1) in
    Interner.iter (fun id e -> end_map.(id) <- intern_end global e) local.ends;
    let path_map = Array.make (Interner.size local.paths) (-1) in
    Interner.iter
      (fun id text -> path_map.(id) <- intern_path global local.by_pid.(id) text)
      local.paths;
    { path_map; prefix_map; end_map }

  (** Translate one interned path through a {!remap}. *)
  let apply_remap (m : remap) (it : t) : t =
    {
      it with
      pid = m.path_map.(it.pid);
      prefix = m.prefix_map.(it.prefix);
      end_ = (if it.end_ < 0 then -1 else m.end_map.(it.end_));
      sym = m.path_map.(it.sym);
    }
end

(** Fused fast path: {!extract} and {!Interned.of_paths} in one traversal,
    rendering each prefix's canonical text exactly once. *)
let extract_interned = Interned.extract_tree
