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
let add_prefix b p =
  List.iteri
    (fun i s ->
      if i > 0 then Buffer.add_char b ' ';
      Buffer.add_string b s.value;
      Buffer.add_char b ' ';
      Buffer.add_string b (string_of_int s.index))
    p.prefix

let prefix_key p =
  let b = Buffer.create 64 in
  add_prefix b p;
  Buffer.contents b

let to_string p =
  let b = Buffer.create 64 in
  add_prefix b p;
  Buffer.add_char b ' ';
  Buffer.add_string b (match p.end_node with Some e -> e | None -> "ϵ");
  Buffer.contents b

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

  (* The prefix trie behind {!extract_tree}.  Node [0] is the empty prefix
     (the root); every other node is one step [(value, index)] below its
     parent, so a node stands for the step list on the path down to it.
     Children are found through an open-addressing table keyed by
     [(parent, value, index)].  A node caches the prefix id of its
     canonical text ([-1] until the node is first some leaf's prefix: the
     text is rendered then, once, by walking the parent chain) and the sym
     pid of that prefix ([-1] until known).  The [pid_*] arrays are a
     second open-addressing table, from a [(prefix id, end id)] pair, kept
     as two ints, to the path id. *)
  type trie = {
    mutable n_nodes : int;
    mutable parent : int array;
    mutable value : string array;
    mutable index : int array;
    mutable pfx : int array;
    mutable tsym : int array;
    mutable slots : int array;  (** node id per slot, [-1] empty *)
    mutable pid_prefix : int array;  (** pid cache keys, [-1] empty *)
    mutable pid_end : int array;
    mutable pid_val : int array;
    mutable n_pids : int;
  }

  let create_trie () =
    let n = 64 in
    {
      n_nodes = 1;
      parent = Array.make n 0;
      value = Array.make n "";
      index = Array.make n 0;
      pfx = Array.make n (-1);
      tsym = Array.make n (-1);
      slots = Array.make (2 * n) (-1);
      pid_prefix = Array.make (2 * n) (-1);
      pid_end = Array.make (2 * n) 0;
      pid_val = Array.make (2 * n) 0;
      n_pids = 0;
    }

  type table = {
    paths : Interner.t;
    prefixes : Interner.t;
    ends : Interner.t;
    mutable lower : int array;  (** end id → end id of the lowercased form *)
    mutable by_pid : path array;  (** path id → the name path *)
    mutable recs : t array;  (** path id → its shared record, see {!shared} *)
    mutable pid_prefix_id : int array;  (** path id → its prefix id *)
    mutable pid_end_id : int array;  (** path id → its end id, [-1] for ϵ *)
    mutable rank : int array;  (** path id → canonical-text rank (frozen) *)
    mutable frozen : bool;
    trie : trie;  (** written only while the table is not frozen *)
  }

  let dummy_path = { prefix = []; end_node = None }
  let dummy_rec = { np = dummy_path; pid = -1; prefix = -1; end_ = -1; sym = -1 }

  let create_table () =
    {
      paths = Interner.create ();
      prefixes = Interner.create ();
      ends = Interner.create ();
      lower = Array.make 64 (-1);
      by_pid = Array.make 64 dummy_path;
      recs = Array.make 64 dummy_rec;
      pid_prefix_id = Array.make 64 (-1);
      pid_end_id = Array.make 64 (-1);
      rank = [||];
      frozen = false;
      trie = create_trie ();
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

  let intern_path tb np text ~prefix ~end_ =
    match Interner.lookup tb.paths text with
    | Some id -> id
    | None ->
        let id = Interner.intern tb.paths text in
        tb.by_pid <- grow_to tb.by_pid (id + 1) dummy_path;
        tb.by_pid.(id) <- np;
        tb.pid_prefix_id <- grow_to tb.pid_prefix_id (id + 1) (-1);
        tb.pid_prefix_id.(id) <- prefix;
        tb.pid_end_id <- grow_to tb.pid_end_id (id + 1) (-1);
        tb.pid_end_id.(id) <- end_;
        id

  (* The table's one record of path [pid] at [(prefix, end_, sym)], so a
     statement's paths are pointers to records every statement shares,
     not records of their own.  The record is made on the first call for
     [pid] and kept, unless the table is frozen.  A whole-path text can
     split into prefix and end at another space (see [steps_at]), so one
     [pid] can occur with two prefixes: an occurrence that differs from
     the kept record gets a private one.  [np] is the table's [by_pid]
     entry either way. *)
  let shared tb ~pid ~prefix ~end_ ~sym =
    let r = if pid < Array.length tb.recs then tb.recs.(pid) else dummy_rec in
    if r.pid = pid && r.prefix = prefix && r.end_ = end_ && r.sym = sym then r
    else begin
      let fresh = { np = tb.by_pid.(pid); pid; prefix; end_; sym } in
      if r.pid < 0 && not tb.frozen then begin
        tb.recs <- grow_to tb.recs (pid + 1) dummy_rec;
        tb.recs.(pid) <- fresh
      end;
      fresh
    end

  (** Intern one name path: renders its prefix/whole/symbolic texts exactly
      once, at extraction time.  Raises [Invalid_argument] on a frozen
      table when the path is unknown. *)
  let of_path ?(table = global) (np : path) : t =
    let prefix_text = prefix_key np in
    let prefix = Interner.intern table.prefixes prefix_text in
    match np.end_node with
    | None ->
        let pid = intern_path table np (prefix_text ^ " ϵ") ~prefix ~end_:(-1) in
        { np; pid; prefix; end_ = -1; sym = pid }
    | Some e ->
        (* ends and paths are separate interners, so interning the end
           first leaves both first-seen sequences as they were *)
        let end_ = intern_end table e in
        let pid = intern_path table np (prefix_text ^ " " ^ e) ~prefix ~end_ in
        let sym =
          intern_path table { np with end_node = None } (prefix_text ^ " ϵ") ~prefix
            ~end_:(-1)
        in
        { np; pid; prefix; end_; sym }

  let of_paths ?table nps = List.map (fun np -> of_path ?table np) nps

  (* ---------------- the prefix trie ---------------- *)

  let step_hash parent value index =
    let h = Hashtbl.hash value + (parent * 65599) + (index * 31) in
    h lxor (h lsr 17)

  let pair_hash a b =
    let h = (a * 0x9E3779B1) + (b * 0x85EBCA6B) in
    h lxor (h lsr 16)

  let grow_nodes tr =
    let n = 2 * Array.length tr.parent in
    tr.parent <- grow_to tr.parent n 0;
    tr.value <- grow_to tr.value n "";
    tr.index <- grow_to tr.index n 0;
    tr.pfx <- grow_to tr.pfx n (-1);
    tr.tsym <- grow_to tr.tsym n (-1);
    (* keep the child table at most half full *)
    let slots = Array.make (2 * n) (-1) and mask = (2 * n) - 1 in
    for node = 1 to tr.n_nodes - 1 do
      let i = ref (step_hash tr.parent.(node) tr.value.(node) tr.index.(node) land mask) in
      while slots.(!i) >= 0 do
        i := (!i + 1) land mask
      done;
      slots.(!i) <- node
    done;
    tr.slots <- slots

  (* The slot holding the node one step [(value, index)] below [parent],
     or the empty slot where that node would go.  Top-level and closure-
     free: it runs once per tree node on the digest hot paths. *)
  let rec probe_from tr parent value index mask i =
    let node = tr.slots.(i) in
    if
      node < 0
      || tr.parent.(node) = parent
         && tr.index.(node) = index
         && String.equal tr.value.(node) value
    then i
    else probe_from tr parent value index mask ((i + 1) land mask)

  let probe tr parent value index =
    let mask = Array.length tr.slots - 1 in
    probe_from tr parent value index mask (step_hash parent value index land mask)

  (* The node one step [(value, index)] below [parent], added if new. *)
  let rec child tr parent value index =
    let i = probe tr parent value index in
    let found = tr.slots.(i) in
    if found >= 0 then found
    else if tr.n_nodes >= Array.length tr.parent then begin
      grow_nodes tr;
      child tr parent value index
    end
    else begin
      let node = tr.n_nodes in
      tr.n_nodes <- node + 1;
      tr.parent.(node) <- parent;
      tr.value.(node) <- value;
      tr.index.(node) <- index;
      tr.slots.(i) <- node;
      node
    end

  (* Canonical text of a node's prefix ({!prefix_key} of its step list),
     rendered right to left along the parent chain. *)
  let render tr node =
    let len = ref (-1) and m = ref node in
    while !m <> 0 do
      len :=
        !len + String.length tr.value.(!m)
        + String.length (string_of_int tr.index.(!m))
        + 2;
      m := tr.parent.(!m)
    done;
    if node = 0 then ""
    else begin
      let b = Bytes.create !len and pos = ref !len in
      let put s =
        pos := !pos - String.length s;
        Bytes.blit_string s 0 b !pos (String.length s)
      in
      m := node;
      while !m <> 0 do
        put (string_of_int tr.index.(!m));
        put " ";
        put tr.value.(!m);
        if !pos > 0 then put " ";
        m := tr.parent.(!m)
      done;
      Bytes.unsafe_to_string b
    end

  let rec steps_of tr acc node =
    if node = 0 then acc
    else
      steps_of tr ({ value = tr.value.(node); index = tr.index.(node) } :: acc) tr.parent.(node)

  (* The step list of a new path at [node]: the one path [pid] holds when
     [pid]'s prefix is [prefix], else the node's own.  A whole-path text can
     split into prefix and end at another space when an end or a value holds
     one (the text of prefix [""; 0] and end "b" is that of the root prefix
     and end "0 b"), so [pid] may be a path under another prefix. *)
  let steps_at tb tr node ~prefix pid =
    if pid >= 0 && tb.pid_prefix_id.(pid) = prefix then tb.by_pid.(pid).prefix
    else steps_of tr [] node

  (* Prefix id of a node, interning its text the first time. *)
  let node_prefix tb tr node =
    let p = tr.pfx.(node) in
    if p >= 0 then p
    else begin
      let p = Interner.intern tb.prefixes (render tr node) in
      tr.pfx.(node) <- p;
      p
    end

  let grow_pids tr =
    let old_p = tr.pid_prefix and old_e = tr.pid_end and old_v = tr.pid_val in
    let n = 2 * Array.length old_p in
    let mask = n - 1 in
    tr.pid_prefix <- Array.make n (-1);
    tr.pid_end <- Array.make n 0;
    tr.pid_val <- Array.make n 0;
    Array.iteri
      (fun j p ->
        if p >= 0 then begin
          let i = ref (pair_hash p old_e.(j) land mask) in
          while tr.pid_prefix.(!i) >= 0 do
            i := (!i + 1) land mask
          done;
          tr.pid_prefix.(!i) <- p;
          tr.pid_end.(!i) <- old_e.(j);
          tr.pid_val.(!i) <- old_v.(j)
        end)
      old_p

  (* Path id of the concrete path [prefix]/[end_] at [node], interning its
     text on a cache miss.  A new path's step list is the one already held
     by its prefix's symbolic path when there is one. *)
  let node_pid tb tr node ~prefix ~end_ e =
    let mask = Array.length tr.pid_prefix - 1 in
    let i = ref (pair_hash prefix end_ land mask) and found = ref (-1) in
    while !found < 0 && tr.pid_prefix.(!i) >= 0 do
      if tr.pid_prefix.(!i) = prefix && tr.pid_end.(!i) = end_ then found := tr.pid_val.(!i)
      else i := (!i + 1) land mask
    done;
    if !found >= 0 then !found
    else begin
      let steps = steps_at tb tr node ~prefix tr.tsym.(node) in
      let text = Interner.name tb.prefixes prefix ^ " " ^ e in
      let pid = intern_path tb { prefix = steps; end_node = Some e } text ~prefix ~end_ in
      tr.pid_prefix.(!i) <- prefix;
      tr.pid_end.(!i) <- end_;
      tr.pid_val.(!i) <- pid;
      tr.n_pids <- tr.n_pids + 1;
      if 2 * tr.n_pids > Array.length tr.pid_prefix then grow_pids tr;
      pid
    end

  let node_sym tb tr node ~prefix ~pid =
    let s = tr.tsym.(node) in
    if s >= 0 then s
    else begin
      let np = { prefix = steps_at tb tr node ~prefix pid; end_node = None } in
      let s = intern_path tb np (Interner.name tb.prefixes prefix ^ " ϵ") ~prefix ~end_:(-1) in
      tr.tsym.(node) <- s;
      s
    end

  (** Fused extract-and-intern: the concrete name paths of AST+ [tree] in
      leaf order, already interned — [of_paths ?table (extract ?limit tree)]
      with the same ids: each interner sees the same first-seen sequence
      (prefixes; whole paths, then symbolic paths; ends with their
      lowercase forms), and a path's [np] is the table's [by_pid] entry.
      Each path is the table's shared record ({!shared}), so equal paths
      across statements are one record.  Nothing is rendered per leaf:
      the walk descends the table's prefix trie, a node's text is
      rendered once per table when it is first a leaf's prefix, and
      [(prefix, end)] pairs map to path ids through a cache.  [extract]'s per-statement prefix dedup has nothing to do
      here: two leaves of one tree part at their lowest common ancestor
      with different child indices, and an index is followed by a space or
      the end of the text, so their prefix texts always differ.  A frozen
      table is never written: the walk then uses a trie of its own, which
      the call drops.  This is the digest hot path. *)
  let extract_tree ?(table = global) ?(limit = 10) (tree : Tree.t) : t list =
    let tr = if table.frozen then create_trie () else table.trie in
    let out = ref [] and count = ref 0 in
    let leaf node e =
      let prefix = node_prefix table tr node in
      let end_ = intern_end table e in
      let pid = node_pid table tr node ~prefix ~end_ e in
      let sym = node_sym table tr node ~prefix ~pid in
      out := shared table ~pid ~prefix ~end_ ~sym :: !out;
      incr count
    in
    let rec go node (t : Tree.t) =
      match t.children with
      | [] -> leaf node t.value
      | children -> kids node t.value 0 children
    and kids node value i = function
      | [] -> ()
      | c :: rest ->
          if !count < limit then begin
            go (child tr node value i) c;
            kids node value (i + 1) rest
          end
    in
    if limit > 0 then go 0 tree;
    List.rev !out

  (* ---------------- read-only prefix sets ---------------- *)

  (* A fixed set of prefix texts, each with a caller-chosen id, held in a
     trie of its own whose nodes' [pfx] slot carries that id ([-1] for a
     node that is only on the way to one).  A text enters the trie under
     its canonical steps: its space-separated tokens paired up as (value,
     index), where each index token is an integer that [string_of_int]
     renders back.  A tree whose node values hold no space renders a
     prefix text exactly when its steps are that text's canonical steps, so
     the walk below finds every such prefix without rendering anything.
     [texts] answers the rare tree that has a space in a value; [odd] says
     that some text has no canonical steps, so that only a tree with a
     space in a value can render it. *)
  type prefix_set = { ps_trie : trie; ps_texts : (string, int) Hashtbl.t; ps_odd : bool }

  let canonical_steps text =
    if text = "" then Some []
    else
      let rec pair acc = function
        | [] -> Some (List.rev acc)
        | value :: index :: rest -> (
            match int_of_string_opt index with
            | Some i when String.equal (string_of_int i) index ->
                pair ({ value; index = i } :: acc) rest
            | _ -> None)
        | [ _ ] -> None
      in
      pair [] (String.split_on_char ' ' text)

  let prefix_set (prefixes : (string * int) list) =
    let tr = create_trie () and texts = Hashtbl.create 1024 and odd = ref false in
    List.iter
      (fun (text, id) ->
        Hashtbl.replace texts text id;
        match canonical_steps text with
        | Some steps ->
            let node = List.fold_left (fun n (s : step) -> child tr n s.value s.index) 0 steps in
            tr.pfx.(node) <- id
        | None -> odd := true)
      prefixes;
    { ps_trie = tr; ps_texts = texts; ps_odd = !odd }

  exception Spaced_value

  (** The leaves [extract ~limit tree] keeps whose prefix text is in [ps],
      in leaf order, as (id, end subtoken), with the number of leaves
      [extract] keeps.  Leaves under other prefixes still count toward
      [limit].  Reads [ps] only. *)
  let walk_prefix_set ps ~limit (tree : Tree.t) =
    let tr = ps.ps_trie in
    let count = ref 0 and kept = ref [] in
    let rec go node (t : Tree.t) =
      match t.children with
      | [] ->
          if node >= 0 then begin
            let id = tr.pfx.(node) in
            if id >= 0 then kept := (id, t.value) :: !kept
          end;
          incr count
      | children -> kids node t.value 0 children
    and kids node value i = function
      | [] -> ()
      | c :: rest ->
          if !count < limit then begin
            (* Off the trie no leaf below is in the set, unless a space in
               a value re-pairs the tokens of the text: trie values hold no
               space, so a spaced step on the way to a canonical text
               misses here, and a text without canonical steps can sit
               below any miss. *)
            let below =
              if node < 0 then
                if ps.ps_odd && String.contains value ' ' then raise Spaced_value else -1
              else
                let n = tr.slots.(probe tr node value i) in
                if n < 0 && String.contains value ' ' then raise Spaced_value else n
            in
            go below c;
            kids node value (i + 1) rest
          end
    in
    (* the same walk, rendering each leaf's prefix text *)
    let rec go_text rev_steps (t : Tree.t) =
      match t.children with
      | [] ->
          (match
             Hashtbl.find_opt ps.ps_texts
               (prefix_key { prefix = List.rev rev_steps; end_node = None })
           with
          | Some id -> kept := (id, t.value) :: !kept
          | None -> ());
          incr count
      | children ->
          List.iteri
            (fun i c ->
              if !count < limit then go_text ({ value = t.value; index = i } :: rev_steps) c)
            children
    in
    if limit > 0 then begin
      try go 0 tree
      with Spaced_value ->
        count := 0;
        kept := [];
        go_text [] tree
    end;
    (!count, List.rev !kept)

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

  let prefix_of_pid pid = global.pid_prefix_id.(pid)
  let end_of_pid pid = global.pid_end_id.(pid)

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

  let trie_nodes tb = tb.trie.n_nodes

  let sizes tb = (Interner.size tb.paths, Interner.size tb.prefixes, Interner.size tb.ends)

  (** A table's whole-path, prefix and end vocabularies, each in id order. *)
  let contents tb =
    (interner_strings tb.paths, interner_strings tb.prefixes, interner_strings tb.ends)

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
      (fun id text ->
        let e = local.pid_end_id.(id) in
        path_map.(id) <-
          intern_path global local.by_pid.(id) text
            ~prefix:prefix_map.(local.pid_prefix_id.(id))
            ~end_:(if e < 0 then -1 else end_map.(e)))
      local.paths;
    { path_map; prefix_map; end_map }

  (** Translate one interned path through a {!remap}: the global table's
      shared record of the translated ids. *)
  let apply_remap (m : remap) (it : t) : t =
    shared global ~pid:m.path_map.(it.pid) ~prefix:m.prefix_map.(it.prefix)
      ~end_:(if it.end_ < 0 then -1 else m.end_map.(it.end_))
      ~sym:m.path_map.(it.sym)
end

(** Fused fast path: {!extract} and {!Interned.of_paths} in one traversal,
    rendering each distinct prefix's canonical text once per table. *)
let extract_interned = Interned.extract_tree
