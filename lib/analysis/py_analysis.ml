(** Per-file interprocedural points-to and dataflow analysis for Python
    (§4.1).

    Every file is analyzed in isolation; every function and method is a
    possible entry point.  The analysis is Andersen-style with k-call-site
    sensitivity (k = 5 by default): each in-file function is instantiated
    once per reachable call string of length ≤ k, parameters are bound to
    the actual arguments of the instantiating site, and returned values flow
    back to the caller.  When instantiation explodes — more than 8 contexts
    per function on average, which the paper observed for a few programs —
    the analysis is re-run context-insensitively (k = 0).

    Origins computed:
    - [self] in a method of class C → the root base of C (the nearest base
      not defined in this file — e.g. [TestCase] for Figure 2's
      [TestPicture]), or ["Object"];
    - allocations [x = ClassName(...)] → the class (root base for in-file
      classes);
    - imports [import numpy as np] → the module name;
    - literals → [Num] / [Str] / [Bool] / [None]; containers → [List] /
      [Dict] / [Tuple];
    - external call results → the callee's simple name ("a function
      returning the value");
    - values modified after creation (augmented assignments, arithmetic) →
      ⊤, which suppresses decoration.

    Anything outside the file returns a fresh unknown, so the analysis is
    deliberately unsound — as the paper notes, soundness is not a
    requirement in this setting. *)

open Namer_pylang
module Origins = Namer_namepath.Origins

(* ---------------- ids ----------------

   Nothing is keyed by a string once indexing is done.  Functions are ids
   1.. in first-definition order (0 is the module scope); call sites are
   dense ids per (caller, position in the caller's walk); a call-string
   context is a hash-consed list of sites (0 the empty one) whose every
   node knows its length and the context without its oldest site, so a
   push truncated to length k is one table probe on (site, parent).  An
   instance scope is (function, context); a location is (scope, name) for
   variables and the return slot (name 0), (class, name) for [self]
   attributes.  All pairs are packed into one int, 31 bits a side. *)

let pack a b = (a lsl 31) lor b

module Itbl = Hashtbl.Make (Int)

let find tbl key = match Hashtbl.find tbl key with v -> v | exception Not_found -> -1
let ifind tbl key = match Itbl.find tbl key with v -> v | exception Not_found -> -1

type fn_def = {
  fn_cls : string option;
  mutable params : Py_ast.param list;
  mutable body : Py_ast.stmt list;
  mutable assigned : (string, unit) Hashtbl.t;  (** names assigned in the body *)
  mutable globals : (string, unit) Hashtbl.t;  (** names declared [global] *)
}

(* The fixed origins, as values (see [orig] below). *)
type literals = {
  num : int;
  str : int;
  bool : int;
  none : int;
  list : int;
  tuple : int;
  dict : int;
  top : int;
}

type t = {
  solver : Solver.t;
  literals : literals;
  class_root : (string, string) Hashtbl.t;
  top_fns : (string, int) Hashtbl.t;  (** module-level function → id *)
  methods : (string, (string, int) Hashtbl.t) Hashtbl.t;
      (** class → method → id, over every definition of the class *)
  class_methods : (string, (string, int) Hashtbl.t) Hashtbl.t;
      (** class → method → id, of the class's last definition *)
  mutable defs : fn_def array;  (** by function id; slot 0 unused *)
  mutable n_fns : int;
  names : (string, int) Hashtbl.t;  (** variables, attributes, classes; from 1 *)
  mutable sites : int array array;  (** caller → position → site id *)
  mutable n_sites : int;
  ctx_cons : int Itbl.t;  (** (site, parent) → context *)
  mutable ctx_len : int array;
  mutable ctx_init : int array;  (** the context without its oldest site *)
  mutable n_ctxs : int;
  scopes : int Itbl.t;  (** (function, context) → scope *)
  locs : int Itbl.t;  (** (scope or class, name) → location *)
  mutable instances : int list array;  (** function → contexts *)
  mutable k : int;  (** effective context depth after the explosion guard *)
}

let grow a n fill = Array.init (max n (2 * Array.length a)) (fun j -> if j < Array.length a then a.(j) else fill)

(* A value: a location (>= 0), an origin [o] encoded as [-2 - o], or
   nothing (-1). *)
let nothing = -1
let orig o = -2 - o

let create () =
  let solver = Solver.create () in
  let o name = orig (Solver.origin solver name) in
  {
    solver;
    literals =
      {
        num = o "Num";
        str = o "Str";
        bool = o "Bool";
        none = o "None";
        list = o "List";
        tuple = o "Tuple";
        dict = o "Dict";
        top = orig Solver.top_id;
      };
    class_root = Hashtbl.create 1;
    top_fns = Hashtbl.create 1;
    methods = Hashtbl.create 1;
    class_methods = Hashtbl.create 1;
    defs = [||];
    n_fns = 1;
    names = Hashtbl.create 1;
    sites = [||];
    n_sites = 0;
    ctx_cons = Itbl.create 1;
    ctx_len = Array.make 8 0;
    ctx_init = Array.make 8 0;
    n_ctxs = 1;
    scopes = Itbl.create 1;
    locs = Itbl.create 1;
    instances = [||];
    k = 0;
  }

(* The id of the [j]-th resolvable call in [caller]'s walk. *)
let site_id t caller j =
  if caller >= Array.length t.sites then t.sites <- grow t.sites (caller + 1) [||];
  let a = t.sites.(caller) in
  let a = if j < Array.length a then a else grow a (j + 1) (-1) in
  t.sites.(caller) <- a;
  if a.(j) < 0 then begin
    a.(j) <- t.n_sites;
    t.n_sites <- t.n_sites + 1
  end;
  a.(j)

(* The context [site :: parent], hash-consed. *)
let rec cons t site parent =
  match Itbl.find t.ctx_cons (pack site parent) with
  | c -> c
  | exception Not_found ->
      let init = if parent = 0 then 0 else cons t site t.ctx_init.(parent) in
      let c = t.n_ctxs in
      if c = Array.length t.ctx_len then begin
        t.ctx_len <- grow t.ctx_len (c + 1) 0;
        t.ctx_init <- grow t.ctx_init (c + 1) 0
      end;
      t.ctx_len.(c) <- t.ctx_len.(parent) + 1;
      t.ctx_init.(c) <- init;
      t.n_ctxs <- c + 1;
      Itbl.replace t.ctx_cons (pack site parent) c;
      c

(* Push call site [site] onto context [ctx], truncated to length [k]; k = 0
   collapses every context to the empty one.  A site is identified by its
   caller and its position within the caller's walk — positions alone
   would collide across callers. *)
let push_ctx t ~k site ctx =
  if k = 0 then 0
  else if k < 0 || t.ctx_len.(ctx) < k then cons t site ctx
  else cons t site t.ctx_init.(ctx)

let name_id t x =
  match Hashtbl.find t.names x with
  | v -> v
  | exception Not_found ->
      let v = Hashtbl.length t.names + 1 in
      Hashtbl.replace t.names x v;
      v

let scope_id t fn ctx =
  let key = pack fn ctx in
  match Itbl.find t.scopes key with
  | v -> v
  | exception Not_found ->
      let v = Itbl.length t.scopes in
      Itbl.replace t.scopes key v;
      v

(* Locations of variables and return slots live under [2 * scope], those
   of a class's attributes under [2 * name id of the class + 1]. *)
let loc t owner name =
  let key = pack owner name in
  match Itbl.find t.locs key with
  | v -> v
  | exception Not_found ->
      let v = Solver.loc t.solver in
      Itbl.replace t.locs key v;
      v

let var_loc t scope x = loc t (2 * scope) (name_id t x)
let ret_loc t scope = loc t (2 * scope) 0
let attr_loc t c a = loc t ((2 * name_id t c) + 1) (name_id t a)

(* Read-only twins for queries: -1 when the location was never made. *)
let find_loc t owner name = if owner < 0 || name < 0 then -1 else ifind t.locs (pack owner name)
let find_scope t fn ctx = ifind t.scopes (pack fn ctx)

(* ---------------- indexing ---------------- *)

let collect_assigned (body : Py_ast.stmt list) =
  let assigned = Hashtbl.create 1 and globals = Hashtbl.create 1 in
  let rec target (e : Py_ast.expr) =
    match e with
    | Py_ast.Name x -> Hashtbl.replace assigned x ()
    | Py_ast.Tuple_lit es -> List.iter target es
    | _ -> ()
  in
  Py_ast.iter_stmts
    (fun s ->
      match s.Py_ast.kind with
      | Py_ast.Assign (targets, _) -> List.iter target targets
      | Py_ast.Aug_assign (t, _, _) -> target t
      | Py_ast.For (t, _, _, _) -> target t
      | Py_ast.With (_, Some b, _) -> Hashtbl.replace assigned b ()
      | Py_ast.Try (_, handlers, _) ->
          List.iter
            (fun (h : Py_ast.handler) ->
              match h.bind with Some b -> Hashtbl.replace assigned b () | None -> ())
            handlers
      | Py_ast.Global names -> List.iter (fun n -> Hashtbl.replace globals n ()) names
      | Py_ast.Import names ->
          List.iter
            (fun (m, alias) ->
              let b = match alias with Some a -> a | None -> m in
              Hashtbl.replace assigned b ())
            names
      | Py_ast.Import_from (_, names) ->
          List.iter
            (fun (n, alias) ->
              let b = match alias with Some a -> a | None -> n in
              Hashtbl.replace assigned b ())
            names
      | _ -> ())
    body;
  (assigned, globals)

(* Define (or redefine: the last definition wins, the id stays) function
   [name] in [tbl], a module-level or a per-class method table. *)
let add_fn t tbl ~cls name params body =
  let assigned, globals = collect_assigned body in
  List.iter (fun (p : Py_ast.param) -> Hashtbl.replace assigned p.Py_ast.pname ()) params;
  match Hashtbl.find tbl name with
  | id ->
      let d = t.defs.(id) in
      d.params <- params;
      d.body <- body;
      d.assigned <- assigned;
      d.globals <- globals;
      id
  | exception Not_found ->
      let id = t.n_fns in
      let def = { fn_cls = cls; params; body; assigned; globals } in
      if id >= Array.length t.defs then t.defs <- grow t.defs (id + 1) def;
      t.defs.(id) <- def;
      t.n_fns <- id + 1;
      Hashtbl.replace tbl name id;
      id

(* Walk the module collecting classes (bases, methods) and functions
   (module-level and methods). Nested functions are not instantiated. *)
let index_module t (m : Py_ast.module_) =
  let class_bases : (string, string list) Hashtbl.t = Hashtbl.create 1 in
  List.iter
    (fun (s : Py_ast.stmt) ->
      match s.Py_ast.kind with
      | Py_ast.Function_def { name; params; body; _ } ->
          ignore (add_fn t t.top_fns ~cls:None name params body)
      | Py_ast.Class_def { cname; bases; cbody } ->
          let base_names =
            List.filter_map
              (fun (b : Py_ast.expr) ->
                match b with
                | Py_ast.Name n -> Some n
                | Py_ast.Attribute (_, a) -> Some a
                | _ -> None)
              bases
          in
          Hashtbl.replace class_bases cname base_names;
          let all =
            match Hashtbl.find_opt t.methods cname with
            | Some ms -> ms
            | None ->
                let ms = Hashtbl.create 1 in
                Hashtbl.replace t.methods cname ms;
                ms
          in
          let current = Hashtbl.create 1 in
          Hashtbl.replace t.class_methods cname current;
          List.iter
            (fun (cs : Py_ast.stmt) ->
              match cs.Py_ast.kind with
              | Py_ast.Function_def { name; params; body; _ } ->
                  Hashtbl.replace current name
                    (add_fn t all ~cls:(Some cname) name params body)
              | _ -> ())
            cbody
      | _ -> ())
    m;
  class_bases

(* Root base: follow in-file inheritance to the first class not defined in
   this file; a base-less class is its own root tagged "Object". *)
let compute_class_roots t class_bases =
  let rec root seen cname =
    if List.mem cname seen then "Object"
    else
      match Hashtbl.find_opt class_bases cname with
      | None -> cname (* external class: it is the origin *)
      | Some [] -> "Object"
      | Some (b :: _) -> root (cname :: seen) b
  in
  Hashtbl.iter (fun cname _ -> Hashtbl.replace t.class_root cname (root [] cname)) class_bases

(* The id of in-file function [name] of class [cls] (or of the module), or
   -1. *)
let fn_id t ~cls name =
  match cls with
  | None -> find t.top_fns name
  | Some c -> ( match Hashtbl.find t.methods c with ms -> find ms name | exception Not_found -> -1)

(* ---------------- call graph ---------------- *)

(* Resolve a call's callee to an in-file function id, or -1. *)
let resolve_callee t ~(cls : string option) (func : Py_ast.expr) =
  match func with
  | Py_ast.Name f -> find t.top_fns f
  | Py_ast.Attribute (Py_ast.Name "self", m) -> (
      match cls with
      | Some c -> (
          match Hashtbl.find t.class_methods c with
          | ms -> find ms m
          | exception Not_found -> -1)
      | None -> -1)
  | _ -> -1

let simple_callee_name (func : Py_ast.expr) =
  match func with
  | Py_ast.Name f -> Some f
  | Py_ast.Attribute (_, a) -> Some a
  | _ -> None

(* ---------------- fact generation ---------------- *)

type mode = Facts | Discover of (int -> int -> unit)

(* One walk over the scope instance ([fn], [ctx]); [fn] = 0 is the module
   scope.  The SAME traversal serves two modes, so the call-site numbering
   that contexts are built from is consistent by construction:
   - [Discover sink] reports each resolvable (callee, context) edge and
     makes no locations — used to enumerate reachable instances;
   - [Facts] emits alloc/assign facts, including the interprocedural
     argument/return bindings whose locations name callee instances.
   The walk's functions are top-level over this record, so a walk
   allocates one record, not a closure per function. *)
type scope = {
  t : t;
  k_eff : int;
  mode : mode;
  facts : bool;
  fn : int;
  ctx : int;
  def : fn_def option;
  cls : string option;
  scope : int;  (** this instance's scope id (-1 when discovering) *)
  module_scope : int;
  mutable site : int;  (** resolvable calls walked so far *)
}

let root_of_class t c =
  match Hashtbl.find_opt t.class_root c with
  | Some r -> r
  | None -> c (* class not defined in this file *)

let origin sc name = if sc.facts then orig (Solver.origin sc.t.solver name) else nothing

let resolve_var sc x =
  if not sc.facts then nothing
  else
    match sc.def with
    | Some d when Hashtbl.mem d.assigned x && not (Hashtbl.mem d.globals x) ->
        var_loc sc.t sc.scope x
    | _ -> var_loc sc.t sc.module_scope x

let attr sc a = match sc.cls with Some c when sc.facts -> attr_loc sc.t c a | _ -> nothing

let bind sc dst v =
  if sc.facts then
    if v >= 0 then Solver.assign_at sc.t.solver ~dst ~src:v
    else if v < -1 then Solver.alloc_at sc.t.solver dst (-2 - v)

let rec eval sc (e : Py_ast.expr) =
  let lit = sc.t.literals in
  match e with
  | Py_ast.Name x -> resolve_var sc x
  | Py_ast.Num _ -> lit.num
  | Py_ast.Str _ -> lit.str
  | Py_ast.Bool _ -> lit.bool
  | Py_ast.None_lit -> lit.none
  | Py_ast.Attribute (Py_ast.Name "self", a) when sc.cls <> None -> attr sc a
  | Py_ast.Attribute (o, _) ->
      ignore (eval sc o);
      nothing
  | Py_ast.Call { func; args; keywords } -> eval_call sc func args keywords
  | Py_ast.Compare (a, _, b) ->
      ignore (eval sc a);
      ignore (eval sc b);
      lit.bool
  | Py_ast.Bin_op (a, _, b) ->
      ignore (eval sc a);
      ignore (eval sc b);
      lit.top
  | Py_ast.Unary_op (_, a) ->
      ignore (eval sc a);
      lit.top
  | Py_ast.Bool_op (_, es) ->
      eval_all sc es;
      nothing
  | Py_ast.List_lit es ->
      eval_all sc es;
      lit.list
  | Py_ast.Tuple_lit es ->
      eval_all sc es;
      lit.tuple
  | Py_ast.Dict_lit kvs ->
      List.iter
        (fun (k, v) ->
          ignore (eval sc k);
          ignore (eval sc v))
        kvs;
      lit.dict
  | Py_ast.Subscript (a, b) ->
      ignore (eval sc a);
      ignore (eval sc b);
      nothing
  | Py_ast.Lambda (_, b) ->
      ignore (eval sc b);
      nothing
  | Py_ast.Star_arg a | Py_ast.Double_star_arg a -> eval sc a

and eval_all sc = function
  | [] -> ()
  | e :: rest ->
      ignore (eval sc e);
      eval_all sc rest

and eval_call sc func args keywords =
  let t = sc.t in
  (match func with Py_ast.Attribute (o, _) -> ignore (eval sc o) | _ -> ());
  let arg_vals = List.map (eval sc) args in
  List.iter (fun (_, v) -> ignore (eval sc v)) keywords;
  let callee = resolve_callee t ~cls:sc.cls func in
  if callee > 0 then begin
    sc.site <- sc.site + 1;
    let ctx' = push_ctx t ~k:sc.k_eff (site_id t sc.fn sc.site) sc.ctx in
    match sc.mode with
    | Discover sink ->
        sink callee ctx';
        nothing
    | Facts ->
        let callee_def = t.defs.(callee) in
        let callee_scope = scope_id t callee ctx' in
        (* Bind arguments to parameters (skipping self for methods). *)
        let params =
          match callee_def.params with
          | { Py_ast.pname = "self"; _ } :: rest when callee_def.fn_cls <> None -> rest
          | ps -> ps
        in
        bind_params sc callee_scope params arg_vals;
        ret_loc t callee_scope
  end
  else
    (* External call: allocation if capitalized (a class), otherwise
       "the function returning this value". *)
    match simple_callee_name func with
    | Some f when f <> "" ->
        if f.[0] >= 'A' && f.[0] <= 'Z' then origin sc (root_of_class t f) else origin sc f
    | _ -> nothing

and bind_params sc callee_scope params vals =
  match (params, vals) with
  | (p : Py_ast.param) :: ps, v :: vs ->
      if p.Py_ast.pkind = Py_ast.Plain then bind sc (var_loc sc.t callee_scope p.Py_ast.pname) v;
      bind_params sc callee_scope ps vs
  | _ -> ()

let assign_target sc (tgt : Py_ast.expr) v =
  match tgt with
  | Py_ast.Name x -> bind sc (resolve_var sc x) v
  | Py_ast.Attribute (Py_ast.Name "self", a) when sc.cls <> None -> bind sc (attr sc a) v
  | _ -> ()

let rec walk sc (stmts : Py_ast.stmt list) = List.iter (walk_stmt sc) stmts

and walk_stmt sc (s : Py_ast.stmt) =
  (match s.Py_ast.kind with
  | Py_ast.Expr_stmt e -> ignore (eval sc e)
  | Py_ast.Assign (targets, value) ->
      List.iter
        (fun tgt -> match tgt with Py_ast.Name _ -> () | _ -> ignore (eval sc tgt))
        targets;
      let v = eval sc value in
      List.iter (fun tgt -> assign_target sc tgt v) targets
  | Py_ast.Aug_assign (tgt, _, e) ->
      ignore (eval sc e);
      assign_target sc tgt sc.t.literals.top
  | Py_ast.Return (Some e) ->
      let v = eval sc e in
      if sc.facts then bind sc (ret_loc sc.t sc.scope) v
  | Py_ast.Return None -> ()
  | Py_ast.If (branches, _) -> List.iter (fun (c, _) -> ignore (eval sc c)) branches
  | Py_ast.For (_, it, _, _) -> ignore (eval sc it)
  | Py_ast.While (c, _) -> ignore (eval sc c)
  | Py_ast.With (e, b, _) -> (
      let v = eval sc e in
      match b with Some x -> bind sc (resolve_var sc x) v | None -> ())
  | Py_ast.Try (_, handlers, _) ->
      List.iter
        (fun (h : Py_ast.handler) ->
          match (h.Py_ast.bind, h.Py_ast.exn_type) with
          | Some b, Some (Py_ast.Name n | Py_ast.Attribute (_, n)) ->
              bind sc (resolve_var sc b) (origin sc n)
          | _ -> ())
        handlers
  | Py_ast.Raise (Some e) -> ignore (eval sc e)
  | Py_ast.Assert (e, msg) -> (
      ignore (eval sc e);
      match msg with Some m -> ignore (eval sc m) | None -> ())
  | Py_ast.Import names ->
      List.iter
        (fun (mo, alias) ->
          let b = match alias with Some a -> a | None -> mo in
          bind sc (resolve_var sc b) (origin sc mo))
        names
  | Py_ast.Import_from (_, names) ->
      List.iter
        (fun (n, alias) ->
          if n <> "*" then
            let b = match alias with Some a -> a | None -> n in
            bind sc (resolve_var sc b) (origin sc n))
        names
  | Py_ast.Delete es -> eval_all sc es
  | _ -> ());
  (* descend into nested blocks of the same scope *)
  match s.Py_ast.kind with
  | Py_ast.If (branches, orelse) ->
      List.iter (fun (_, b) -> walk sc b) branches;
      walk sc orelse
  | Py_ast.For (_, _, b, o) ->
      walk sc b;
      walk sc o
  | Py_ast.While (_, b) | Py_ast.With (_, _, b) -> walk sc b
  | Py_ast.Try (b, hs, f) ->
      walk sc b;
      List.iter (fun (h : Py_ast.handler) -> walk sc h.hbody) hs;
      walk sc f
  | _ -> ()

let gen_scope t ~k_eff ~mode ~fn ~ctx (body : Py_ast.stmt list) =
  let facts = mode = Facts in
  let def = if fn > 0 then Some t.defs.(fn) else None in
  let cls = match def with Some d -> d.fn_cls | None -> None in
  let sc =
    {
      t;
      k_eff;
      mode;
      facts;
      fn;
      ctx;
      def;
      cls;
      scope = (if facts then scope_id t fn ctx else -1);
      module_scope = (if facts then scope_id t 0 0 else -1);
      site = 0;
    }
  in
  (* Parameter seeding: [self] gets the class's root origin. *)
  (match (def, cls) with
  | Some d, Some c when facts ->
      List.iter
        (fun (p : Py_ast.param) ->
          if p.Py_ast.pname = "self" then
            bind sc (var_loc t sc.scope "self") (origin sc (root_of_class t c)))
        d.params
  | _ -> ());
  walk sc body

let analyze ?(k = 5) (m : Py_ast.module_) : t =
  let t = create () in
  compute_class_roots t (index_module t m);
  (* Module scope (top-level statements, without descending into defs). *)
  let module_body =
    List.filter
      (fun (s : Py_ast.stmt) ->
        match s.Py_ast.kind with
        | Py_ast.Function_def _ | Py_ast.Class_def _ -> false
        | _ -> true)
      m
  in
  let n_fns = t.n_fns - 1 in
  (* --- discovery: enumerate reachable (function, context) instances from
     every entry point, with the §4.1 explosion guard (retry with k = 0 when
     the average exceeds ~8 contexts per function). --- *)
  let discover k_eff =
    let seen : unit Itbl.t = Itbl.create 1 in
    let queue = Queue.create () in
    let budget = 8 * max 1 n_fns * (k_eff + 1) in
    let exploded = ref false in
    let sink fn ctx =
      let inst = pack fn ctx in
      if not (Itbl.mem seen inst) then begin
        Itbl.replace seen inst ();
        Queue.add inst queue;
        if Itbl.length seen > budget then exploded := true
      end
    in
    for fn = 1 to n_fns do
      sink fn 0
    done;
    let mode = Discover sink in
    gen_scope t ~k_eff ~mode ~fn:0 ~ctx:0 module_body;
    while (not (Queue.is_empty queue)) && not !exploded do
      let inst = Queue.pop queue in
      let fn = inst lsr 31 in
      gen_scope t ~k_eff ~mode ~fn ~ctx:(inst land ((1 lsl 31) - 1)) t.defs.(fn).body
    done;
    if !exploded then None else Some seen
  in
  let seen, k_eff =
    match discover k with
    | Some seen -> (seen, k)
    | None -> (
        match discover 0 with
        | Some seen -> (seen, 0)
        | None -> (Itbl.create 1, 0) (* unreachable: k = 0 cannot explode *))
  in
  t.k <- k_eff;
  t.instances <- Array.make t.n_fns [];
  Itbl.iter
    (fun inst () ->
      let fn = inst lsr 31 in
      t.instances.(fn) <- (inst land ((1 lsl 31) - 1)) :: t.instances.(fn))
    seen;
  (* --- fact generation over the discovered instances --- *)
  gen_scope t ~k_eff ~mode:Facts ~fn:0 ~ctx:0 module_body;
  Array.iteri
    (fun fn ctxs ->
      List.iter
        (fun ctx -> gen_scope t ~k_eff ~mode:Facts ~fn ~ctx t.defs.(fn).body)
        ctxs)
    t.instances;
  t

(* ---------------- query interface ---------------- *)

(* Merge the origins of a variable across every context instance of its
   function; precise only if all instances agree on a single non-⊤ origin.
   [first] is the one origin seen so far (-1: none), -2 once two differ. *)
let rec merge t first = function
  | [] -> first
  | o :: rest -> if first = -1 || first = o then merge t o rest else -2

let merged_origin t first =
  if first >= 0 && first <> Solver.top_id then Some (Solver.origin_name t.solver first)
  else None

let merge_loc t first l = if l < 0 || first = -2 then first else merge t first (Solver.origin_ids t.solver l)

(* The contexts of function [fn] (the empty one when it has none). *)
let contexts t fn =
  if fn > 0 && fn < Array.length t.instances && t.instances.(fn) <> [] then t.instances.(fn)
  else [ 0 ]

(* Merge over the locations [(scope fn ctx, name)] of every context. *)
let merge_instances t fn name =
  List.fold_left
    (fun first ctx ->
      let scope = find_scope t fn ctx in
      merge_loc t first (if scope < 0 then -1 else find_loc t (2 * scope) name))
    (-1) (contexts t fn)

(** Origin resolvers for statements inside class [cls] / function [fn] —
    plugged into {!Namer_namepath.Astplus.transform}. *)
let origins_for t ~(cls : string option) ~(fn : string option) : Origins.t =
  let fn_ = match fn with Some f -> fn_id t ~cls f | None -> -1 in
  let var_origin x =
    if x = "self" then
      match cls with
      | Some c -> (
          match Hashtbl.find_opt t.class_root c with
          | Some r -> Some r
          | None -> Some "Object")
      | None -> None
    else
      let name = find t.names x in
      let first =
        if
          fn_ > 0
          && Hashtbl.mem t.defs.(fn_).assigned x
          && not (Hashtbl.mem t.defs.(fn_).globals x)
        then merge_instances t fn_ name
        else
          let scope = find_scope t 0 0 in
          merge_loc t (-1) (if scope < 0 then -1 else find_loc t (2 * scope) name)
      in
      merged_origin t first
  in
  let attr_origin a =
    match cls with
    | Some c ->
        let owner = match find t.names c with -1 -> -1 | i -> (2 * i) + 1 in
        merged_origin t (merge_loc t (-1) (find_loc t owner (find t.names a)))
    | None -> None
  in
  let call_origin f =
    let callee =
      match fn_id t ~cls f with -1 -> fn_id t ~cls:None f | id -> id
    in
    if callee > 0 then merged_origin t (merge_instances t callee 0)
    else if f <> "" && f.[0] >= 'A' && f.[0] <= 'Z' then
      match Hashtbl.find_opt t.class_root f with Some r -> Some r | None -> Some f
    else None
  in
  { Origins.var_origin; attr_origin; call_origin }

(** Effective context depth after the explosion guard (diagnostics). *)
let effective_k t = t.k

(** Number of (function, context) instances (diagnostics / benches). *)
let n_instances t = Array.fold_left (fun acc cs -> acc + List.length cs) 0 t.instances
