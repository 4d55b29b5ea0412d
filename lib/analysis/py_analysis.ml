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
open Flow
module Origins = Namer_namepath.Origins

type fn_key = { fk_cls : string option; fk_name : string }

type fn_def = {
  key : fn_key;
  params : Py_ast.param list;
  body : Py_ast.stmt list;
  assigned : (string, unit) Hashtbl.t;  (** names assigned in the body *)
  globals : (string, unit) Hashtbl.t;  (** names declared [global] *)
}

type t = {
  solver : Solver.t;
  class_root : (string, string) Hashtbl.t;
  class_methods : (string, (string, unit) Hashtbl.t) Hashtbl.t;
  functions : (fn_key, fn_def) Hashtbl.t;
  instances : (fn_key, string list) Hashtbl.t;  (** fn → contexts (multi) *)
  k : int;  (** effective context depth after the explosion guard *)
}

(* ---------------- keys ---------------- *)

let fn_tag = function
  | None -> ""
  | Some { fk_cls; fk_name } ->
      (match fk_cls with Some c -> c ^ "." | None -> "") ^ fk_name

let var_key ~fn ~ctx name = Printf.sprintf "v|%s|%s|%s" (fn_tag fn) ctx name
let attr_key ~cls name = Printf.sprintf "a|%s|%s" cls name
let ret_key ~fn ~ctx = Printf.sprintf "r|%s|%s" (fn_tag fn) ctx

(* ---------------- indexing ---------------- *)

let collect_assigned (body : Py_ast.stmt list) =
  let assigned = Hashtbl.create 16 and globals = Hashtbl.create 4 in
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

(* Walk the module collecting classes (bases, methods) and functions
   (module-level and methods). Nested functions are not instantiated. *)
let index_module (m : Py_ast.module_) =
  let class_bases : (string, string list) Hashtbl.t = Hashtbl.create 8 in
  let class_methods : (string, (string, unit) Hashtbl.t) Hashtbl.t = Hashtbl.create 8 in
  let functions : (fn_key, fn_def) Hashtbl.t = Hashtbl.create 16 in
  let add_fn key params body =
    let assigned, globals = collect_assigned body in
    List.iter
      (fun (p : Py_ast.param) -> Hashtbl.replace assigned p.Py_ast.pname ())
      params;
    Hashtbl.replace functions key { key; params; body; assigned; globals }
  in
  List.iter
    (fun (s : Py_ast.stmt) ->
      match s.Py_ast.kind with
      | Py_ast.Function_def { name; params; body; _ } ->
          add_fn { fk_cls = None; fk_name = name } params body
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
          let methods = Hashtbl.create 8 in
          Hashtbl.replace class_methods cname methods;
          List.iter
            (fun (cs : Py_ast.stmt) ->
              match cs.Py_ast.kind with
              | Py_ast.Function_def { name; params; body; _ } ->
                  Hashtbl.replace methods name ();
                  add_fn { fk_cls = Some cname; fk_name = name } params body
              | _ -> ())
            cbody
      | _ -> ())
    m;
  (class_bases, class_methods, functions)

(* Root base: follow in-file inheritance to the first class not defined in
   this file; a base-less class is its own root tagged "Object". *)
let compute_class_roots class_bases =
  let roots = Hashtbl.create 8 in
  let rec root seen cname =
    if List.mem cname seen then "Object"
    else
      match Hashtbl.find_opt class_bases cname with
      | None -> cname (* external class: it is the origin *)
      | Some [] -> "Object"
      | Some (b :: _) -> root (cname :: seen) b
  in
  Hashtbl.iter (fun cname _ -> Hashtbl.replace roots cname (root [] cname)) class_bases;
  roots

(* ---------------- call graph and contexts ---------------- *)

(* Resolve a call's callee to an in-file function, if possible. *)
let resolve_callee ~functions ~class_methods ~(cls : string option)
    (func : Py_ast.expr) : fn_key option =
  match func with
  | Py_ast.Name f ->
      let key = { fk_cls = None; fk_name = f } in
      if Hashtbl.mem functions key then Some key else None
  | Py_ast.Attribute (Py_ast.Name "self", m) -> (
      match cls with
      | Some c when
          (match Hashtbl.find_opt class_methods c with
          | Some ms -> Hashtbl.mem ms m
          | None -> false) ->
          Some { fk_cls = Some c; fk_name = m }
      | _ -> None)
  | _ -> None

(* Push call site [site] onto context string [ctx], truncated to length
   [k]; k = 0 collapses every context to the empty string.  A site is
   identified by its caller and its position within the caller's walk —
   positions alone would collide across callers. *)
let push_ctx ~k ~caller site ctx =
  if k = 0 then ""
  else
    let parts = if ctx = "" then [] else String.split_on_char ';' ctx in
    let parts = Printf.sprintf "%s:%d" (fn_tag caller) site :: parts in
    let rec take n = function
      | [] -> []
      | x :: r -> if n = 0 then [] else x :: take (n - 1) r
    in
    String.concat ";" (take k parts)

(* ---------------- fact generation ---------------- *)

let simple_callee_name (func : Py_ast.expr) =
  match func with
  | Py_ast.Name f -> Some f
  | Py_ast.Attribute (_, a) -> Some a
  | _ -> None

let analyze ?(k = 5) (m : Py_ast.module_) : t =
  let class_bases, class_methods, functions = index_module m in
  let class_root = compute_class_roots class_bases in
  let solver = Solver.create () in
  (* --- shared walk over one scope instance.  The SAME traversal serves two
     modes, so the call-site numbering that contexts are built from is
     consistent by construction:
     - [`Discover sink] reports each resolvable (callee, context) edge and
       performs no solver writes — used to enumerate reachable instances;
     - [`Facts] emits alloc/assign facts, including the interprocedural
       argument/return bindings whose keys name callee instances. --- *)
  let root_of_class c =
    match Hashtbl.find_opt class_root c with
    | Some r -> r
    | None -> c (* class not defined in this file *)
  in
  let gen_scope ~(k_eff : int)
      ~(mode : [ `Facts | `Discover of fn_key * string -> unit ])
      ~(fn : fn_key option) ~(ctx : string) ~(def : fn_def option)
      (body : Py_ast.stmt list) =
    let cls = match fn with Some f -> f.fk_cls | None -> None in
    let site = ref 0 in
    let resolve_var x =
      match (fn, def) with
      | Some _, Some d
        when Hashtbl.mem d.assigned x && not (Hashtbl.mem d.globals x) ->
          var_key ~fn ~ctx x
      | _ -> var_key ~fn:None ~ctx:"" x
    in
    let bind dst v =
      match (mode, v) with
      | `Discover _, _ -> ()
      | `Facts, Key src -> Solver.assign solver ~dst ~src
      | `Facts, Origin o -> Solver.alloc solver ~key:dst ~origin:o
      | `Facts, Nothing -> ()
    in
    let rec eval (e : Py_ast.expr) : value =
      match e with
      | Py_ast.Name x -> Key (resolve_var x)
      | Py_ast.Num _ -> Origin "Num"
      | Py_ast.Str _ -> Origin "Str"
      | Py_ast.Bool _ -> Origin "Bool"
      | Py_ast.None_lit -> Origin "None"
      | Py_ast.Attribute (Py_ast.Name "self", a) when cls <> None ->
          Key (attr_key ~cls:(Option.get cls) a)
      | Py_ast.Attribute (o, _) ->
          ignore (eval o);
          Nothing
      | Py_ast.Call { func; args; keywords } -> eval_call func args keywords
      | Py_ast.Compare (a, _, b) ->
          ignore (eval a);
          ignore (eval b);
          Origin "Bool"
      | Py_ast.Bin_op (a, _, b) ->
          ignore (eval a);
          ignore (eval b);
          Origin Solver.top
      | Py_ast.Unary_op (_, a) ->
          ignore (eval a);
          Origin Solver.top
      | Py_ast.Bool_op (_, es) ->
          List.iter (fun e -> ignore (eval e)) es;
          Nothing
      | Py_ast.List_lit es ->
          List.iter (fun e -> ignore (eval e)) es;
          Origin "List"
      | Py_ast.Tuple_lit es ->
          List.iter (fun e -> ignore (eval e)) es;
          Origin "Tuple"
      | Py_ast.Dict_lit kvs ->
          List.iter
            (fun (k, v) ->
              ignore (eval k);
              ignore (eval v))
            kvs;
          Origin "Dict"
      | Py_ast.Subscript (a, b) ->
          ignore (eval a);
          ignore (eval b);
          Nothing
      | Py_ast.Lambda (_, b) ->
          ignore (eval b);
          Nothing
      | Py_ast.Star_arg a | Py_ast.Double_star_arg a -> eval a
    and eval_call func args keywords : value =
      ignore
        (match func with
        | Py_ast.Attribute (o, _) -> eval o
        | _ -> Nothing);
      let arg_vals = List.map eval args in
      List.iter (fun (_, v) -> ignore (eval v)) keywords;
      match resolve_callee ~functions ~class_methods ~cls func with
      | Some callee ->
          incr site;
          let ctx' = push_ctx ~k:k_eff ~caller:fn !site ctx in
          (match mode with `Discover sink -> sink (callee, ctx') | `Facts -> ());
          let callee_def = Hashtbl.find functions callee in
          (* Bind arguments to parameters (skipping self for methods). *)
          let params =
            match callee_def.params with
            | { Py_ast.pname = "self"; _ } :: rest when callee.fk_cls <> None -> rest
            | ps -> ps
          in
          List.iteri
            (fun i v ->
              match List.nth_opt params i with
              | Some (p : Py_ast.param) when p.Py_ast.pkind = Py_ast.Plain ->
                  bind (var_key ~fn:(Some callee) ~ctx:ctx' p.Py_ast.pname) v
              | _ -> ())
            arg_vals;
          Key (ret_key ~fn:(Some callee) ~ctx:ctx')
      | None -> (
          (* External call: allocation if capitalized (a class), otherwise
             "the function returning this value". *)
          match simple_callee_name func with
          | Some f when f <> "" ->
              if f.[0] >= 'A' && f.[0] <= 'Z' then Origin (root_of_class f)
              else Origin f
          | _ -> Nothing)
    in
    let assign_target (tgt : Py_ast.expr) (v : value) =
      match tgt with
      | Py_ast.Name x -> bind (resolve_var x) v
      | Py_ast.Attribute (Py_ast.Name "self", a) when cls <> None ->
          bind (attr_key ~cls:(Option.get cls) a) v
      | _ -> ()
    in
    let rec walk stmts =
      List.iter
        (fun (s : Py_ast.stmt) ->
          (match s.Py_ast.kind with
          | Py_ast.Expr_stmt e -> ignore (eval e)
          | Py_ast.Assign (targets, value) ->
              List.iter (fun t -> ignore (eval t)) (List.filter
                (function Py_ast.Name _ -> false | _ -> true) targets);
              let v = eval value in
              List.iter (fun tgt -> assign_target tgt v) targets
          | Py_ast.Aug_assign (tgt, _, e) ->
              ignore (eval e);
              assign_target tgt (Origin Solver.top)
          | Py_ast.Return (Some e) ->
              let v = eval e in
              bind (ret_key ~fn ~ctx) v
          | Py_ast.Return None -> ()
          | Py_ast.If (branches, _) -> List.iter (fun (c, _) -> ignore (eval c)) branches
          | Py_ast.For (_, it, _, _) -> ignore (eval it)
          | Py_ast.While (c, _) -> ignore (eval c)
          | Py_ast.With (e, b, _) ->
              let v = eval e in
              (match b with
              | Some x -> bind (resolve_var x) v
              | None -> ())
          | Py_ast.Try (_, handlers, _) ->
              List.iter
                (fun (h : Py_ast.handler) ->
                  match (h.Py_ast.bind, h.Py_ast.exn_type) with
                  | Some b, Some et -> (
                      match et with
                      | Py_ast.Name n | Py_ast.Attribute (_, n) ->
                          bind (resolve_var b) (Origin n)
                      | _ -> ())
                  | _ -> ())
                handlers
          | Py_ast.Raise (Some e) -> ignore (eval e)
          | Py_ast.Assert (e, msg) ->
              ignore (eval e);
              Option.iter (fun m -> ignore (eval m)) msg
          | Py_ast.Import names ->
              List.iter
                (fun (mo, alias) ->
                  let b = match alias with Some a -> a | None -> mo in
                  bind (resolve_var b) (Origin mo))
                names
          | Py_ast.Import_from (_, names) ->
              List.iter
                (fun (n, alias) ->
                  if n <> "*" then
                    let b = match alias with Some a -> a | None -> n in
                    bind (resolve_var b) (Origin n))
                names
          | Py_ast.Delete es -> List.iter (fun e -> ignore (eval e)) es
          | _ -> ());
          (* descend into nested blocks of the same scope *)
          match s.Py_ast.kind with
          | Py_ast.If (branches, orelse) ->
              List.iter (fun (_, b) -> walk b) branches;
              walk orelse
          | Py_ast.For (_, _, b, o) ->
              walk b;
              walk o
          | Py_ast.While (_, b) | Py_ast.With (_, _, b) -> walk b
          | Py_ast.Try (b, hs, f) ->
              walk b;
              List.iter (fun (h : Py_ast.handler) -> walk h.hbody) hs;
              walk f
          | _ -> ())
        stmts
    in
    (* Parameter seeding: [self] gets the class's root origin. *)
    (match (fn, def) with
    | Some f, Some d ->
        List.iter
          (fun (p : Py_ast.param) ->
            if p.Py_ast.pname = "self" && f.fk_cls <> None then
              bind
                (var_key ~fn ~ctx "self")
                (Origin (root_of_class (Option.get f.fk_cls))))
          d.params
    | _ -> ());
    walk body
  in
  (* Module scope (top-level statements, without descending into defs). *)
  let module_body =
    List.filter
      (fun (s : Py_ast.stmt) ->
        match s.Py_ast.kind with
        | Py_ast.Function_def _ | Py_ast.Class_def _ -> false
        | _ -> true)
      m
  in
  (* --- discovery: enumerate reachable (function, context) instances from
     every entry point, with the §4.1 explosion guard (retry with k = 0 when
     the average exceeds ~8 contexts per function). --- *)
  let discover k_eff =
    let seen : (fn_key * string, unit) Hashtbl.t = Hashtbl.create 64 in
    let queue = Queue.create () in
    let budget = 8 * max 1 (Hashtbl.length functions) * (k_eff + 1) in
    let exploded = ref false in
    let sink ((callee, _ctx') as inst) =
      if (not (Hashtbl.mem seen inst)) && Hashtbl.mem functions callee then begin
        Hashtbl.replace seen inst ();
        Queue.add inst queue;
        if Hashtbl.length seen > budget then exploded := true
      end
    in
    Hashtbl.iter (fun key _ -> sink (key, "")) functions;
    gen_scope ~k_eff ~mode:(`Discover sink) ~fn:None ~ctx:"" ~def:None module_body;
    while (not (Queue.is_empty queue)) && not !exploded do
      let key, ctx = Queue.pop queue in
      let def = Hashtbl.find functions key in
      gen_scope ~k_eff ~mode:(`Discover sink) ~fn:(Some key) ~ctx ~def:(Some def)
        def.body
    done;
    if !exploded then None else Some seen
  in
  let instance_tbl, k_eff =
    match discover k with
    | Some tbl -> (tbl, k)
    | None -> (
        match discover 0 with
        | Some tbl -> (tbl, 0)
        | None -> (Hashtbl.create 0, 0) (* unreachable: k = 0 cannot explode *))
  in
  let instances : (fn_key, string list) Hashtbl.t = Hashtbl.create 16 in
  Hashtbl.iter
    (fun (key, ctx) () ->
      Hashtbl.replace instances key
        (ctx :: Option.value (Hashtbl.find_opt instances key) ~default:[]))
    instance_tbl;
  (* --- fact generation over the discovered instances --- *)
  gen_scope ~k_eff ~mode:`Facts ~fn:None ~ctx:"" ~def:None module_body;
  Hashtbl.iter
    (fun key ctxs ->
      let def = Hashtbl.find functions key in
      List.iter
        (fun ctx ->
          gen_scope ~k_eff ~mode:`Facts ~fn:(Some key) ~ctx ~def:(Some def) def.body)
        ctxs)
    instances;
  { solver; class_root; class_methods; functions; instances; k = k_eff }

(* ---------------- query interface ---------------- *)

(* Merge the origins of a variable across every context instance of its
   function; precise only if all instances agree on a single non-⊤ origin. *)
let merged_origin t keys =
  let all = List.concat_map (fun key -> Solver.origins_of t.solver ~key) keys in
  match List.sort_uniq compare all with
  | [ o ] when o <> Solver.top -> Some o
  | _ -> None

(** Origin resolvers for statements inside class [cls] / function [fn] —
    plugged into {!Namer_namepath.Astplus.transform}. *)
let origins_for t ~(cls : string option) ~(fn : string option) : Origins.t =
  let fn_key = Option.map (fun f -> { fk_cls = cls; fk_name = f }) fn in
  let fn_ctxs =
    match fn_key with
    | Some k -> (
        match Hashtbl.find_opt t.instances k with Some cs -> cs | None -> [ "" ])
    | None -> [ "" ]
  in
  let var_origin x =
    if x = "self" then
      match cls with
      | Some c -> (
          match Hashtbl.find_opt t.class_root c with
          | Some r -> Some r
          | None -> Some "Object")
      | None -> None
    else
      let local_keys =
        match (fn_key, Option.bind fn_key (Hashtbl.find_opt t.functions)) with
        | Some k, Some def
          when Hashtbl.mem def.assigned x && not (Hashtbl.mem def.globals x) ->
            List.map (fun ctx -> var_key ~fn:(Some k) ~ctx x) fn_ctxs
        | _ -> [ var_key ~fn:None ~ctx:"" x ]
      in
      merged_origin t local_keys
  in
  let attr_origin a =
    match cls with
    | Some c -> merged_origin t [ attr_key ~cls:c a ]
    | None -> None
  in
  let call_origin f =
    let in_file =
      let as_method =
        match cls with
        | Some c -> (
            let key = { fk_cls = Some c; fk_name = f } in
            if Hashtbl.mem t.functions key then Some key else None)
        | None -> None
      in
      match as_method with
      | Some k -> Some k
      | None ->
          let key = { fk_cls = None; fk_name = f } in
          if Hashtbl.mem t.functions key then Some key else None
    in
    match in_file with
    | Some k ->
        let ctxs =
          match Hashtbl.find_opt t.instances k with Some cs -> cs | None -> [ "" ]
        in
        merged_origin t (List.map (fun ctx -> ret_key ~fn:(Some k) ~ctx) ctxs)
    | None ->
        if f <> "" && f.[0] >= 'A' && f.[0] <= 'Z' then
          match Hashtbl.find_opt t.class_root f with
          | Some r -> Some r
          | None -> Some f
        else None
  in
  { Origins.var_origin; attr_origin; call_origin }

(** Effective context depth after the explosion guard (diagnostics). *)
let effective_k t = t.k

(** Number of (function, context) instances (diagnostics / benches). *)
let n_instances t = Hashtbl.fold (fun _ cs acc -> acc + List.length cs) t.instances 0
