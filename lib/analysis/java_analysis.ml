(** Per-file points-to and dataflow analysis for Java (§4.1).

    Java's declared types make object origins largely syntactic, so the
    analysis combines three sources, in decreasing priority:

    - declared types — locals, parameters, fields, catch and foreach binders
      of a specific reference type get that type as origin (the declaration
      *is* the paper's "origin site" for Java objects);
    - allocation flow through the points-to solver — variables declared
      [Object] (or assigned across variables) receive origins from [new]
      expressions and copies, Andersen-style;
    - value dataflow for primitives — a primitive local's origin is the
      function returning its value, a literal category ([Num]/[Str]/[Bool]),
      or ⊤ once modified (increments, augmented assignments, arithmetic).

    [this] resolves to the root superclass: the nearest supertype not
    defined in this file ([Activity] for an [extends Activity] class), or
    ["Object"].  As with Python, everything outside the file is a fresh
    unknown; the analysis is deliberately unsound. *)

open Namer_javalang
module Origins = Namer_namepath.Origins

let primitive_category (t : Java_ast.typ) : string option =
  if t.dims > 0 then None
  else
    match t.base with
    | "int" | "long" | "short" | "byte" | "float" | "double" -> Some "Num"
    | "boolean" -> Some "Bool"
    | "char" -> Some "Str"
    | _ -> None

let is_specific_ref (t : Java_ast.typ) =
  primitive_category t = None && t.base <> "Object" && t.base <> "var"
  && t.base <> "void"

let simple_name = Java_lower.simple_name

(* Locations are solver ints, found by name in one table per scope: a
   table per (class, method) for locals and parameters, and one per class
   for its fields.  No key is a built string. *)
type t = {
  solver : Solver.t;
  class_root : (string, string) Hashtbl.t;
  return_types : (string * string, string) Hashtbl.t;  (** (class, method) → simple return type *)
  scopes : (string * string option, (string, int) Hashtbl.t) Hashtbl.t;
      (** (class, method) → local or parameter → location *)
  fields : (string, (string, int) Hashtbl.t) Hashtbl.t;  (** class → field → location *)
}

let table tbl key =
  match Hashtbl.find_opt tbl key with
  | Some names -> names
  | None ->
      let names = Hashtbl.create 8 in
      Hashtbl.replace tbl key names;
      names

let loc t names x =
  match Hashtbl.find_opt names x with
  | Some l -> l
  | None ->
      let l = Solver.loc t.solver in
      Hashtbl.replace names x l;
      l

(* Where a statement sits: its class and the tables of its locals and of
   the class's fields. *)
type cx = { cls : string; vars : (string, int) Hashtbl.t; fields : (string, int) Hashtbl.t }

(* A value: a location (>= 0), an origin [o] encoded as [-2 - o], or
   nothing (-1). *)
let nothing = -1
let origin t name = -2 - Solver.origin t.solver name

let bind t dst v =
  if v >= 0 then Solver.assign_at t.solver ~dst ~src:v
  else if v < -1 then Solver.alloc_at t.solver dst (-2 - v)

(* The precise origin of location [x] of [names], if its points-to set is
   a singleton other than ⊤. *)
let precise t names x =
  match Option.bind names (fun names -> Hashtbl.find_opt names x) with
  | None -> None
  | Some l -> (
      match Solver.origin_ids t.solver l with
      | [ o ] when o <> Solver.top_id -> Some (Solver.origin_name t.solver o)
      | _ -> None)

let analyze (u : Java_ast.compilation_unit) : t =
  let t =
    {
      solver = Solver.create ();
      class_root = Hashtbl.create 8;
      return_types = Hashtbl.create 16;
      scopes = Hashtbl.create 8;
      fields = Hashtbl.create 8;
    }
  in
  let class_root = t.class_root and return_types = t.return_types in
  (* Class hierarchy: in-file extends chains, rooted at the first external
     supertype. *)
  let in_file : (string, Java_ast.cls) Hashtbl.t = Hashtbl.create 8 in
  let rec collect (c : Java_ast.cls) =
    Hashtbl.replace in_file c.cname c;
    List.iter
      (function Java_ast.Class_m nested -> collect nested | _ -> ())
      c.members
  in
  List.iter collect u.classes;
  let rec root seen (cname : string) : string =
    if List.mem cname seen then "Object"
    else
      match Hashtbl.find_opt in_file cname with
      | None -> cname
      | Some c -> (
          match c.cextends with
          | Some t -> root (cname :: seen) (simple_name t.base)
          | None -> "Object")
  in
  Hashtbl.iter (fun cname _ -> Hashtbl.replace class_root cname (root [] cname)) in_file;
  let declared_origin (ty : Java_ast.typ) : string option =
    match primitive_category ty with
    | Some cat -> Some cat
    | None ->
        if ty.dims > 0 then Some (simple_name ty.base ^ "[]")
        else if is_specific_ref ty then Some (simple_name ty.base)
        else None
  in
  let declare l ty = Option.iter (fun o -> Solver.alloc_at t.solver l (Solver.origin t.solver o)) (declared_origin ty) in
  let num = origin t "Num" and str = origin t "Str" and bool = origin t "Bool" in
  let top = -2 - Solver.top_id in
  (* --- expression evaluation: where does this value come from? --- *)
  let rec eval cx (e : Java_ast.expr) : int =
    let recur e = ignore (eval cx e) in
    match e with
    | Java_ast.Name x -> loc t cx.vars x
    | Java_ast.This -> origin t (Option.value (Hashtbl.find_opt class_root cx.cls) ~default:"Object")
    | Java_ast.Lit_int _ | Java_ast.Lit_float _ -> num
    | Java_ast.Lit_str _ | Java_ast.Lit_char _ -> str
    | Java_ast.Lit_bool _ -> bool
    | Java_ast.Lit_null -> nothing
    | Java_ast.Field (Java_ast.This, f) -> loc t cx.fields f
    | Java_ast.Field (o, _) ->
        recur o;
        nothing
    | Java_ast.Index (a, b) ->
        recur a;
        recur b;
        nothing
    | Java_ast.Call { recv; meth; args } -> (
        Option.iter recur recv;
        List.iter recur args;
        (* in-file method (on this or unqualified): return-type origin *)
        let target_class =
          match recv with
          | Some Java_ast.This | None -> Some cx.cls
          | Some (Java_ast.Name v) -> (
              (* declared type of the receiver, if an in-file class *)
              match precise t (Some cx.vars) v with
              | Some o when Hashtbl.mem in_file o -> Some o
              | _ -> None)
          | _ -> None
        in
        match target_class with
        | Some c -> (
            match Hashtbl.find_opt return_types (c, meth) with
            | Some rt -> origin t rt
            | None -> origin t meth)
        | None -> origin t meth)
    | Java_ast.New (ty, args) ->
        List.iter recur args;
        origin t (simple_name ty.base)
    | Java_ast.New_array (ty, dims) ->
        List.iter recur dims;
        origin t (simple_name ty.base ^ "[]")
    | Java_ast.Array_init es ->
        List.iter recur es;
        nothing
    | Java_ast.Bin (a, _, b) ->
        recur a;
        recur b;
        top
    | Java_ast.Un (op, a) | Java_ast.Postfix (a, op) ->
        recur a;
        (* increment/decrement modifies the value after creation: ⊤ *)
        if op = "++" || op = "--" then assign_target cx a top;
        top
    | Java_ast.Assign_e (tgt, _, v) ->
        let value = eval cx v in
        assign_target cx tgt value;
        value
    | Java_ast.Ternary (c, a, b) ->
        recur c;
        recur a;
        recur b;
        nothing
    | Java_ast.Cast (ty, e) ->
        recur e;
        origin t (simple_name ty.base)
    | Java_ast.Instanceof (e, _) ->
        recur e;
        bool
    | Java_ast.Class_lit _ -> origin t "Class"
    | Java_ast.Super_call (_, args) ->
        List.iter recur args;
        nothing
    | Java_ast.Lambda_e (_, body) ->
        (match body with Java_ast.L_expr e -> recur e | Java_ast.L_block _ -> ());
        nothing
  and assign_target cx (tgt : Java_ast.expr) v =
    if v <> nothing then
      match tgt with
      | Java_ast.Name x -> bind t (loc t cx.vars x) v
      | Java_ast.Field (Java_ast.This, f) -> bind t (loc t cx.fields f) v
      | _ -> ()
  in
  (* --- two passes: first signatures (return types, fields), then bodies,
     so call-return origins resolve regardless of declaration order. --- *)
  let rec signatures (c : Java_ast.cls) =
    List.iter
      (fun m ->
        match m with
        | Java_ast.Method_m { rtype = Some rt; mname; _ } when is_specific_ref rt ->
            Hashtbl.replace return_types (c.cname, mname) (simple_name rt.base)
        | Java_ast.Class_m nested -> signatures nested
        | _ -> ())
      c.members
  in
  List.iter signatures u.classes;
  let rec bodies (c : Java_ast.cls) =
    let fields = table t.fields c.cname in
    let cx fn = { cls = c.cname; vars = table t.scopes (c.cname, fn); fields } in
    List.iter
      (fun m ->
        match m with
        | Java_ast.Field_m { ftype; fname; finit; _ } ->
            let cx = cx None in
            if is_specific_ref ftype || finit = None then declare (loc t cx.fields fname) ftype;
            Option.iter
              (fun e ->
                let v = eval cx e in
                if not (is_specific_ref ftype) then bind t (loc t cx.fields fname) v)
              finit
        | Java_ast.Method_m { mname; params; mbody; _ } ->
            let cx = cx (Some mname) in
            List.iter (fun (ty, name) -> declare (loc t cx.vars name) ty) params;
            Option.iter (walk cx) mbody
        | Java_ast.Init_m body -> walk (cx (Some "<clinit>")) body
        | Java_ast.Class_m nested -> bodies nested)
      c.members
  and walk cx stmts =
    List.iter
      (fun (s : Java_ast.stmt) ->
        (match s.kind with
        | Java_ast.Local (ty, decls) ->
            List.iter
              (fun (name, init) ->
                if is_specific_ref ty || init = None then declare (loc t cx.vars name) ty;
                Option.iter
                  (fun e ->
                    let v = eval cx e in
                    if not (is_specific_ref ty) then assign_target cx (Java_ast.Name name) v)
                  init)
              decls
        | Java_ast.Expr_stmt e -> ignore (eval cx e)
        | Java_ast.If (c, _, _) | Java_ast.While (c, _) | Java_ast.Do_while (_, c)
        | Java_ast.Synchronized (c, _) ->
            ignore (eval cx c)
        | Java_ast.For (init, cond, update, _) ->
            (match init with
            | Java_ast.Fi_local (ty, decls) ->
                List.iter
                  (fun (name, ie) ->
                    declare (loc t cx.vars name) ty;
                    Option.iter (fun e -> ignore (eval cx e)) ie)
                  decls
            | Java_ast.Fi_expr es -> List.iter (fun e -> ignore (eval cx e)) es
            | Java_ast.Fi_none -> ());
            Option.iter (fun c -> ignore (eval cx c)) cond;
            List.iter (fun e -> ignore (eval cx e)) update
        | Java_ast.Foreach (ty, name, iter, _) ->
            declare (loc t cx.vars name) ty;
            ignore (eval cx iter)
        | Java_ast.Return (Some e) -> ignore (eval cx e)
        | Java_ast.Throw e -> ignore (eval cx e)
        | Java_ast.Try (_, catches, _) ->
            List.iter
              (fun (cat : Java_ast.catch) ->
                Solver.alloc_at t.solver (loc t cx.vars cat.cbind)
                  (Solver.origin t.solver (simple_name cat.ctype.base)))
              catches
        | _ -> ());
        match s.kind with
        | Java_ast.If (_, a, b) ->
            walk cx a;
            walk cx b
        | Java_ast.For (_, _, _, b)
        | Java_ast.Foreach (_, _, _, b)
        | Java_ast.While (_, b)
        | Java_ast.Do_while (b, _)
        | Java_ast.Block b
        | Java_ast.Synchronized (_, b) ->
            walk cx b
        | Java_ast.Try (b, catches, f) ->
            walk cx b;
            List.iter (fun (c : Java_ast.catch) -> walk cx c.cbody) catches;
            walk cx f
        | _ -> ())
      stmts
  in
  List.iter bodies u.classes;
  t

(** Origin resolvers for statements in class [cls] / method [fn]. *)
let origins_for t ~(cls : string option) ~(fn : string option) : Origins.t =
  let vars = Option.bind cls (fun c -> Hashtbl.find_opt t.scopes (c, fn)) in
  let fields = Option.bind cls (Hashtbl.find_opt t.fields) in
  let var_origin x =
    if x = "this" then
      match cls with
      | Some c ->
          Some (Option.value (Hashtbl.find_opt t.class_root c) ~default:"Object")
      | None -> None
    else precise t vars x
  in
  let attr_origin f = precise t fields f in
  let call_origin m =
    match cls with
    | Some c -> Hashtbl.find_opt t.return_types (c, m)
    | None -> None
  in
  { Origins.var_origin; attr_origin; call_origin }
