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

type t = {
  solver : Solver.t;
  class_root : (string, string) Hashtbl.t;
  return_types : (string * string, string) Hashtbl.t;  (** (class, method) → simple return type *)
}

let var_key ~cls ~fn name =
  Printf.sprintf "v|%s.%s|%s" (Option.value cls ~default:"")
    (Option.value fn ~default:"")
    name

let field_key ~cls name = Printf.sprintf "a|%s|%s" cls name

let analyze (u : Java_ast.compilation_unit) : t =
  let solver = Solver.create () in
  let class_root = Hashtbl.create 8 in
  let return_types = Hashtbl.create 16 in
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
  let t = { solver; class_root; return_types } in
  let declared_origin (ty : Java_ast.typ) : string option =
    match primitive_category ty with
    | Some cat -> Some cat
    | None ->
        if ty.dims > 0 then Some (simple_name ty.base ^ "[]")
        else if is_specific_ref ty then Some (simple_name ty.base)
        else None
  in
  (* --- expression evaluation: where does this value come from? --- *)
  let rec eval ~cls ~fn (e : Java_ast.expr) : Flow.value =
    let recur e = eval ~cls ~fn e in
    match e with
    | Java_ast.Name x -> Flow.Key (var_key ~cls ~fn x)
    | Java_ast.This -> (
        match cls with
        | Some c -> Flow.Origin (Option.value (Hashtbl.find_opt class_root c) ~default:"Object")
        | None -> Flow.Nothing)
    | Java_ast.Lit_int _ | Java_ast.Lit_float _ -> Flow.Origin "Num"
    | Java_ast.Lit_str _ | Java_ast.Lit_char _ -> Flow.Origin "Str"
    | Java_ast.Lit_bool _ -> Flow.Origin "Bool"
    | Java_ast.Lit_null -> Flow.Nothing
    | Java_ast.Field (Java_ast.This, f) -> (
        match cls with
        | Some c -> Flow.Key (field_key ~cls:c f)
        | None -> Flow.Nothing)
    | Java_ast.Field (o, _) ->
        ignore (recur o);
        Flow.Nothing
    | Java_ast.Index (a, b) ->
        ignore (recur a);
        ignore (recur b);
        Flow.Nothing
    | Java_ast.Call { recv; meth; args } -> (
        Option.iter (fun r -> ignore (recur r)) recv;
        List.iter (fun a -> ignore (recur a)) args;
        (* in-file method (on this or unqualified): return-type origin *)
        let target_class =
          match recv with
          | Some Java_ast.This | None -> cls
          | Some (Java_ast.Name v) -> (
              (* declared type of the receiver, if an in-file class *)
              match Solver.singleton_origin solver ~key:(var_key ~cls ~fn v) with
              | Some o when Hashtbl.mem in_file o -> Some o
              | _ -> None)
          | _ -> None
        in
        match target_class with
        | Some c -> (
            match Hashtbl.find_opt return_types (c, meth) with
            | Some rt -> Flow.Origin rt
            | None -> Flow.Origin meth)
        | None -> Flow.Origin meth)
    | Java_ast.New (ty, args) ->
        List.iter (fun a -> ignore (recur a)) args;
        Flow.Origin (simple_name ty.base)
    | Java_ast.New_array (ty, dims) ->
        List.iter (fun a -> ignore (recur a)) dims;
        Flow.Origin (simple_name ty.base ^ "[]")
    | Java_ast.Array_init es ->
        List.iter (fun a -> ignore (recur a)) es;
        Flow.Nothing
    | Java_ast.Bin (a, _, b) ->
        ignore (recur a);
        ignore (recur b);
        Flow.Origin Solver.top
    | Java_ast.Un (op, a) | Java_ast.Postfix (a, op) ->
        ignore (recur a);
        (* increment/decrement modifies the value after creation: ⊤ *)
        if op = "++" || op = "--" then
          assign_target ~cls ~fn a (Flow.Origin Solver.top);
        Flow.Origin Solver.top
    | Java_ast.Assign_e (tgt, _, v) ->
        let value = recur v in
        assign_target ~cls ~fn tgt value;
        value
    | Java_ast.Ternary (c, a, b) ->
        ignore (recur c);
        ignore (recur a);
        ignore (recur b);
        Flow.Nothing
    | Java_ast.Cast (ty, e) ->
        ignore (recur e);
        Flow.Origin (simple_name ty.base)
    | Java_ast.Instanceof (e, _) ->
        ignore (recur e);
        Flow.Origin "Bool"
    | Java_ast.Class_lit _ -> Flow.Origin "Class"
    | Java_ast.Super_call (_, args) ->
        List.iter (fun a -> ignore (recur a)) args;
        Flow.Nothing
    | Java_ast.Lambda_e (_, body) ->
        (match body with
        | Java_ast.L_expr e -> ignore (recur e)
        | Java_ast.L_block _ -> ());
        Flow.Nothing
  and assign_target ~cls ~fn (tgt : Java_ast.expr) (v : Flow.value) =
    let bind dst = function
      | Flow.Key src -> Solver.assign solver ~dst ~src
      | Flow.Origin o -> Solver.alloc solver ~key:dst ~origin:o
      | Flow.Nothing -> ()
    in
    match tgt with
    | Java_ast.Name x -> bind (var_key ~cls ~fn x) v
    | Java_ast.Field (Java_ast.This, f) -> (
        match cls with Some c -> bind (field_key ~cls:c f) v | None -> ())
    | _ -> ()
  in
  let bind ~cls ~fn dst v = assign_target ~cls ~fn (Java_ast.Name dst) v in
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
    let cls = Some c.cname in
    List.iter
      (fun m ->
        match m with
        | Java_ast.Field_m { ftype; fname; finit; _ } ->
            (match declared_origin ftype with
            | Some o when is_specific_ref ftype || finit = None ->
                Solver.alloc solver ~key:(field_key ~cls:c.cname fname) ~origin:o
            | _ -> ());
            Option.iter
              (fun e ->
                let v = eval ~cls ~fn:None e in
                if not (is_specific_ref ftype) then
                  assign_target ~cls ~fn:None (Java_ast.Field (Java_ast.This, fname)) v)
              finit
        | Java_ast.Method_m { mname; params; mbody; _ } ->
            let fn = Some mname in
            List.iter
              (fun ((ty : Java_ast.typ), name) ->
                match declared_origin ty with
                | Some o -> Solver.alloc solver ~key:(var_key ~cls ~fn name) ~origin:o
                | None -> ())
              params;
            Option.iter (fun body -> walk ~cls ~fn body) mbody
        | Java_ast.Init_m body -> walk ~cls ~fn:(Some "<clinit>") body
        | Java_ast.Class_m nested -> bodies nested)
      c.members
  and walk ~cls ~fn stmts =
    List.iter
      (fun (s : Java_ast.stmt) ->
        (match s.kind with
        | Java_ast.Local (ty, decls) ->
            List.iter
              (fun (name, init) ->
                let declared = declared_origin ty in
                (match declared with
                | Some o when is_specific_ref ty || init = None ->
                    Solver.alloc solver ~key:(var_key ~cls ~fn name) ~origin:o
                | _ -> ());
                Option.iter
                  (fun e ->
                    let v = eval ~cls ~fn e in
                    if not (is_specific_ref ty) then bind ~cls ~fn name v)
                  init)
              decls
        | Java_ast.Expr_stmt e -> ignore (eval ~cls ~fn e)
        | Java_ast.If (c, _, _) | Java_ast.While (c, _) | Java_ast.Do_while (_, c)
        | Java_ast.Synchronized (c, _) ->
            ignore (eval ~cls ~fn c)
        | Java_ast.For (init, cond, update, _) ->
            (match init with
            | Java_ast.Fi_local (ty, decls) ->
                List.iter
                  (fun (name, ie) ->
                    (match declared_origin ty with
                    | Some o -> Solver.alloc solver ~key:(var_key ~cls ~fn name) ~origin:o
                    | None -> ());
                    Option.iter (fun e -> ignore (eval ~cls ~fn e)) ie)
                  decls
            | Java_ast.Fi_expr es -> List.iter (fun e -> ignore (eval ~cls ~fn e)) es
            | Java_ast.Fi_none -> ());
            Option.iter (fun c -> ignore (eval ~cls ~fn c)) cond;
            List.iter (fun e -> ignore (eval ~cls ~fn e)) update
        | Java_ast.Foreach (ty, name, iter, _) ->
            (match declared_origin ty with
            | Some o -> Solver.alloc solver ~key:(var_key ~cls ~fn name) ~origin:o
            | None -> ());
            ignore (eval ~cls ~fn iter)
        | Java_ast.Return (Some e) -> ignore (eval ~cls ~fn e)
        | Java_ast.Throw e -> ignore (eval ~cls ~fn e)
        | Java_ast.Try (_, catches, _) ->
            List.iter
              (fun (cat : Java_ast.catch) ->
                Solver.alloc solver
                  ~key:(var_key ~cls ~fn cat.cbind)
                  ~origin:(simple_name cat.ctype.base))
              catches
        | _ -> ());
        match s.kind with
        | Java_ast.If (_, a, b) ->
            walk ~cls ~fn a;
            walk ~cls ~fn b
        | Java_ast.For (_, _, _, b)
        | Java_ast.Foreach (_, _, _, b)
        | Java_ast.While (_, b)
        | Java_ast.Do_while (b, _)
        | Java_ast.Block b
        | Java_ast.Synchronized (_, b) ->
            walk ~cls ~fn b
        | Java_ast.Try (b, catches, f) ->
            walk ~cls ~fn b;
            List.iter (fun (c : Java_ast.catch) -> walk ~cls ~fn c.cbody) catches;
            walk ~cls ~fn f
        | _ -> ())
      stmts
  in
  List.iter bodies u.classes;
  t

(** Origin resolvers for statements in class [cls] / method [fn]. *)
let origins_for t ~(cls : string option) ~(fn : string option) : Origins.t =
  let var_origin x =
    if x = "this" then
      match cls with
      | Some c ->
          Some (Option.value (Hashtbl.find_opt t.class_root c) ~default:"Object")
      | None -> None
    else Solver.singleton_origin t.solver ~key:(var_key ~cls ~fn x)
  in
  let attr_origin f =
    match cls with
    | Some c -> Solver.singleton_origin t.solver ~key:(field_key ~cls:c f)
    | None -> None
  in
  let call_origin m =
    match cls with
    | Some c -> Hashtbl.find_opt t.return_types (c, m)
    | None -> None
  in
  { Origins.var_origin; attr_origin; call_origin }
