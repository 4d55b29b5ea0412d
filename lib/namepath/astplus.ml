(** The AST → AST+ transformation (§3.1).

    Four rewrites turn a parsed statement tree into the transformed tree the
    name-path abstraction is computed from:

    + literal abstraction — numeric values become [NUM], strings [STR],
      booleans [BOOL], null/None [NONE];
    + argument arity — every function call / definition node gains a
      [NumArgs(k)] parent recording its number of arguments;
    + subtoken splitting — every terminal is replaced by a [NumST(k)] node
      whose children are its subtokens (capitalization preserved, as in
      [assertTrue] → [assert], [True]);
    + origin decoration — when the static analyses computed a precise origin
      for the object or value a name denotes, an origin node is inserted
      between [NumST(k)] and each subtoken leaf (Figure 2(c) inserts
      [TestCase] above [self], [assert] and [True]).

    The transformation is language-independent: it pattern-matches on the
    shared node vocabulary produced by both frontends. *)

module Tree = Namer_tree.Tree
module Subtoken = Namer_util.Subtoken

(* [NumArgs(k)] / [NumST(k)] labels, built once for the common arities. *)
let num_args_labels = Array.init 32 (Printf.sprintf "NumArgs(%d)")
let num_st_labels = Array.init 32 (Printf.sprintf "NumST(%d)")
let num_args k = if k < 32 then num_args_labels.(k) else Printf.sprintf "NumArgs(%d)" k
let num_st k = if k < 32 then num_st_labels.(k) else Printf.sprintf "NumST(%d)" k

(** Name of the callee for a lowered function position: the [Attr] of a
    receiver call, or the bare [NameLoad]. *)
let callee_name (func : Tree.t) : string option =
  match (func.value, func.children) with
  | "AttributeLoad", [ _; { Tree.value = "Attr"; children = [ leaf ] } ] ->
      Some leaf.Tree.value
  | "NameLoad", [ leaf ] -> Some leaf.Tree.value
  | _ -> None

(** Origin of the value of a lowered expression, per the resolver rules
    described in {!Origins}. *)
let expr_origin (o : Origins.t) (t : Tree.t) : string option =
  match (t.value, t.children) with
  | "NameLoad", [ leaf ] -> o.var_origin leaf.Tree.value
  | "Num", _ -> Some "Num"
  | "Str", _ -> Some "Str"
  | "Bool", _ -> Some "Bool"
  | "AttributeLoad", [ { Tree.value = "NameLoad"; children = [ recv ] }; { Tree.value = "Attr"; children = [ attr ] } ]
    when recv.Tree.value = "self" || recv.Tree.value = "this" ->
      o.attr_origin attr.Tree.value
  | "Call", func :: _ -> (
      match callee_name func with Some f -> o.call_origin f | None -> None)
  | "New", { Tree.value = "TypeRef"; children = [ leaf ] } :: _ -> Some leaf.Tree.value
  | "Cast", { Tree.value = "TypeRef"; children = [ leaf ] } :: _ -> Some leaf.Tree.value
  | _ -> None

(* Leaf replacement: NumST(k) over subtokens, each optionally wrapped in an
   origin node. *)
let split_leaf ?origin (value : string) : Tree.t =
  let parts = match Subtoken.split value with [] -> [ value ] | ps -> ps in
  let wrap st =
    match origin with
    | Some o -> Tree.node o [ Tree.leaf st ]
    | None -> Tree.leaf st
  in
  Tree.node (num_st (List.length parts)) (List.map wrap parts)

(* Node kinds whose single leaf child is an identifier-bearing name that may
   carry a variable origin. *)
let is_name_kind = function
  | "NameLoad" | "NameStore" | "NameParam" | "StarParam" | "DoubleStarParam" -> true
  | _ -> false

(** [transform ~origins t] produces the AST+ of statement tree [t]. *)
let transform ~(origins : Origins.t) (t : Tree.t) : Tree.t =
  let rec tx (t : Tree.t) : Tree.t =
    match (t.value, t.children) with
    (* 1. literal abstraction (the literal node keeps its kind; its leaf is
       abstracted, then subtoken-split to NumST(1)). *)
    | "Num", _ -> Tree.node "Num" [ split_leaf "NUM" ]
    | "Str", _ -> Tree.node "Str" [ split_leaf "STR" ]
    | "Bool", _ -> Tree.node "Bool" [ split_leaf "BOOL" ]
    | "NoneLit", _ -> Tree.node "NoneLit" [ split_leaf "NONE" ]
    (* 2+4. calls: arity parent, receiver-origin decoration of the callee. *)
    | "Call", func :: args ->
        let recv_origin =
          match (func.value, func.children) with
          | "AttributeLoad", [ recv; _ ] -> expr_origin origins recv
          | _ -> None
        in
        let func' = tx_callee func recv_origin in
        let nargs = List.length args in
        Tree.node (num_args nargs) [ Tree.node "Call" (func' :: List.map tx args) ]
    | ("New" | "NewArray"), ty :: args ->
        Tree.node
          (num_args (List.length args))
          [ Tree.node t.value (tx ty :: List.map tx args) ]
    | ("FunctionDef" | "MethodDef" | "Lambda"), children ->
        let is_param (c : Tree.t) =
          match c.Tree.value with
          | "NameParam" | "StarParam" | "DoubleStarParam" | "Param" -> true
          | _ -> false
        in
        let nparams = List.length (List.filter is_param children) in
        Tree.node (num_args nparams) [ Tree.node t.value (List.map tx children) ]
    (* 4. variable names: decorate with the variable's origin. *)
    | kind, [ leaf ] when is_name_kind kind && Tree.is_leaf leaf ->
        Tree.node kind [ split_leaf ?origin:(origins.var_origin leaf.Tree.value) leaf.Tree.value ]
    (* plain attribute access: the attribute name itself stays undecorated
       (the origin belongs to the loaded value, tracked through variables). *)
    | ("AttributeLoad" | "AttributeStore"), [ recv; { Tree.value = "Attr"; children = [ leaf ] } ]
      ->
        Tree.node t.value [ tx recv; Tree.node "Attr" [ split_leaf leaf.Tree.value ] ]
    | _, [] -> split_leaf t.value
    | _, children -> Tree.node t.value (List.map tx children)
  (* The callee position of a call: its Attr leaf is decorated with the
     origin of the receiver (Figure 2(c): TestCase over assert and True). *)
  and tx_callee (func : Tree.t) (recv_origin : string option) : Tree.t =
    match (func.value, func.children) with
    | "AttributeLoad", [ recv; { Tree.value = "Attr"; children = [ leaf ] } ] ->
        Tree.node "AttributeLoad"
          [ tx recv; Tree.node "Attr" [ split_leaf ?origin:recv_origin leaf.Tree.value ] ]
    | _ -> tx func
  in
  tx t
