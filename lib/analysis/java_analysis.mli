(** Per-file points-to and dataflow analysis for Java (§4.1): declared types
    for specific references, allocation flow through the points-to solver for
    [Object]-typed locations, and value dataflow (literal categories,
    returning functions, ⊤ on modification) for primitives.  [this]
    resolves to the nearest supertype not defined in the file. *)

type t

val analyze : Namer_javalang.Java_ast.compilation_unit -> t

(** Origin resolvers for statements in class [cls] / method [fn]. *)
val origins_for :
  t -> cls:string option -> fn:string option -> Namer_namepath.Origins.t
