(** Points-to solving by origin propagation.

    Both language analyses reduce to the same two-rule program over
    string-keyed abstract locations:

    {v
      points_to(X, O) :- alloc(X, O).
      points_to(D, O) :- assign(D, S), points_to(S, O).
    v}

    [alloc] records allocation sites / literal origins / declared types;
    [assign] records copies (plain assignments, parameter bindings at call
    sites, returned values).  The solver keeps, per interned location, its
    distinct origins and its distinct copy targets, and a pending list of
    (location, origin) facts not yet propagated; each query drains the list
    first, so it sees the least fixpoint of every fact added so far.  A
    location's origin is *precise* when its points-to set is a singleton
    other than ⊤ — only precise origins decorate the AST+ (§4.1: "when the
    origin sites are precisely computed, this information is added to the
    AST"). *)

module Interner = Namer_util.Interner

(** The ⊤ origin: a value modified after creation (e.g. the target of an
    augmented assignment), which poisons precision. *)
let top = "⊤"

type t = {
  ids : Interner.t;  (** locations and origins, one id space *)
  mutable origins : int list array;  (** by location id *)
  mutable targets : int list array;  (** by location id *)
  facts : (int, unit) Hashtbl.t;  (** derived (location, origin), packed *)
  edges : (int, unit) Hashtbl.t;  (** (source, target) copies, packed *)
  mutable pending : (int * int) list;  (** (location, origin) to derive *)
}

let create () =
  {
    ids = Interner.create ();
    origins = [||];
    targets = [||];
    facts = Hashtbl.create 64;
    edges = Hashtbl.create 64;
    pending = [];
  }

(* Ids of one per-file analysis stay far below 2^31. *)
let pack a b = (a lsl 31) lor b

let id t s =
  let i = Interner.intern t.ids s in
  let n = Array.length t.origins in
  if i >= n then begin
    let grow a = Array.init (2 * i + 1) (fun j -> if j < n then a.(j) else []) in
    t.origins <- grow t.origins;
    t.targets <- grow t.targets
  end;
  i

(** [alloc t ~key ~origin] : location [key] may hold a value of [origin]. *)
let alloc t ~key ~origin =
  let l = id t key in
  t.pending <- (l, id t origin) :: t.pending

(** [assign t ~dst ~src] : values flow from location [src] to [dst]. *)
let assign t ~dst ~src =
  let s = id t src in
  let d = id t dst in
  let e = pack s d in
  if not (Hashtbl.mem t.edges e) then begin
    Hashtbl.replace t.edges e ();
    t.targets.(s) <- d :: t.targets.(s);
    List.iter (fun o -> t.pending <- (d, o) :: t.pending) t.origins.(s)
  end

let rec drain t =
  match t.pending with
  | [] -> ()
  | (l, o) :: rest ->
      t.pending <- rest;
      let f = pack l o in
      if not (Hashtbl.mem t.facts f) then begin
        Hashtbl.replace t.facts f ();
        t.origins.(l) <- o :: t.origins.(l);
        List.iter (fun d -> t.pending <- (d, o) :: t.pending) t.targets.(l)
      end;
      drain t

(** All origins that may flow to [key]. *)
let origins_of t ~key =
  drain t;
  match Interner.lookup t.ids key with
  | None -> []
  | Some l -> List.map (Interner.name t.ids) t.origins.(l)

(** The precise origin of [key], if its points-to set is a singleton ≠ ⊤. *)
let singleton_origin t ~key =
  match origins_of t ~key with
  | [ o ] when o <> top -> Some o
  | _ -> None
