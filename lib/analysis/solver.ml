(** Points-to solving by origin propagation.

    Both language analyses reduce to the same two-rule program over
    abstract locations:

    {v
      points_to(X, O) :- alloc(X, O).
      points_to(D, O) :- assign(D, S), points_to(S, O).
    v}

    [alloc_at] records allocation sites / literal origins / declared
    types; [assign_at] records copies (plain assignments, parameter
    bindings at call sites, returned values).  Locations and origins are
    dense ints, which each analysis maps its own variables and fields to
    ({!loc}).  The solver keeps, per location, its distinct origins and
    its distinct copy targets, and a pending stack of (location, origin)
    facts not yet propagated; each query drains the stack first, so it
    sees the least fixpoint of every fact added so far.
    A location's origin is *precise* when its points-to set is a singleton
    other than ⊤ — only precise origins decorate the AST+ (§4.1: "when the
    origin sites are precisely computed, this information is added to the
    AST"). *)

module Itbl = Hashtbl.Make (Int)

(** The ⊤ origin: a value modified after creation (e.g. the target of an
    augmented assignment), which poisons precision. *)
let top = "⊤"

type t = {
  origin_ids : (string, int) Hashtbl.t;  (** origin name → id; ⊤ is 0 *)
  mutable origin_names : string array;  (** by origin id *)
  mutable n_locs : int;
  mutable origins : int list array;  (** by location *)
  mutable targets : int list array;  (** by location *)
  facts : unit Itbl.t;  (** derived (location, origin), packed *)
  edges : unit Itbl.t;  (** (source, target) copies, packed *)
  mutable pending : int array;  (** packed (location, origin) to derive *)
  mutable n_pending : int;
}

let top_id = 0

let create () =
  let origin_ids = Hashtbl.create 1 in
  Hashtbl.replace origin_ids top top_id;
  {
    origin_ids;
    origin_names = Array.make 16 top;
    n_locs = 0;
    origins = Array.make 16 [];
    targets = Array.make 16 [];
    facts = Itbl.create 1;
    edges = Itbl.create 1;
    pending = Array.make 16 0;
    n_pending = 0;
  }

(* Ids of one per-file analysis stay far below 2^31. *)
let pack a b = (a lsl 31) lor b
let mask = (1 lsl 31) - 1

(** A fresh location. *)
let loc t =
  let l = t.n_locs in
  if l = Array.length t.origins then begin
    let grow a = Array.init (2 * l) (fun j -> if j < l then a.(j) else []) in
    t.origins <- grow t.origins;
    t.targets <- grow t.targets
  end;
  t.n_locs <- l + 1;
  l

(** The id of origin [name]. *)
let origin t name =
  match Hashtbl.find t.origin_ids name with
  | o -> o
  | exception Not_found ->
      let o = Hashtbl.length t.origin_ids in
      if o = Array.length t.origin_names then begin
        let a = Array.make (2 * o) top in
        Array.blit t.origin_names 0 a 0 o;
        t.origin_names <- a
      end;
      t.origin_names.(o) <- name;
      Hashtbl.replace t.origin_ids name o;
      o

let origin_name t o = t.origin_names.(o)

let push t l o =
  if t.n_pending = Array.length t.pending then begin
    let a = Array.make (2 * t.n_pending) 0 in
    Array.blit t.pending 0 a 0 t.n_pending;
    t.pending <- a
  end;
  t.pending.(t.n_pending) <- pack l o;
  t.n_pending <- t.n_pending + 1

(** [alloc_at t l o]: location [l] may hold a value of origin [o]. *)
let alloc_at t l o = push t l o

(* Pending facts [(d, o)] for every target [d] of [ds]. *)
let rec push_targets t o = function
  | [] -> ()
  | d :: rest ->
      push t d o;
      push_targets t o rest

(* Pending facts [(l, o)] for every origin [o] of [os]. *)
let rec push_origins t l = function
  | [] -> ()
  | o :: rest ->
      push t l o;
      push_origins t l rest

(** [assign_at t ~dst ~src]: values flow from location [src] to [dst]. *)
let assign_at t ~dst ~src =
  let e = pack src dst in
  if not (Itbl.mem t.edges e) then begin
    Itbl.replace t.edges e ();
    t.targets.(src) <- dst :: t.targets.(src);
    push_origins t dst t.origins.(src)
  end

let drain t =
  while t.n_pending > 0 do
    t.n_pending <- t.n_pending - 1;
    let f = t.pending.(t.n_pending) in
    if not (Itbl.mem t.facts f) then begin
      Itbl.replace t.facts f ();
      let l = f lsr 31 and o = f land mask in
      t.origins.(l) <- o :: t.origins.(l);
      push_targets t o t.targets.(l)
    end
  done

(** The origin ids that may flow to location [l]. *)
let origin_ids t l =
  drain t;
  t.origins.(l)
