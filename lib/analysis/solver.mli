(** Points-to solving for the two-rule program

    {v
      points_to(X, O) :- alloc(X, O).
      points_to(D, O) :- assign(D, S), points_to(S, O).
    v}

    shared by both language analyses (§4.1), by propagating origins along
    copy edges.  Locations and origins are dense ints.  An origin is
    *precise* when a location's points-to set is a singleton other than
    {!top}.  Facts may be added after a query: the next query derives
    them. *)

type t

(** The ⊤ origin (value modified after creation); poisons precision. *)
val top : string

(** The id of {!top} in every solver. *)
val top_id : int

val create : unit -> t

(** A fresh location. *)
val loc : t -> int

(** The id of an origin name (interned on first sight). *)
val origin : t -> string -> int

val origin_name : t -> int -> string

(** [alloc_at t l o]: location [l] may hold a value of origin [o]. *)
val alloc_at : t -> int -> int -> unit

(** [assign_at t ~dst ~src]: values flow from [src] to [dst]. *)
val assign_at : t -> dst:int -> src:int -> unit

(** The distinct origin ids that may flow to a location, given every fact
    added so far. *)
val origin_ids : t -> int -> int list
