(** Points-to solving for the two-rule program

    {v
      points_to(X, O) :- alloc(X, O).
      points_to(D, O) :- assign(D, S), points_to(S, O).
    v}

    shared by both language analyses (§4.1), by propagating origins along
    copy edges.  Locations and origins are dense ints; a location can also
    be named by a string (the facade below).  An origin is *precise* when
    a location's points-to set is a singleton other than {!top}.  Facts
    may be added after a query: the next query derives them. *)

type t

(** The ⊤ origin (value modified after creation); poisons precision. *)
val top : string

(** The id of {!top} in every solver. *)
val top_id : int

val create : unit -> t

(** {2 Int-keyed locations} *)

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

(** {2 String-named locations} *)

(** [alloc t ~key ~origin]: location [key] may hold a value of [origin]. *)
val alloc : t -> key:string -> origin:string -> unit

(** [assign t ~dst ~src]: values flow from [src] to [dst]. *)
val assign : t -> dst:string -> src:string -> unit

(** All origins that may flow to [key] (empty for unknown keys), given
    every fact added so far. *)
val origins_of : t -> key:string -> string list

(** The precise origin of [key], if any. *)
val singleton_origin : t -> key:string -> string option
