(** Splitting identifier names into subtokens (§3.1, transformation 3):
    [assertTrue] → [["assert"; "True"]], [rotated_picture_name] →
    [["rotated"; "picture"; "name"]].  Covers camelCase, PascalCase,
    snake_case, SCREAMING_SNAKE_CASE, acronym runs and digit boundaries;
    capitalization is preserved. *)

type style = Snake | Camel | Pascal | Screaming | Flat

(** Subtokens of a name, in order; [[]] for the empty string and for a
    name made only of separators (e.g. ["__"]).  A one-subtoken name is
    returned as itself. *)
val split : string -> string list

(** Lowercased subtokens — the canonical cross-style form. *)
val split_lower : string -> string list

(** Guess the naming convention, for style-faithful fix rendering. *)
val detect_style : string -> style

(** Render subtokens as one identifier in the given style. *)
val join : style -> string list -> string

(** Replace the [index]-th subtoken (0-based), preserving the identifier's
    style — how a suggested fix is rendered ([assertTrue] with index 1 set
    to ["Equal"] gives ["assertEqual"]).  Out-of-range indices return the
    name unchanged. *)
val replace_subtoken : string -> index:int -> with_:string -> string

(** Number of subtokens — the [NumST(k)] value. *)
val count : string -> int
