(** Splitting identifier names into subtokens.

    Namer reasons about names at the subtoken level (§3.1, transformation 3):
    [assertTrue] becomes [assert; True], [rotated_picture_name] becomes
    [rotated; picture; name].  This module implements the standard naming
    conventions used by the paper: camelCase, PascalCase, snake_case,
    SCREAMING_SNAKE_CASE, digit runs, and mixtures thereof.

    Splitting preserves the original capitalization of each subtoken (the
    paper's Figure 2 keeps [True] capitalized), and [join] re-assembles
    subtokens in a requested style so suggested fixes can be rendered back
    in the style of the original identifier. *)

type style =
  | Snake  (** [lower_snake_case] *)
  | Camel  (** [camelCase] *)
  | Pascal  (** [PascalCase] *)
  | Screaming  (** [SCREAMING_SNAKE_CASE] *)
  | Flat  (** single lowercase word, no boundary evidence *)

let is_upper c = c >= 'A' && c <= 'Z'
let is_lower c = c >= 'a' && c <= 'z'
let is_digit c = c >= '0' && c <= '9'

(** [split name] returns the subtokens of [name] in order, capitalization
    preserved.  Boundaries are underscores (and [$]), lower→upper
    transitions, upper-run→upper-lower transitions (as in [HTTPServer] →
    [HTTP; Server]), and letter/digit transitions.  Returns [[]] for the
    empty string and for a name made only of separators ([split "__"] is
    [[]]).  A name that is one subtoken comes back as itself, not a copy. *)
let split name =
  let n = String.length name in
  (* [start] is the first index of the subtoken being scanned, [-1] between
     subtokens; every subtoken is a contiguous slice of [name]. *)
  let out = ref [] and start = ref (-1) in
  let emit stop =
    if !start >= 0 then begin
      out :=
        (if !start = 0 && stop = n then name else String.sub name !start (stop - !start))
        :: !out;
      start := -1
    end
  in
  for i = 0 to n - 1 do
    let c = String.unsafe_get name i in
    if c = '_' || c = '$' then emit i
    else begin
      (if i > 0 then
         let p = String.unsafe_get name (i - 1) in
         if
           (is_lower p && is_upper c)
           || (is_digit p && not (is_digit c))
           || ((not (is_digit p)) && is_digit c)
           (* HTTPServer: boundary before the last upper of an upper run
              when a lower follows. *)
           || is_upper p && is_upper c && i < n - 1
              && is_lower (String.unsafe_get name (i + 1))
         then emit i);
      if !start < 0 then start := i
    end
  done;
  emit n;
  List.rev !out

(** Lowercased subtokens — the canonical form used for comparing naming
    vocabulary across styles. *)
let split_lower name = List.map String.lowercase_ascii (split name)

let capitalize s =
  if s = "" then s
  else
    String.mapi
      (fun i c -> if i = 0 then Char.uppercase_ascii c else Char.lowercase_ascii c)
      s

(** [detect_style name] guesses the naming convention of [name], used to
    render suggested fixes in the surrounding style. *)
let detect_style name =
  let has_underscore = String.contains name '_' in
  let has_upper = String.exists is_upper name in
  let has_lower = String.exists is_lower name in
  if has_underscore && has_upper && not has_lower then Screaming
  else if has_underscore then Snake
  else if has_upper && has_lower then
    if name <> "" && is_upper name.[0] then Pascal else Camel
  else if has_upper then Screaming
  else Flat

(** [join style subtokens] renders [subtokens] as one identifier in
    [style].  [join (detect_style n) (split_lower n)] is a style-faithful
    normalization of [n]. *)
let join style subtokens =
  match style with
  | Snake -> String.concat "_" (List.map String.lowercase_ascii subtokens)
  | Screaming -> String.concat "_" (List.map String.uppercase_ascii subtokens)
  | Flat -> String.concat "" (List.map String.lowercase_ascii subtokens)
  | Pascal -> String.concat "" (List.map capitalize subtokens)
  | Camel -> (
      match subtokens with
      | [] -> ""
      | first :: rest ->
          String.lowercase_ascii first ^ String.concat "" (List.map capitalize rest))

(** [replace_subtoken name ~index ~with_] rewrites the [index]-th subtoken of
    [name] (0-based) to [with_], preserving the identifier's style.  This is
    how Namer renders a suggested fix: the violated pattern names one
    subtoken to change (e.g. [True] → [Equal] inside [assertTrue]). *)
let replace_subtoken name ~index ~with_ =
  let parts = split name in
  if index < 0 || index >= List.length parts then name
  else
    let style = detect_style name in
    let parts = List.mapi (fun i p -> if i = index then with_ else p) parts in
    (* For camel/pascal identifiers the non-first parts keep their
       capitalization through [join]'s [capitalize]; snake stays lower. *)
    join style parts

(** Number of subtokens — the [NumST(k)] value of §3.1. *)
let count name = List.length (split name)
