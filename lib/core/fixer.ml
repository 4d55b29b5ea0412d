(** Applying suggested fixes to source text.

    A violation names one offending subtoken and its replacement (§3.2:
    "the suggested fix is to change the relevant parts of the fragment so
    the originally violated pattern is satisfied").  This module rewrites
    the violating line: it finds the identifier on the line that contains
    the offending subtoken and replaces that subtoken in place, preserving
    the identifier's naming style — [assertTrue] with [True → Equal]
    becomes [assertEqual]; [rotated_nmae] with [nmae → name] becomes
    [rotated_name].

    Fix application is conservative: if zero or several identifiers on the
    line contain the subtoken, the line is left untouched and the fix is
    reported as skipped (ambiguous rewrites are worse than none). *)

module Subtoken = Namer_util.Subtoken

type result = Applied of string | Ambiguous of int | Not_found_on_line

let is_ident_char c =
  (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || (c >= '0' && c <= '9') || c = '_'

(* All maximal identifiers in [line] as (start, text). *)
let identifiers line =
  let n = String.length line in
  let out = ref [] in
  let i = ref 0 in
  while !i < n do
    if is_ident_char line.[!i] && not (line.[!i] >= '0' && line.[!i] <= '9') then begin
      let start = !i in
      while !i < n && is_ident_char line.[!i] do
        incr i
      done;
      out := (start, String.sub line start (!i - start)) :: !out
    end
    else incr i
  done;
  List.rev !out

(* Identifiers containing [subtoken], with the subtoken's index. *)
let containing line ~subtoken =
  identifiers line
  |> List.filter_map (fun (start, ident) ->
         let parts = Subtoken.split ident in
         match
           List.mapi (fun i p -> (i, p)) parts
           |> List.find_opt (fun (_, p) -> String.equal p subtoken)
         with
         | Some (idx, _) -> Some (start, ident, idx)
         | None -> None)

(** [fix_line line ~found ~suggested] rewrites the unique identifier on
    [line] containing subtoken [found]. *)
let fix_line line ~found ~suggested : result =
  match containing line ~subtoken:found with
  | [ (start, ident, idx) ] ->
      let fixed_ident = Subtoken.replace_subtoken ident ~index:idx ~with_:suggested in
      let before = String.sub line 0 start in
      let after =
        String.sub line
          (start + String.length ident)
          (String.length line - start - String.length ident)
      in
      Applied (before ^ fixed_ident ^ after)
  | [] -> Not_found_on_line
  | several -> Ambiguous (List.length several)

(** Apply a set of (line number, found, suggested) fixes to [source].
    Returns the new text and the per-fix outcomes (in input order).
    Multiple fixes on one line are applied sequentially. *)
let fix_source source (fixes : (int * string * string) list) :
    string * (int * string * string * result) list =
  let lines = Array.of_list (String.split_on_char '\n' source) in
  let outcomes =
    List.map
      (fun ((lineno, found, suggested) as _fix) ->
        let result =
          if lineno < 1 || lineno > Array.length lines then Not_found_on_line
          else
            match fix_line lines.(lineno - 1) ~found ~suggested with
            | Applied fixed ->
                lines.(lineno - 1) <- fixed;
                Applied fixed
            | other -> other
        in
        (lineno, found, suggested, result))
      fixes
  in
  (String.concat "\n" (Array.to_list lines), outcomes)

(** [fix_file ~path fixes] applies [fixes] to the file at [path] in place
    and returns the per-fix outcomes.  A changed file is published
    atomically (temp file + rename), so a kill mid-write leaves the old
    text or the new one, never a torn mix; its permission bits are kept. *)
let fix_file ~path fixes =
  let source = Namer_util.Fs.read_file path in
  let fixed, outcomes = fix_source source fixes in
  if fixed <> source then
    Namer_model.Snapshot.write ~perm:(Unix.stat path).Unix.st_perm ~path fixed;
  outcomes
