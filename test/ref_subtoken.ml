(* Reference subtoken splitter: a verbatim copy of the earlier
   [Subtoken.split], which grew each subtoken in a [Buffer] one character
   at a time.  Kept so a property test can check the index-scanning
   rewrite against the exact old behaviour. *)

let is_upper c = c >= 'A' && c <= 'Z'
let is_lower c = c >= 'a' && c <= 'z'
let is_digit c = c >= '0' && c <= '9'

let split name =
  let n = String.length name in
  if n = 0 then []
  else begin
    let out = ref [] and buf = Buffer.create 8 in
    let flush () =
      if Buffer.length buf > 0 then begin
        out := Buffer.contents buf :: !out;
        Buffer.clear buf
      end
    in
    for i = 0 to n - 1 do
      let c = name.[i] in
      if c = '_' || c = '$' then flush ()
      else begin
        let prev = if i > 0 then Some name.[i - 1] else None in
        let next = if i < n - 1 then Some name.[i + 1] else None in
        (match prev with
        | Some p ->
            if
              (is_lower p && is_upper c)
              || (is_digit p && not (is_digit c))
              || ((not (is_digit p)) && is_digit c)
              (* HTTPServer: boundary before the last upper of an upper run
                 when a lower follows. *)
              || is_upper p && is_upper c
                 && match next with Some nx -> is_lower nx | None -> false
            then flush ()
        | None -> ());
        Buffer.add_char buf c
      end
    done;
    flush ();
    List.rev !out
  end
