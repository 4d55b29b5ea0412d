(** Crash triage.  See the interface for the bucketing contract. *)

module Corpus = Namer_corpus.Corpus

type crash = {
  c_lang : Corpus.lang;
  c_exn : string;
  c_bucket : string;
  c_input : string;
  c_desc : string;
  c_iter : int;
}

let normalize_exn text =
  let b = Buffer.create (String.length text) in
  let last_digit = ref false and last_space = ref false in
  String.iter
    (fun c ->
      match c with
      | '0' .. '9' ->
          if not !last_digit then Buffer.add_char b '#';
          last_digit := true;
          last_space := false
      | ' ' | '\t' | '\n' | '\r' ->
          if not !last_space then Buffer.add_char b ' ';
          last_space := true;
          last_digit := false
      | c ->
          Buffer.add_char b c;
          last_digit := false;
          last_space := false)
    text;
  let s = Buffer.contents b in
  if String.length s > 160 then String.sub s 0 160 else s

let bucket ~lang ~exn_text =
  let key = Corpus.lang_name lang ^ "|" ^ normalize_exn exn_text in
  String.sub (Digest.to_hex (Digest.string key)) 0 12

(* ------------------------------------------------------------------ *)
(* Minimization                                                        *)
(* ------------------------------------------------------------------ *)

(* Greedy ddmin-lite.  Two phases under one probe budget:
   1. line blocks: try dropping contiguous chunks of lines, halving the
      chunk size — shrinks multi-statement reproducers fast;
   2. byte halving: try keeping only the head / only the tail — shrinks
      single-line monsters where line granularity is useless.
   Every accepted candidate must still crash in the caller's bucket, so
   the minimized input reproduces the *same* defect, not just any. *)
let minimize ~still_crashes src =
  let budget = ref 300 in
  let try_probe candidate =
    if !budget <= 0 || String.length candidate >= String.length src then false
    else begin
      decr budget;
      still_crashes candidate
    end
  in
  let drop_lines src =
    let lines = Array.of_list (String.split_on_char '\n' src) in
    let n = Array.length lines in
    let cur = ref src and cur_lines = ref lines in
    let chunk = ref (max 1 (n / 2)) in
    while !chunk >= 1 && !budget > 0 do
      let i = ref 0 in
      while !i < Array.length !cur_lines && !budget > 0 do
        let keep =
          Array.to_list !cur_lines
          |> List.filteri (fun j _ -> j < !i || j >= !i + !chunk)
        in
        let candidate = String.concat "\n" keep in
        if candidate <> "" && try_probe candidate then begin
          cur := candidate;
          cur_lines := Array.of_list keep
          (* same [i]: the next chunk slid into place *)
        end
        else i := !i + !chunk
      done;
      chunk := if !chunk = 1 then 0 else !chunk / 2
    done;
    !cur
  in
  let halve_bytes src =
    let cur = ref src in
    let continue_ = ref true in
    while !continue_ && !budget > 0 do
      let n = String.length !cur in
      let head = String.sub !cur 0 (n / 2) in
      let tail = String.sub !cur (n / 2) (n - n / 2) in
      if n > 1 && try_probe head then cur := head
      else if n > 1 && try_probe tail then cur := tail
      else continue_ := false
    done;
    !cur
  in
  halve_bytes (drop_lines src)

(* ------------------------------------------------------------------ *)
(* The on-disk crash corpus                                            *)
(* ------------------------------------------------------------------ *)

let write ~out crash =
  let ext = Corpus.lang_ext crash.c_lang in
  let dir = Filename.concat out crash.c_bucket in
  let base = Printf.sprintf "crash-%06d" crash.c_iter in
  let src_path = Filename.concat dir (base ^ ext) in
  try
    Namer_util.Fs.mkdir_p dir;
    let oc = open_out_bin src_path in
    output_string oc crash.c_input;
    close_out oc;
    let oc = open_out (Filename.concat dir (base ^ ".info")) in
    Printf.fprintf oc "bucket: %s\nlang: %s\nexception: %s\nmutation: %s\nbytes: %d\n"
      crash.c_bucket (Corpus.lang_name crash.c_lang) crash.c_exn crash.c_desc
      (String.length crash.c_input);
    close_out oc;
    Some src_path
  with Sys_error _ -> None
