(* The benchmark's own span recorder, used only by traced runs.

   A span is recorded around a call into one library's public function:
   name, start, end, allocation at both ends, parent span and the id of
   the file or request it worked on.  Spans live in memory and are written
   out once, at exit, as a Chrome trace.  A layer's self time is its
   span's duration minus the time its child spans cover. *)

type span = {
  name : string;
  id : string;
  parent : int;
  t0 : float;
  a0 : float;
  mutable t1 : float;
  mutable a1 : float;
}

let spans = ref [||]
let n_spans = ref 0
let stack = ref []
let counts : (string, float) Hashtbl.t = Hashtbl.create 32

(* Words allocated by this domain so far.  Traced compositions run on one
   domain, so the delta across a call is the call's allocation. *)
let alloc_words () =
  let minor, promoted, major = Gc.counters () in
  minor +. major -. promoted

let bytes_per_word = float_of_int (Sys.word_size / 8)

let push s =
  if !n_spans = Array.length !spans then begin
    let bigger = Array.make (max 1024 (2 * !n_spans)) s in
    Array.blit !spans 0 bigger 0 !n_spans;
    spans := bigger
  end;
  !spans.(!n_spans) <- s;
  incr n_spans;
  !n_spans - 1

let span ?(id = "") name f =
  let parent = match !stack with p :: _ -> p | [] -> -1 in
  let t0 = Unix.gettimeofday () in
  let i = push { name; id; parent; t0; a0 = alloc_words (); t1 = t0; a1 = 0.0 } in
  stack := i :: !stack;
  let close () =
    let s = !spans.(i) in
    s.a1 <- alloc_words ();
    s.t1 <- Unix.gettimeofday ();
    stack := List.tl !stack
  in
  match f () with
  | r ->
      close ();
      r
  | exception e ->
      close ();
      raise e

(** Record an already-closed span measured elsewhere (a client thread's
    request timings), with no allocation attributed. *)
let record ?(id = "") name ~t0 ~t1 =
  ignore (push { name; id; parent = -1; t0; a0 = 0.0; t1; a1 = 0.0 })

let count ?(by = 1.0) name =
  Hashtbl.replace counts name (by +. Option.value (Hashtbl.find_opt counts name) ~default:0.0)

let counter name = Option.value (Hashtbl.find_opt counts name) ~default:0.0

(** Self time (seconds) and self allocation (bytes) summed per span name. *)
let self_by_name () =
  let n = !n_spans in
  let child_t = Array.make n 0.0 and child_a = Array.make n 0.0 in
  for i = 0 to n - 1 do
    let s = !spans.(i) in
    if s.parent >= 0 then begin
      child_t.(s.parent) <- child_t.(s.parent) +. (s.t1 -. s.t0);
      child_a.(s.parent) <- child_a.(s.parent) +. (s.a1 -. s.a0)
    end
  done;
  let tbl = Hashtbl.create 32 in
  for i = 0 to n - 1 do
    let s = !spans.(i) in
    let t, a = Option.value (Hashtbl.find_opt tbl s.name) ~default:(0.0, 0.0) in
    Hashtbl.replace tbl s.name
      ( t +. (s.t1 -. s.t0 -. child_t.(i)),
        a +. ((s.a1 -. s.a0 -. child_a.(i)) *. bytes_per_word) )
  done;
  tbl

let self_s tbl name = fst (Option.value (Hashtbl.find_opt tbl name) ~default:(0.0, 0.0))

let self_bytes tbl name =
  snd (Option.value (Hashtbl.find_opt tbl name) ~default:(0.0, 0.0))

(** Chrome trace_event JSON (load it in Perfetto or chrome://tracing). *)
let write_chrome ~path =
  let oc = open_out_bin path in
  let origin = ref infinity in
  for i = 0 to !n_spans - 1 do
    origin := Float.min !origin !spans.(i).t0
  done;
  let origin = !origin in
  output_string oc "{\"traceEvents\":[";
  for i = 0 to !n_spans - 1 do
    let s = !spans.(i) in
    if i > 0 then output_string oc ",\n";
    Printf.fprintf oc
      "{\"name\":%S,\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":%.1f,\"dur\":%.1f,\"args\":{\"id\":%S,\"span\":%d,\"parent\":%d,\"alloc_bytes\":%.0f}}"
      s.name
      ((s.t0 -. origin) *. 1e6)
      ((s.t1 -. s.t0) *. 1e6)
      s.id i s.parent
      ((s.a1 -. s.a0) *. bytes_per_word)
  done;
  output_string oc "]}\n";
  close_out oc
