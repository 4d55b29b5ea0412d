(** Cross-run trend aggregation.  See the interface. *)

module J = Namer_util.Json

type row = {
  ts : float;
  cmd : string;
  git : string;
  wall_ms : float option;
  alloc_mb : float option;
  cache_hits : int;
  cache_misses : int;
  skipped : int;
  peak_rss_kb : int;
}

let hit_rate r =
  let total = r.cache_hits + r.cache_misses in
  if total = 0 then None else Some (float_of_int r.cache_hits /. float_of_int total)

let assoc name = function J.Obj fields -> List.assoc_opt name fields | _ -> None

let number = function
  | Some (J.Float f) -> Some f
  | Some (J.Int i) -> Some (float_of_int i)
  | _ -> None

let int_field j name = match number (assoc name j) with Some f -> int_of_float f | None -> 0
let string_field j name ~default =
  match assoc name j with Some (J.String s) -> s | _ -> default

let row_of_record j =
  match number (assoc "schema" j) with
  | Some v when int_of_float v = Ledger.schema_version -> (
      match (number (assoc "ts" j), assoc "cmd" j) with
      | Some ts, Some (J.String cmd) ->
          let cache = match assoc "cache" j with Some c -> c | None -> J.Obj [] in
          Some
            {
              ts;
              cmd;
              git = string_field j "git" ~default:"unknown";
              wall_ms = Option.map (fun s -> s *. 1000.0) (number (assoc "wall_s" j));
              alloc_mb = number (assoc "alloc_mb" j);
              cache_hits = int_field cache "hits";
              cache_misses = int_field cache "misses";
              skipped = int_field j "skipped";
              peak_rss_kb = int_field j "peak_rss_kb";
            }
      | _ -> None)
  | _ -> None

let rows_of_records records = List.filter_map row_of_record records

type thresholds = { wall_pct : float; alloc_pct : float; hit_rate_drop : float }

let default_thresholds = { wall_pct = 50.0; alloc_pct = 50.0; hit_rate_drop = 20.0 }

let take_last n xs =
  let len = List.length xs in
  if len <= n then xs else List.filteri (fun i _ -> i >= len - n) xs

let fmt_time ts =
  let tm = Unix.localtime ts in
  Printf.sprintf "%04d-%02d-%02d %02d:%02d:%02d" (tm.Unix.tm_year + 1900)
    (tm.Unix.tm_mon + 1) tm.Unix.tm_mday tm.Unix.tm_hour tm.Unix.tm_min
    tm.Unix.tm_sec

let fmt_delta cur prev =
  match (cur, prev) with
  | Some cur, Some prev when prev <> 0.0 -> Printf.sprintf "%+.1f%%" ((cur -. prev) /. prev *. 100.0)
  | _ -> "-"

let fmt_opt = function Some v -> Printf.sprintf "%.1f" v | None -> "-"

let fmt_hit_rate r =
  match hit_rate r with
  | Some h -> Printf.sprintf "%.0f%%" (h *. 100.0)
  | None -> "-"

let table ?(last = 10) rows =
  let shown = take_last last rows in
  (* delta columns compare each run to the previous run of the SAME
     subcommand anywhere in the full history, so interleaved train/scan
     runs don't compare apples to oranges *)
  let prev_of =
    let tbl : (string, row) Hashtbl.t = Hashtbl.create 8 in
    let pairs =
      List.map
        (fun r ->
          let p = Hashtbl.find_opt tbl r.cmd in
          Hashtbl.replace tbl r.cmd r;
          (r, p))
        rows
    in
    fun r -> List.assq_opt r pairs |> Option.join
  in
  let body =
    List.map
      (fun r ->
        let prev = prev_of r in
        let d f = match prev with Some p -> fmt_delta (f r) (f p) | None -> "-" in
        [
          fmt_time r.ts;
          r.cmd;
          r.git;
          fmt_opt r.wall_ms;
          d (fun r -> r.wall_ms);
          fmt_opt r.alloc_mb;
          d (fun r -> r.alloc_mb);
          fmt_hit_rate r;
          string_of_int r.skipped;
          (if r.peak_rss_kb < 0 then "-"
           else Printf.sprintf "%.1f" (float_of_int r.peak_rss_kb /. 1024.0));
        ])
      shown
  in
  Namer_util.Tablefmt.render ~caption:"ledger: run history"
    ~header:
      [ "when"; "cmd"; "git"; "wall ms"; "dwall%"; "alloc MB"; "dalloc%"; "hit"; "skip"; "RSS MB" ]
    body

let mean = Namer_util.Stats.mean

let check ?(last = 10) ?(thresholds = default_thresholds) rows =
  (* group chronologically per subcommand *)
  let by_cmd : (string, row list ref) Hashtbl.t = Hashtbl.create 8 in
  let order = ref [] in
  List.iter
    (fun r ->
      match Hashtbl.find_opt by_cmd r.cmd with
      | Some l -> l := r :: !l
      | None ->
          Hashtbl.replace by_cmd r.cmd (ref [ r ]);
          order := r.cmd :: !order)
    rows;
  let failures = ref [] in
  List.iter
    (fun cmd ->
      match List.rev !(Hashtbl.find by_cmd cmd) with
      | [] | [ _ ] -> () (* no history: nothing to gate against *)
      | history ->
          let latest = List.nth history (List.length history - 1) in
          let baseline =
            take_last last (List.filteri (fun i _ -> i < List.length history - 1) history)
          in
          (* a record without the field is left out of that gate *)
          let flag what field limit_pct =
            match (field latest, mean (List.filter_map field baseline)) with
            | Some cur, base when base > 0.0 ->
                let pct = (cur -. base) /. base *. 100.0 in
                if pct > limit_pct then
                  failures :=
                    Printf.sprintf
                      "%s: %s regressed %.1f%% (%.1f vs baseline mean %.1f, limit +%.1f%%)"
                      cmd what pct cur base limit_pct
                    :: !failures
            | _ -> ()
          in
          flag "wall clock (ms)" (fun r -> r.wall_ms) thresholds.wall_pct;
          flag "allocation (MB)" (fun r -> r.alloc_mb) thresholds.alloc_pct;
          (match (hit_rate latest, List.filter_map hit_rate baseline) with
          | Some cur, (_ :: _ as base_rates) ->
              let base = mean base_rates in
              let drop = (base -. cur) *. 100.0 in
              if drop > thresholds.hit_rate_drop then
                failures :=
                  Printf.sprintf
                    "%s: cache hit rate dropped %.1f points (%.0f%% vs baseline mean %.0f%%, limit %.1f)"
                    cmd drop (cur *. 100.0) (base *. 100.0) thresholds.hit_rate_drop
                  :: !failures
          | _ -> ()))
    (List.rev !order);
  match List.rev !failures with [] -> Ok () | msgs -> Error msgs
