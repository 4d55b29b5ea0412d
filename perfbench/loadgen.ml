(* Open-loop load generator for serve-java.

   Request i of a rung is due at [start + i / rate], whatever happened to
   earlier requests.  At most [nproc] connections carry the schedule: each
   takes the next due request, waits for its due time if early, sends it
   and reads the reply.  When every connection is busy the next request
   waits in the generator, and that wait counts: latency runs from the due
   time, not the send time.  A rung stops sending once the generator runs
   [give_up_s] behind; the requests it never sent count as misses. *)

module J = Namer_util.Json
module Client = Namer_serve.Client
module Prng = Namer_util.Prng

let files_per_request = 8
let novel_per_request = 2
let hot_set = 64
let p99_limit_ms = 100.0
let give_up_s = 1.0

(* Offered rates in requests/s, each with its share of the run.  p50/p99
   are reported at [mid], which gets the largest share so its p99 rests on
   thousands of samples.  The last rung offers about twice what the daemon
   can serve on two cores: its achieved rate is the saturation
   throughput. *)
let ladder = [| (50., 1.); (100., 4.); (200., 1.); (300., 1.); (400., 1.) |]
let mid = 1
let rate k = fst ladder.(k)

let rung_seconds ~seconds k =
  0.9 *. seconds *. snd ladder.(k) /. Array.fold_left (fun a (_, w) -> a +. w) 0.0 ladder

(* The saturation rung offers about twice what the daemon serves on two
   cores and always sends all its requests: its achieved rate is the
   saturation throughput. *)
let saturation_rate = 1000.
let saturation_requests = 600

type request = { line : string; files : (string * string) list }

let encode files =
  J.to_string
    (J.Obj
       [
         ("op", J.String "scan");
         ( "sources",
           J.List
             (List.map
                (fun (path, source) ->
                  J.Obj [ ("path", J.String path); ("source", J.String source) ])
                files) );
       ])

(* The warm-up requests: the hot set, [files_per_request] files at a time. *)
let warm_requests pool =
  List.init (hot_set / files_per_request) (fun k ->
      let files =
        List.init files_per_request (fun j -> pool.((k * files_per_request) + j))
      in
      { line = encode files; files })

(* [n] requests: each mixes [files_per_request - novel_per_request] hot
   files, drawn without repetition, with [novel_per_request] files that no
   request has carried before. *)
let make_requests ~seed pool ~n =
  let prng = Prng.create (seed + 17) in
  let n_hot = files_per_request - novel_per_request in
  Array.init n (fun i ->
      let idx = Array.init hot_set Fun.id in
      Prng.shuffle prng idx;
      let hot = List.init n_hot (fun j -> pool.(idx.(j))) in
      let novel =
        List.init novel_per_request (fun j ->
            pool.(hot_set + (i * novel_per_request) + j))
      in
      let files = hot @ novel in
      { line = encode files; files })

let pool_size n_requests = hot_set + (n_requests * novel_per_request)

type outcome = {
  due : float;
  sent : float;
  replied : float;
  response : (string, string) result;
}

let is_ok = function
  | Ok line -> String.starts_with ~prefix:"{\"ok\":true" line
  | Error _ -> false

let is_overloaded = function
  | Ok line ->
      (not (is_ok (Ok line)))
      &&
      let needle = "\"code\":\"overloaded\"" in
      let n = String.length needle in
      let rec scan i =
        i + n <= String.length line && (String.sub line i n = needle || scan (i + 1))
      in
      scan 0
  | Error _ -> false

(** Send requests [first .. first + n - 1] of [reqs] at [rate] per second
    over [conns] connections.  Slot [i] of the result holds request
    [first + i]'s outcome, [None] when it was never sent. *)
let run_rung ?(give_up = true) target ~conns ~rate ~reqs ~first ~n =
  let results = Array.make n None in
  let next = Atomic.make 0 and behind = Atomic.make false in
  let start = Unix.gettimeofday () +. 0.005 in
  let worker () =
    let conn = Client.connect ~retry_for:5.0 target in
    let rec loop () =
      let i = Atomic.fetch_and_add next 1 in
      if i < n && not (Atomic.get behind) then begin
        let due = start +. (float_of_int i /. rate) in
        let now = Unix.gettimeofday () in
        if due > now then Unix.sleepf (due -. now);
        let sent = Unix.gettimeofday () in
        if give_up && sent -. due > give_up_s then Atomic.set behind true
        else begin
          let response = Client.request_raw conn reqs.(first + i).line in
          results.(i) <- Some { due; sent; replied = Unix.gettimeofday (); response };
          loop ()
        end
      end
    in
    loop ();
    Client.close conn
  in
  List.iter Thread.join (List.init conns (fun _ -> Thread.create worker ()));
  results

(** Nearest-rank percentile of a sorted array. *)
let percentile sorted p =
  let n = Array.length sorted in
  if n = 0 then nan
  else sorted.(max 0 (min (n - 1) (int_of_float (ceil (p *. float_of_int n)) - 1)))

type rung = {
  rate : float;
  scheduled : int;
  ok : int;
  failed : int;  (** transport errors and [ok:false] other than overloaded *)
  overloaded : int;
  unsent : int;
  achieved_rps : float;
  p50_ms : float;
  p90_ms : float;
  p99_ms : float;
  window_p99_ms : float;  (** median over 1 s windows of each window's p99 *)
  final_lag_ms : float;  (** due-to-send lag of the last request sent *)
  passed : bool;
}

let summarize ~rate (results : outcome option array) =
  let scheduled = Array.length results in
  let sent = Array.to_list results |> List.filter_map Fun.id in
  let ok = List.filter (fun o -> is_ok o.response) sent in
  let overloaded = List.length (List.filter (fun o -> is_overloaded o.response) sent) in
  let n_ok = List.length ok in
  let failed = List.length sent - n_ok - overloaded in
  (* a request that failed, was refused or never sent misses any limit *)
  let lat =
    Array.init scheduled (fun i ->
        match results.(i) with
        | Some o when is_ok o.response -> (o.replied -. o.due) *. 1000.0
        | _ -> infinity)
  in
  Array.sort compare lat;
  let first_due = match sent with o :: _ -> o.due | [] -> 0.0 in
  let last_reply = List.fold_left (fun m o -> Float.max m o.replied) first_due ok in
  let last_sent = List.fold_left (fun (m : outcome option) o ->
      match m with Some p when p.due >= o.due -> m | _ -> Some o) None sent
  in
  let final_lag_ms =
    match last_sent with Some o -> (o.sent -. o.due) *. 1000.0 | None -> infinity
  in
  let p99 = percentile lat 0.99 in
  let window_p99 =
    let by_window = Hashtbl.create 16 in
    Array.iteri
      (fun i o ->
        let w, l =
          match o with
          | Some o when is_ok o.response -> (int_of_float (o.due -. first_due), (o.replied -. o.due) *. 1000.0)
          | _ -> (int_of_float (float_of_int i /. rate), infinity)
        in
        Hashtbl.replace by_window w (l :: Option.value (Hashtbl.find_opt by_window w) ~default:[]))
      results;
    let p99s =
      Hashtbl.fold
        (fun _ ls acc ->
          let a = Array.of_list ls in
          Array.sort compare a;
          percentile a 0.99 :: acc)
        by_window []
      |> Array.of_list
    in
    Array.sort compare p99s;
    percentile p99s 0.5
  in
  let unsent = scheduled - List.length sent in
  {
    rate;
    scheduled;
    ok = n_ok;
    failed;
    overloaded;
    unsent;
    achieved_rps =
      (if last_reply > first_due then float_of_int n_ok /. (last_reply -. first_due) else 0.0);
    p50_ms = percentile lat 0.5;
    p90_ms = percentile lat 0.9;
    p99_ms = p99;
    window_p99_ms = window_p99;
    final_lag_ms;
    passed =
      p99 <= p99_limit_ms && failed = 0 && overloaded = 0 && unsent = 0
      && final_lag_ms <= p99_limit_ms;
  }

let rung_json r =
  let f x = if Float.is_finite x then J.Float x else J.Null in
  J.Obj
    [
      ("rate", J.Float r.rate);
      ("scheduled", J.Int r.scheduled);
      ("ok", J.Int r.ok);
      ("failed", J.Int r.failed);
      ("overloaded", J.Int r.overloaded);
      ("unsent", J.Int r.unsent);
      ("achieved_rps", J.Float r.achieved_rps);
      ("p50_ms", f r.p50_ms);
      ("p90_ms", f r.p90_ms);
      ("p99_ms", f r.p99_ms);
      ("window_p99_ms", f r.window_p99_ms);
      ("final_lag_ms", f r.final_lag_ms);
      ("passed", J.Bool r.passed);
    ]
