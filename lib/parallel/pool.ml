(** Fixed-size domain pool with per-worker work-stealing deques.  See the
    interface for the execution/determinism contract. *)

module Telemetry = Namer_telemetry.Telemetry

(* ------------------------------------------------------------------ *)
(* Work-stealing deque                                                 *)
(* ------------------------------------------------------------------ *)

module Deque = struct
  (* A mutex-protected ring buffer.  The owner pushes and pops at the
     bottom; thieves take from the top.  A lock per operation is plenty
     here: tasks are shard-sized (milliseconds of work), so deque traffic
     is a few dozen operations per pipeline stage, not a hot path. *)
  type 'a t = {
    m : Mutex.t;
    mutable buf : 'a option array;
    mutable top : int;  (** index of the oldest element *)
    mutable size : int;
  }

  let create () = { m = Mutex.create (); buf = Array.make 64 None; top = 0; size = 0 }

  let locked t f =
    Mutex.lock t.m;
    Fun.protect ~finally:(fun () -> Mutex.unlock t.m) f

  let grow t =
    let cap = Array.length t.buf in
    let bigger = Array.make (2 * cap) None in
    for k = 0 to t.size - 1 do
      bigger.(k) <- t.buf.((t.top + k) mod cap)
    done;
    t.buf <- bigger;
    t.top <- 0

  let push_bottom t x =
    locked t (fun () ->
        if t.size = Array.length t.buf then grow t;
        t.buf.((t.top + t.size) mod Array.length t.buf) <- Some x;
        t.size <- t.size + 1)

  let pop_bottom t =
    locked t (fun () ->
        if t.size = 0 then None
        else begin
          let i = (t.top + t.size - 1) mod Array.length t.buf in
          let x = t.buf.(i) in
          t.buf.(i) <- None;
          t.size <- t.size - 1;
          x
        end)

  let steal_top t =
    locked t (fun () ->
        if t.size = 0 then None
        else begin
          let x = t.buf.(t.top) in
          t.buf.(t.top) <- None;
          t.top <- (t.top + 1) mod Array.length t.buf;
          t.size <- t.size - 1;
          x
        end)

  let length t = locked t (fun () -> t.size)
end

(* ------------------------------------------------------------------ *)
(* Pool                                                                *)
(* ------------------------------------------------------------------ *)

type t = {
  deques : (unit -> unit) Deque.t array;
  mutable workers : unit Domain.t array;
  mutable members : int array;
      (** a run-pool's domain per worker slot (slot 0 = the caller); empty
          for a created pool, whose awaiters only block *)
  m : Mutex.t;  (** protects [stop] and the sleep condition *)
  work : Condition.t;
  mutable stop : bool;
  queued : int Atomic.t;  (** tasks pushed but not yet taken *)
  rr : int Atomic.t;
  n_steals : int Atomic.t;
  n_executed : int Atomic.t array;
}

let size t = Array.length t.deques

(* Take work: own deque first (bottom), then sweep the other deques
   (top).  Decrements [queued] exactly once per task taken. *)
let find_task t i =
  let took task =
    Atomic.decr t.queued;
    Some task
  in
  match Deque.pop_bottom t.deques.(i) with
  | Some task -> took task
  | None ->
      let n = Array.length t.deques in
      let rec sweep k =
        if k >= n then None
        else
          match Deque.steal_top t.deques.((i + k) mod n) with
          | Some task ->
              Atomic.incr t.n_steals;
              Telemetry.count "pool.steals";
              took task
          | None -> sweep (k + 1)
      in
      sweep 1

(* Run one taken task as worker [i] — a spawned domain or a run-pool's
   awaiting caller. *)
let run_task t i task =
  (* count before running: [task ()] resolves a future someone may be
     awaiting, and the counters must already include that task when the
     awaiter wakes up *)
  Atomic.incr t.n_executed.(i);
  (* containment: [task] is the [submit] wrapper, which settles its future
     under a catch-all — but a worker must survive even an exception that
     escapes the wrapper (asynchronous exceptions, [resolve] itself
     failing), or one poisoned task takes the whole pool (or the caller's
     await) down with it *)
  try task ()
  with _ ->
    Telemetry.count "pool.task_escapes";
    Telemetry.emit ~fields:[ ("worker", Namer_util.Json.Int i) ] Telemetry.Warn "pool.task_escape"

(* ------------------------------------------------------------------ *)
(* Futures                                                             *)
(* ------------------------------------------------------------------ *)

type 'a state = Pending | Done of 'a | Failed of exn

type 'a future = { fm : Mutex.t; fc : Condition.t; mutable state : 'a state; pool : t }

let pending fut = match fut.state with Pending -> true | Done _ | Failed _ -> false

(* The awaiting domain's worker slot in a run-pool, if it has one. *)
let slot_of t =
  let self = (Domain.self () :> int) in
  let rec go i =
    if i >= Array.length t.members then None
    else if t.members.(i) = self then Some i
    else go (i + 1)
  in
  go 0

let await fut =
  (* a worker of a run-pool (its caller, or a task awaiting a nested
     [map_list]) helps until the future settles: it runs queued tasks, its
     own deque first, then steals.  The unlocked read of [state] may be
     stale; that costs one more task or a trip through the lock below,
     never a lost wakeup. *)
  (match slot_of fut.pool with
  | None -> ()
  | Some i ->
      let rec help () =
        if pending fut then
          match find_task fut.pool i with
          | Some task ->
              run_task fut.pool i task;
              help ()
          | None -> ()
      in
      help ());
  (* nothing left to help with: the future is running elsewhere (or done) *)
  Mutex.lock fut.fm;
  while pending fut do
    Condition.wait fut.fc fut.fm
  done;
  let st = fut.state in
  Mutex.unlock fut.fm;
  match st with
  | Done v -> v
  | Failed e -> raise e
  | Pending -> assert false

let resolve fut st =
  Mutex.lock fut.fm;
  fut.state <- st;
  Condition.broadcast fut.fc;
  Mutex.unlock fut.fm

let worker t i () =
  Telemetry.with_span ~args:[ ("worker", string_of_int i) ] "domain-worker"
  @@ fun () ->
  let rec loop () =
    match find_task t i with
    | Some task ->
        run_task t i task;
        loop ()
    | None ->
        Mutex.lock t.m;
        (* Re-check under the lock: a submit between [find_task] and here
           broadcast before we were waiting, so never sleep while work (or
           shutdown) is pending. *)
        let continue_ =
          if t.stop && Atomic.get t.queued = 0 then false
          else begin
            if Atomic.get t.queued = 0 then Condition.wait t.work t.m;
            true
          end
        in
        Mutex.unlock t.m;
        if continue_ then loop ()
  in
  loop ()

(* [n] worker slots; with [caller_works] slot 0 is the creating domain and
   only slots 1..n-1 get a domain of their own. *)
let make ~caller_works n =
  let n = max 1 n in
  let t =
    {
      deques = Array.init n (fun _ -> Deque.create ());
      workers = [||];
      members = [||];
      m = Mutex.create ();
      work = Condition.create ();
      stop = false;
      queued = Atomic.make 0;
      rr = Atomic.make 0;
      n_steals = Atomic.make 0;
      n_executed = Array.init n (fun _ -> Atomic.make 0);
    }
  in
  let first = if caller_works then 1 else 0 in
  t.workers <- Array.init (n - first) (fun k -> Domain.spawn (worker t (first + k)));
  (* written before any task exists: a worker reads [members] only inside a
     task, which it took from a deque after [submit] pushed it *)
  if caller_works then
    t.members <-
      Array.append
        [| (Domain.self () :> int) |]
        (Array.map (fun d -> (Domain.get_id d :> int)) t.workers);
  Telemetry.count ~by:(n - first) "pool.domains_spawned";
  t

let create ~domains () = make ~caller_works:false domains

let submit ?on t f =
  let fut = { fm = Mutex.create (); fc = Condition.create (); state = Pending; pool = t } in
  (* span-context propagation: the trace is the process's, so a child of
     the submitter's context is a fresh span id.  Whether to give the task
     one is decided here, on the submitting domain, while the log is open;
     closed, the task runs as it is. *)
  let logged = Telemetry.logging () in
  let task () =
    (* fault point: a poisoned task raising mid-flight.  It sits inside the
       catch-all on purpose — an injected fault fails exactly this future,
       as any exception from [f] would, and nothing else. *)
    let run () =
      let st =
        match
          Namer_util.Fault.check "pool.task";
          f ()
        with
        | v -> Done v
        | exception e -> Failed e
      in
      resolve fut st
    in
    if logged then Telemetry.with_child_span run else run ()
  in
  let n = Array.length t.deques in
  let i =
    match on with
    | Some i -> ((i mod n) + n) mod n
    | None -> Atomic.fetch_and_add t.rr 1 mod n
  in
  Deque.push_bottom t.deques.(i) task;
  Atomic.incr t.queued;
  Telemetry.count "pool.tasks";
  Mutex.lock t.m;
  Condition.broadcast t.work;
  Mutex.unlock t.m;
  fut

let map_list_results t f xs =
  let futs = List.map (fun x -> submit t (fun () -> f x)) xs in
  (* settle every future before returning, so no task is left running with
     a reference to data the caller believes is dead *)
  List.map (fun fut -> match await fut with v -> Ok v | exception e -> Error e) futs

let map_list t f xs =
  List.map (function Ok v -> v | Error e -> raise e) (map_list_results t f xs)

let steals t = Atomic.get t.n_steals
let queued t = Atomic.get t.queued
let executed t = Array.map Atomic.get t.n_executed

let shutdown t =
  Mutex.lock t.m;
  let already = t.stop in
  t.stop <- true;
  Condition.broadcast t.work;
  Mutex.unlock t.m;
  if not already then Array.iter Domain.join t.workers

let run ?(cap_to_cores = false) ~jobs f =
  (* More domains than cores is a pessimization in OCaml 5 (every minor GC
     is a stop-the-world barrier across all domains), so callers that care
     about wall-clock cap at the hardware; callers that need a pool of an
     exact size (tests) leave the cap off. *)
  let jobs =
    if cap_to_cores then min jobs (Domain.recommended_domain_count ()) else jobs
  in
  if jobs <= 1 then f None
  else begin
    let pool = make ~caller_works:true jobs in
    Fun.protect ~finally:(fun () -> shutdown pool) (fun () -> f (Some pool))
  end
