(* Tests for Namer_parallel: deque LIFO/FIFO discipline, pool submit/join
   under contention, exception propagation, work-stealing smoke, who works
   in a run-pool (the caller as worker 0) and in a created pool, shard-plan
   determinism properties, and the headline guarantee — a jobs=2 and a
   jobs=4 build are byte-identical to the jobs=1 build on the same corpus. *)

module Pool = Namer_parallel.Pool
module Shard = Namer_parallel.Shard
module Accumulator = Namer_parallel.Accumulator
module Counter = Namer_util.Counter
module Corpus = Namer_corpus.Corpus
module Namer = Namer_core.Namer
module Pattern = Namer_pattern.Pattern
module Telemetry = Namer_telemetry.Telemetry
module Fault = Namer_util.Fault

let with_pool ~domains f =
  let pool = Pool.create ~domains () in
  Fun.protect ~finally:(fun () -> Pool.shutdown pool) (fun () -> f pool)

(* ---------------- deque ---------------- *)

let test_deque_discipline () =
  let d = Pool.Deque.create () in
  List.iter (Pool.Deque.push_bottom d) [ 1; 2; 3; 4 ];
  Alcotest.(check int) "length" 4 (Pool.Deque.length d);
  (* owner end is LIFO *)
  Alcotest.(check (option int)) "pop_bottom newest" (Some 4) (Pool.Deque.pop_bottom d);
  (* thief end is FIFO *)
  Alcotest.(check (option int)) "steal_top oldest" (Some 1) (Pool.Deque.steal_top d);
  Alcotest.(check (option int)) "steal_top next" (Some 2) (Pool.Deque.steal_top d);
  Alcotest.(check (option int)) "pop_bottom last" (Some 3) (Pool.Deque.pop_bottom d);
  Alcotest.(check (option int)) "empty pop" None (Pool.Deque.pop_bottom d);
  Alcotest.(check (option int)) "empty steal" None (Pool.Deque.steal_top d)

let test_deque_growth () =
  let d = Pool.Deque.create () in
  for i = 1 to 1000 do
    Pool.Deque.push_bottom d i
  done;
  let stolen = ref [] in
  let rec drain () =
    match Pool.Deque.steal_top d with
    | Some x ->
        stolen := x :: !stolen;
        drain ()
    | None -> ()
  in
  drain ();
  Alcotest.(check (list int)) "steals preserve push order"
    (List.init 1000 (fun i -> i + 1))
    (List.rev !stolen)

(* ---------------- pool ---------------- *)

let test_pool_submit_join () =
  with_pool ~domains:3 @@ fun pool ->
  let futs = List.init 200 (fun i -> Pool.submit pool (fun () -> i * i)) in
  let results = List.map Pool.await futs in
  Alcotest.(check (list int)) "200 tasks under contention"
    (List.init 200 (fun i -> i * i))
    results;
  Alcotest.(check int) "all tasks executed" 200
    (Array.fold_left ( + ) 0 (Pool.executed pool))

let test_pool_map_list_order () =
  with_pool ~domains:4 @@ fun pool ->
  (* uneven task durations: results must still come back in input order *)
  let xs = List.init 50 (fun i -> i) in
  let ys =
    Pool.map_list pool
      (fun i ->
        let spin = if i mod 7 = 0 then 10_000 else 10 in
        let acc = ref 0 in
        for _ = 1 to spin do
          incr acc
        done;
        ignore !acc;
        i * 2)
      xs
  in
  Alcotest.(check (list int)) "input order" (List.map (fun i -> i * 2) xs) ys

let test_pool_exception () =
  with_pool ~domains:2 @@ fun pool ->
  let fut = Pool.submit pool (fun () -> failwith "task blew up") in
  Alcotest.check_raises "await re-raises" (Failure "task blew up") (fun () ->
      ignore (Pool.await fut));
  (* the pool survives a failed task *)
  Alcotest.(check int) "pool still works" 7 (Pool.await (Pool.submit pool (fun () -> 7)))

let test_pool_stealing () =
  with_pool ~domains:4 @@ fun pool ->
  (* pin every task to worker 0: the only way others execute is stealing *)
  let futs =
    List.init 100 (fun i ->
        Pool.submit ~on:0 pool (fun () ->
            let acc = ref 0 in
            for _ = 1 to 5000 do
              incr acc
            done;
            !acc + i))
  in
  List.iteri
    (fun i r -> Alcotest.(check int) "pinned task result" (5000 + i) r)
    (List.map Pool.await futs);
  let executed = Pool.executed pool in
  Alcotest.(check int) "every task ran" 100 (Array.fold_left ( + ) 0 executed)

let test_run_sequential_path () =
  Pool.run ~jobs:1 (fun pool ->
      Alcotest.(check bool) "jobs=1 gives no pool" true (pool = None));
  Pool.run ~jobs:3 (fun pool ->
      match pool with
      | None -> Alcotest.fail "jobs=3 must give a pool"
      | Some p -> Alcotest.(check int) "pool size" 3 (Pool.size p))

(* ---------------- who works ---------------- *)

let self_id () = (Domain.self () :> int)

(* Run [f] on a fresh domain and fail, instead of hanging the suite, if it
   has not returned within [seconds].  A deadlocked body leaks its domain,
   which stays blocked until the test process exits. *)
let with_watchdog ~seconds f =
  let result = Atomic.make None in
  let d = Domain.spawn (fun () -> Atomic.set result (Some (try Ok (f ()) with e -> Error e))) in
  let deadline = Unix.gettimeofday () +. seconds in
  let rec wait () =
    match Atomic.get result with
    | Some r ->
        Domain.join d;
        r
    | None ->
        if Unix.gettimeofday () > deadline then
          Alcotest.failf "no result after %.0f s: the pool deadlocked" seconds;
        Unix.sleepf 0.005;
        wait ()
  in
  match wait () with Ok v -> v | Error e -> raise e

(* Occupy every spawned worker of a run-pool with a task that spins until
   released, then run [f]: whatever [f] submits and awaits can only be
   run by the caller. *)
let with_workers_parked pool f =
  let spawned = Pool.size pool - 1 in
  let parked = Atomic.make 0 and release = Atomic.make false in
  let blockers =
    List.init spawned (fun i ->
        Pool.submit ~on:(i + 1) pool (fun () ->
            Atomic.incr parked;
            while not (Atomic.get release) do
              Domain.cpu_relax ()
            done))
  in
  while Atomic.get parked < spawned do
    Domain.cpu_relax ()
  done;
  Fun.protect
    ~finally:(fun () ->
      Atomic.set release true;
      List.iter Pool.await blockers)
    f

let with_telemetry f =
  let was = Telemetry.enabled () in
  Telemetry.reset ();
  Telemetry.set_sink Telemetry.Memory;
  Fun.protect
    ~finally:(fun () -> Telemetry.set_sink (if was then Telemetry.Memory else Telemetry.Null))
    f

let test_run_caller_is_worker_0 () =
  List.iter
    (fun n ->
      let caller = self_id () in
      let executed =
        with_telemetry @@ fun () ->
        let executed =
          Pool.run ~jobs:n @@ function
          | None -> Alcotest.fail "jobs>1 must give a pool"
          | Some pool ->
              Alcotest.(check int) (Printf.sprintf "jobs=%d: size" n) n (Pool.size pool);
              (* workers parked: the caller runs all 5 of these, in its await *)
              let ran_on =
                with_workers_parked pool @@ fun () ->
                Pool.map_list pool (fun _ -> self_id ()) (List.init 5 Fun.id)
              in
              Alcotest.(check (list int))
                (Printf.sprintf "jobs=%d: parked workers, the caller runs every task" n)
                (List.init 5 (fun _ -> caller))
                ran_on;
              Alcotest.(check int)
                (Printf.sprintf "jobs=%d: slot 0 counts the caller's tasks" n)
                5 (Pool.executed pool).(0);
              (* free-running: whoever ran a task counted it in its own slot *)
              let before = Pool.executed pool in
              let ran_on = Pool.map_list pool (fun _ -> self_id ()) (List.init 200 Fun.id) in
              let after = Pool.executed pool in
              Alcotest.(check int)
                (Printf.sprintf "jobs=%d: slot 0 = tasks run on the caller's domain" n)
                (List.length (List.filter (( = ) caller) ran_on))
                (after.(0) - before.(0));
              after
        in
        Alcotest.(check int)
          (Printf.sprintf "jobs=%d: domains spawned" n)
          (n - 1)
          (Telemetry.counter "pool.domains_spawned");
        executed
      in
      Alcotest.(check int)
        (Printf.sprintf "jobs=%d: executed sums to the tasks submitted" n)
        (n - 1 + 5 + 200)
        (Array.fold_left ( + ) 0 executed))
    [ 2; 3 ]

let test_run_caller_contains_failures () =
  List.iter
    (fun n ->
      let caller = self_id () in
      Pool.run ~jobs:n @@ function
      | None -> Alcotest.fail "jobs>1 must give a pool"
      | Some pool ->
          with_workers_parked pool @@ fun () ->
          let ran_on = Array.make 6 (-1) in
          let results =
            Pool.map_list_results pool
              (fun i ->
                ran_on.(i) <- self_id ();
                if i = 3 then failwith "task 3 blew up";
                i * 10)
              (List.init 6 Fun.id)
          in
          List.iteri
            (fun i r ->
              let what = Printf.sprintf "jobs=%d: task %d" n i in
              match r with
              | Ok v when i <> 3 -> Alcotest.(check int) what (i * 10) v
              | Error (Failure m) when i = 3 ->
                  Alcotest.(check string) what "task 3 blew up" m
              | Ok _ | Error _ -> Alcotest.failf "%s: wrong outcome" what)
            results;
          Alcotest.(check (array int))
            (Printf.sprintf "jobs=%d: the caller ran them" n)
            (Array.make 6 caller) ran_on;
          (* a poisoned task: the next pass through the fault point fires,
             and only the task it fires in fails *)
          Fault.reset ();
          Fun.protect ~finally:Fault.reset @@ fun () ->
          Fault.arm "pool.task";
          let results = Pool.map_list_results pool (fun i -> i + 1) (List.init 6 Fun.id) in
          Alcotest.(check int) (Printf.sprintf "jobs=%d: fault fired" n) 1 (Fault.fired ());
          let failed =
            List.filter_map
              (function
                | Ok _ -> None
                | Error (Fault.Injected p) -> Some p
                | Error e -> Alcotest.failf "unexpected %s" (Printexc.to_string e))
              results
          in
          Alcotest.(check (list string))
            (Printf.sprintf "jobs=%d: one task failed, by the injected fault" n)
            [ "pool.task" ] failed;
          List.iteri
            (fun i r ->
              match r with
              | Ok v -> Alcotest.(check int) (Printf.sprintf "task %d" i) (i + 1) v
              | Error _ -> ())
            results)
    [ 2; 3 ]

let test_run_nested_map_list () =
  (* at jobs=2 both tasks may sit on a worker while awaiting their
     subtasks: only an awaiter that helps lets those subtasks run *)
  let sums =
    with_watchdog ~seconds:60.0 @@ fun () ->
    Pool.run ~jobs:2 @@ function
    | None -> Alcotest.fail "jobs=2 must give a pool"
    | Some pool ->
        Pool.map_list pool
          (fun k ->
            List.fold_left ( + ) 0
              (Pool.map_list pool (fun j -> (10 * k) + j) [ 1; 2; 3; 4 ]))
          [ 1; 2 ]
  in
  Alcotest.(check (list int)) "both nested map_lists complete" [ 50; 90 ] sums

let test_create_caller_never_works () =
  with_pool ~domains:2 @@ fun pool ->
  let caller = self_id () in
  let ran_on = Pool.map_list pool (fun _ -> self_id ()) (List.init 100 Fun.id) in
  Alcotest.(check bool) "no task ran on the submitting domain" true
    (List.for_all (( <> ) caller) ran_on);
  Alcotest.(check int) "every task ran" 100 (Array.fold_left ( + ) 0 (Pool.executed pool))

(* ---------------- shards ---------------- *)

let test_shard_concat_identity () =
  let xs = List.init 37 string_of_int in
  List.iter
    (fun shards ->
      Alcotest.(check (list string))
        (Printf.sprintf "concat of %d shards = input" shards)
        xs
        (List.concat (Shard.contiguous ~shards xs)))
    [ 1; 2; 3; 5; 16; 64 ]

let test_shard_by_key_runs () =
  (* files grouped by repo: no shard may split a repo run *)
  let xs =
    List.concat_map
      (fun r -> List.init 5 (fun i -> (Printf.sprintf "repo%d" r, i)))
      [ 0; 1; 2; 3; 4; 5 ]
  in
  let plan = Shard.contiguous_by_key ~shards:4 ~key:fst xs in
  Alcotest.(check (list (pair string int))) "concat = input" xs (List.concat plan);
  List.iter
    (fun shard ->
      let repos = List.sort_uniq compare (List.map fst shard) in
      (* each repo appears in exactly one shard *)
      List.iter
        (fun repo ->
          let holders =
            List.filter (fun s -> List.exists (fun (r, _) -> r = repo) s) plan
          in
          Alcotest.(check int) (repo ^ " in one shard") 1 (List.length holders))
        repos)
    plan

let prop_shard_merge_deterministic =
  QCheck.Test.make ~name:"parallel: counter reduce independent of shard count"
    ~count:50
    QCheck.(pair (small_list small_string) (int_range 1 32))
    (fun (words, shards) ->
      let reduce ~shards =
        let module C = struct
          type t = string Counter.t

          let empty () = Counter.create ()
          let merge = Counter.merge
        end in
        let c =
          Accumulator.sharded_reduce
            (module C)
            ~shards
            (fun ws ->
              let c = Counter.create () in
              List.iter (Counter.add c) ws;
              c)
            words
        in
        List.sort compare (Counter.fold (fun w n acc -> (w, n) :: acc) c [])
      in
      reduce ~shards = reduce ~shards:1)

let prop_shard_concat_map_order =
  QCheck.Test.make ~name:"parallel: sharded_concat_map preserves order" ~count:50
    QCheck.(pair (small_list small_int) (int_range 1 16))
    (fun (xs, shards) ->
      Accumulator.sharded_concat_map ~shards (List.map (fun x -> x + 1)) xs
      = List.map (fun x -> x + 1) xs)

(* ---------------- end-to-end byte equality ---------------- *)

let render_reports (t : Namer.t) =
  Array.to_list t.Namer.violations
  |> List.map (fun (v : Namer.violation) ->
         Printf.sprintf "%s:%d %s %s->%s [%s]"
           v.Namer.v_stmt.Namer.sctx.Namer_classifier.Features.file
           v.Namer.v_stmt.Namer.line
           (String.concat ","
              (List.map string_of_float (Array.to_list v.Namer.v_features)))
           v.Namer.v_info.Pattern.found v.Namer.v_info.Pattern.suggested
           (Namer.describe_fix v))
  |> String.concat "\n"

let test_jobs_byte_equality () =
  let corpus =
    Corpus.generate { (Corpus.default_config Corpus.Python) with Corpus.n_repos = 8 }
  in
  let build ~jobs =
    (* cap_domains off: on a 1-core runner the cap would collapse jobs=4 to
       the inline path, and this test exists to exercise real worker
       domains — shard-local interner tables, the remap merge, and the
       frozen global table — against the sequential build. *)
    Namer.build
      { Namer.default_config with Namer.use_classifier = false; jobs; cap_domains = false }
      corpus
  in
  let seq = build ~jobs:1 in
  (* jobs=2: the caller and one spawned worker split the tasks *)
  List.iter
    (fun jobs ->
      let par = build ~jobs in
      let what s = Printf.sprintf "jobs=%d: %s" jobs s in
      Alcotest.(check int) (what "same pattern count")
        (Pattern.Store.size seq.Namer.store)
        (Pattern.Store.size par.Namer.store);
      Alcotest.(check int) (what "same violation count")
        (Array.length seq.Namer.violations)
        (Array.length par.Namer.violations);
      Alcotest.(check string) (what "byte-identical reports (features included)")
        (render_reports seq) (render_reports par);
      Alcotest.(check int) (what "same aggregate stmt totals") seq.Namer.n_stmts
        par.Namer.n_stmts)
    [ 2; 4 ]

(* ---------------- telemetry registries across domains ---------------- *)

let stage_count name =
  match List.find_opt (fun s -> s.Telemetry.stage = name) (Telemetry.stages ()) with
  | Some s -> s.Telemetry.s_count
  | None -> 0

(* Spans, counters and observations recorded from four domains, one
   registry each, sum exactly at read time. *)
let test_telemetry_pool_sums () =
  with_telemetry @@ fun () ->
  let tasks = 400 in
  Pool.run ~jobs:4 (fun pool ->
      ignore
        (Pool.map_list (Option.get pool)
           (fun i ->
             Telemetry.with_span "task" (fun () ->
                 Telemetry.count ~by:i "units";
                 Telemetry.observe "value" (float_of_int i)))
           (List.init tasks Fun.id)));
  let sum = tasks * (tasks - 1) / 2 in
  Alcotest.(check int) "spans sum" tasks (stage_count "task");
  Alcotest.(check int) "counters sum" sum (Telemetry.counter "units");
  match Telemetry.histogram "value" with
  | None -> Alcotest.fail "histogram missing"
  | Some s ->
      Alcotest.(check int) "observations sum" tasks s.Telemetry.n;
      Alcotest.(check (float 1e-6)) "observed total" (float_of_int sum) s.Telemetry.total

(* A domain spawned after others exited takes over one of their
   registries: telemetry memory is bounded by live domains, not by the
   domains a long process has spawned.  Each round's three domains hold
   their registries at the same time, so every round takes the three on
   top of the retired stack and puts them back: the first round fills the
   very registries the later ones reuse, however many retired ones,
   without a [value] window yet, earlier tests left below them. *)
let test_telemetry_registries_reused () =
  with_telemetry @@ fun () ->
  let round () =
    let arrived = Atomic.make 0 in
    List.init 3 (fun _ ->
        Domain.spawn (fun () ->
            Telemetry.with_span "work" (fun () ->
                Telemetry.count "units";
                Telemetry.observe "value" 1.0);
            Atomic.incr arrived;
            while Atomic.get arrived < 3 do
              Domain.cpu_relax ()
            done))
    |> List.iter Domain.join
  in
  let live_words () =
    Gc.full_major ();
    (Gc.stat ()).Gc.live_words
  in
  round ();
  let live = live_words () in
  for _ = 1 to 4 do
    round ()
  done;
  let grown = live_words () - live in
  Alcotest.(check int) "every span counted" 15 (stage_count "work");
  (* a registry of its own per domain would add a 4096-float histogram
     window for each of the 12 later domains *)
  Alcotest.(check bool)
    (Printf.sprintf "heap grew %d words over 12 more domains" grown)
    true (grown < 4_096)

let suite =
  [
    Alcotest.test_case "deque LIFO/FIFO discipline" `Quick test_deque_discipline;
    Alcotest.test_case "deque growth and drain" `Quick test_deque_growth;
    Alcotest.test_case "pool submit/join under contention" `Quick test_pool_submit_join;
    Alcotest.test_case "map_list keeps input order" `Quick test_pool_map_list_order;
    Alcotest.test_case "exception propagation" `Quick test_pool_exception;
    Alcotest.test_case "work stealing drains a pinned worker" `Quick test_pool_stealing;
    Alcotest.test_case "run: sequential vs pooled path" `Quick test_run_sequential_path;
    Alcotest.test_case "run: the caller is worker 0" `Quick test_run_caller_is_worker_0;
    Alcotest.test_case "run: caller-run tasks contain failures" `Quick
      test_run_caller_contains_failures;
    Alcotest.test_case "run: nested map_list completes" `Quick test_run_nested_map_list;
    Alcotest.test_case "create: the caller never works" `Quick test_create_caller_never_works;
    Alcotest.test_case "telemetry: pool domains sum exactly" `Quick test_telemetry_pool_sums;
    Alcotest.test_case "telemetry: exited domains' registries reused" `Quick
      test_telemetry_registries_reused;
    Alcotest.test_case "shard concat identity" `Quick test_shard_concat_identity;
    Alcotest.test_case "sharding never splits a key run" `Quick test_shard_by_key_runs;
    QCheck_alcotest.to_alcotest prop_shard_merge_deterministic;
    QCheck_alcotest.to_alcotest prop_shard_concat_map_order;
    Alcotest.test_case "jobs=1 ≡ jobs=4 on a corpus" `Slow test_jobs_byte_equality;
  ]
