(** A fixed-size pool of OCaml 5 domains with per-worker work-stealing
    deques — the execution engine of the sharded pipeline.

    Each worker owns one deque: it pushes and pops work at the bottom
    (LIFO, cache-friendly) while idle workers steal from the top (FIFO, so
    the oldest — typically largest — shard migrates first).  Submissions
    are distributed round-robin across deques, which keeps the initial
    assignment deterministic; work stealing then rebalances dynamically
    without affecting results, because callers merge futures in submission
    order (see {!Namer_parallel.Shard}).

    Who works depends on the constructor.  A {!run} pool of [n] workers
    spawns [n - 1] domains: the domain that called {!run} is worker 0, and
    it works whenever it {!await}s — as does any task of the pool that
    awaits a nested {!map_list}.  A [jobs = n] pipeline therefore keeps
    exactly [n] domains busy, never [n] workers plus a sleeping caller
    that still joins every stop-the-world minor collection.  A {!create}
    pool of [n] workers spawns [n] domains and its awaiters only block:
    the serve daemon awaits from connection threads that share the main
    domain with its accept loop, which must not be stalled running scan
    tasks.  That main domain is a domain all the same, so the daemon
    counts it: [--jobs n] creates a pool of [n - 1] workers.

    The pool is an execution mechanism only: it makes no ordering promises
    about when tasks run.  Determinism is the contract of the *merge*
    performed by the caller, which is why {!map_list} returns results in
    input order regardless of completion order. *)

type t

(** [create ~domains ()] spawns [domains] worker domains (clamped to ≥ 1),
    beside the creating domain, which is not a worker: it submits and
    awaits, and {!await} on this pool blocks without running tasks.  A
    caller that wants [n] domains in all passes [n - 1]. *)
val create : domains:int -> unit -> t

(** Number of workers — spawned domains plus, for a {!run} pool, the
    caller's slot 0.  Shard plans size themselves on it. *)
val size : t -> int

type 'a future

(** [submit ?on pool f] enqueues [f] and returns its future.  [on] pins the
    task to worker [on mod size] (used by tests to force stealing);
    otherwise tasks are distributed round-robin. *)
val submit : ?on:int -> t -> (unit -> 'a) -> 'a future

(** [await fut] returns once the task has completed; re-raises the task's
    exception if it failed.  On a {!run} pool, an awaiter that is one of
    its workers (the caller, or a task awaiting a nested {!map_list}) helps
    first: until [fut] settles it runs queued tasks, its own deque first,
    then steals, counting each in its {!executed} slot and containing
    escapes as the spawned workers do.  It blocks on [fut] only when no
    task is queued.  Any other awaiter just blocks. *)
val await : 'a future -> 'a

(** [map_list pool f xs] runs [f] on every element concurrently and returns
    the results in input order.  If any task raised, the first (by input
    order) exception is re-raised after all tasks have settled. *)
val map_list : t -> ('a -> 'b) -> 'a list -> 'b list

(** [map_list_results] is {!map_list} with per-task containment: every
    task settles, failures come back as [Error exn] in input order instead
    of aborting the batch.  One poisoned task fails only its future; the
    caller decides whether to retry, skip or re-raise. *)
val map_list_results : t -> ('a -> 'b) -> 'a list -> ('b, exn) result list

(** Total successful steals since creation (fairness telemetry). *)
val steals : t -> int

(** Tasks submitted but not yet taken by a worker — the instantaneous
    backlog depth.  A long-lived pool shared across request handlers
    (the serve daemon) exposes this as its queue-pressure signal. *)
val queued : t -> int

(** Per-worker executed-task counts, index = worker id (slot 0 of a {!run}
    pool counts the tasks its caller ran). *)
val executed : t -> int array

(** Drain remaining work, stop and join all workers.  Idempotent. *)
val shutdown : t -> unit

(** [run ?cap_to_cores ~jobs f] calls [f None] when [jobs <= 1] (sequential
    path) and otherwise [f (Some pool)] with a fresh pool of [jobs] workers
    that is shut down when [f] returns or raises.  The calling domain is
    worker 0, so only [jobs - 1] domains are spawned and [jobs] domains
    run in all.  [cap_to_cores] (default [false]) first clamps [jobs] to
    [Domain.recommended_domain_count ()]: oversubscribing domains beyond
    cores makes OCaml 5 programs *slower* (stop-the-world minor GCs), and
    results are identical for every job count anyway. *)
val run : ?cap_to_cores:bool -> jobs:int -> (t option -> 'a) -> 'a

(** The work-stealing deque itself, exposed for deterministic unit tests. *)
module Deque : sig
  type 'a t

  val create : unit -> 'a t

  (** Owner end: LIFO. *)
  val push_bottom : 'a t -> 'a -> unit

  val pop_bottom : 'a t -> 'a option

  (** Thief end: FIFO. *)
  val steal_top : 'a t -> 'a option

  val length : 'a t -> int
end
