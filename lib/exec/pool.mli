(** A fixed-size domain pool for deterministic multicore execution.

    OCaml 5 gives us true shared-memory parallelism via [Domain], but
    spawning a domain per task is expensive and unbounded spawning
    oversubscribes the machine.  This pool spawns its workers once and
    feeds them batches of tasks; the submitting domain helps execute
    its own batch, so a pool with [jobs = n] runs at most [n] tasks at
    a time (n − 1 workers plus the caller) and [jobs = 1] degenerates
    to plain sequential execution with no domains at all.

    {b Determinism.}  The combinators below return results in input
    order regardless of which domain ran which task and in what order,
    so a {e pure} [f] yields identical output at any job count.  For
    stochastic work, derive one RNG stream per task/chunk with
    {!Numeric.Rng.split_at} keyed by task index — never share a stream
    across tasks — and the samples are bit-identical at any job count
    too ({!Sta.Buffered.monte_carlo} is the reference user).

    {b Nesting.}  A combinator called from inside a pool task runs its
    batch inline (sequentially) instead of re-submitting to the pool:
    nested parallelism cannot deadlock, and because results are
    order-deterministic the answer is unchanged.

    {b Errors.}  If a task raises, the batch finishes draining, the
    first exception is re-raised in the caller (with its backtrace)
    and the pool remains usable. *)

type t

val default_jobs : unit -> int
(** Worker budget resolved from the environment: [VARBUF_JOBS] if set
    to a positive integer, else [Domain.recommended_domain_count ()].
    CLI [--jobs] flags default to this. *)

val create : ?jobs:int -> unit -> t
(** A pool running at most [jobs] tasks concurrently ([jobs - 1]
    worker domains; the caller executes tasks too while waiting).
    [jobs] defaults to {!default_jobs}; values below 1 are clamped
    to 1. *)

val jobs : t -> int
(** The concurrency bound this pool was created with. *)

val parallel_map_array : ?chunk:int -> t -> f:('a -> 'b) -> 'a array -> 'b array
(** [parallel_map_array pool ~f arr] is [Array.map f arr] computed in
    parallel, results in input order.  Elements are grouped into
    chunks of [chunk] (default: enough to give each job a few tasks)
    and each chunk is one pool task; chunking never affects results,
    only scheduling granularity.
    @raise Invalid_argument if [chunk < 1] or the pool is shut down. *)

val parallel_map : ?chunk:int -> t -> f:('a -> 'b) -> 'a list -> 'b list
(** List version of {!parallel_map_array}. *)

val parallel_init : ?chunk:int -> t -> int -> f:(int -> 'a) -> 'a array
(** [parallel_init pool n ~f] is [Array.init n f] computed in
    parallel.  @raise Invalid_argument if [n < 0]. *)

(** {1 Futures}

    The combinators above serve one submitter that blocks on its whole
    batch.  Long-lived services ({!Serve.Server}) instead interleave
    many independent submitters over one shared pool: [submit] enqueues
    a single task and returns immediately; the task runs on whichever
    worker domain frees up first, and the caller collects the result
    later with [await] (or tests with [poll]).

    A pool with [jobs = 1] has no worker domains, so [submit] runs the
    task inline before returning (the future is already completed);
    the same applies when submitting from inside a pool task, so
    futures can never deadlock the pool.  With [jobs = n > 1], up to
    [n - 1] submitted tasks run concurrently (the workers; no caller
    is helping). *)

type 'a future

val submit : ?on_complete:(unit -> unit) -> t -> (unit -> 'a) -> 'a future
(** [submit pool f] schedules [f ()] on the pool and returns a handle.
    [on_complete] (default: nothing) runs on the executing domain right
    after the future completes — successfully or not — and must not
    raise; services use it to poke an event loop (e.g. write one byte
    to a self-pipe).  @raise Invalid_argument if the pool is shut
    down. *)

val await : 'a future -> 'a
(** Block until the future completes; return its value or re-raise the
    task's exception (with its backtrace).  [await] may be called any
    number of times and from any domain. *)

val poll : 'a future -> bool
(** [true] once the future has completed (even exceptionally) — then
    [await] returns without blocking. *)

(** {1 Dependency-counted task graphs}

    [parallel_map] fans one flat batch out; DP-shaped workloads instead
    have tasks whose inputs are other tasks' outputs (sibling subtrees
    meeting at their merge node).  [run_graph] executes such a DAG with
    dependency-counted release: every task carries an atomic
    remaining-dependencies counter, sources are enqueued immediately,
    and each remaining task is enqueued by whichever dependency
    finishes last.  No task ever blocks — release is pure counter
    arithmetic — so the graph cannot deadlock the pool, and because a
    task starts only after {e all} its inputs completed, a pure [run]
    function yields identical results at any job count and any
    scheduling order.

    Graph tasks are always placed on the shared queue (never run inline
    at enqueue time, unlike {!submit} from inside a pool task), so idle
    workers steal them even when the graph was started from within
    another pool task — e.g. a serve request parallelising its own DP
    across the server's pool.  The calling domain helps drain the queue
    while it waits, so [run_graph] completes even with [jobs = 1]. *)

val run_graph : t -> deps:int array array -> run:(int -> unit) -> unit
(** [run_graph pool ~deps ~run] executes tasks [0 .. n-1] where
    [n = Array.length deps] and [deps.(i)] lists the tasks that must
    complete before task [i] starts.  The graph must be acyclic with at
    least one dependency-free task.  If a task raises, the remaining
    task bodies are skipped (the graph still drains) and the first
    exception is re-raised in the caller with its backtrace.
    @raise Invalid_argument on an out-of-range dependency, a graph with
    no sources, or a pool that is shut down. *)

val shutdown : t -> unit
(** Join the worker domains.  Idempotent; subsequent combinator calls
    raise [Invalid_argument].  Call only after all batches returned. *)

val with_pool : ?jobs:int -> (t -> 'a) -> 'a
(** [with_pool f] runs [f] with a fresh pool and shuts it down on the
    way out, even on exception. *)
