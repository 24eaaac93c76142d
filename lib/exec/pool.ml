type t = {
  jobs : int;
  mutex : Mutex.t;
  work : Condition.t;                 (* signalled when tasks are queued *)
  queue : (unit -> unit) Queue.t;
  mutable closed : bool;
  mutable domains : unit Domain.t list;
}

(* True while the current domain is executing a pool task (worker
   domains always; the caller only while helping).  Combinators check
   it to run nested batches inline instead of deadlocking on their own
   pool. *)
let in_task : bool Domain.DLS.key = Domain.DLS.new_key (fun () -> false)

let default_jobs () =
  match Sys.getenv_opt "VARBUF_JOBS" with
  | Some s -> (
    match int_of_string_opt (String.trim s) with
    | Some n when n >= 1 -> n
    | _ -> Domain.recommended_domain_count ())
  | None -> Domain.recommended_domain_count ()

(* Observability.  Counter handles are resolved once at module
   initialisation (lookup locks the registry; [Lazy] is not
   domain-safe); [run_task] wraps every queue-executed task in a span
   and flushes the executing domain's span buffer so worker-domain
   spans are never stranded while the worker idles.  The helper
   counter covers tasks stolen by the caller inside [run_batch] /
   [run_graph]'s help loops. *)
let obs_worker = Obs.Counters.counter Obs.Counters.global "pool.tasks.worker"
let obs_helper = Obs.Counters.counter Obs.Counters.global "pool.tasks.helper"

let run_task ~counter task =
  if not (Obs.Control.on ()) then task ()
  else begin
    let t0 = Obs.Span.now_ns () in
    Fun.protect task ~finally:(fun () ->
        Obs.Counters.incr counter 1;
        Obs.Span.record ~name:"task" ~cat:"pool" ~t0_ns:t0;
        Obs.Span.flush ())
  end

(* Queue depth at enqueue time, sampled under the pool mutex (the
   [Queue.length] read is O(1); the histogram takes its own locks but
   never the pool's, so the lock order is acyclic). *)
let observe_queue_depth t =
  if Obs.Control.on () then
    Obs.Counters.observe Obs.Counters.global "pool.queue_depth" ~lo:0.0
      ~hi:1024.0 ~bins:128
      (float_of_int (Queue.length t.queue))

let worker_loop t =
  Domain.DLS.set in_task true;
  let rec loop () =
    Mutex.lock t.mutex;
    while Queue.is_empty t.queue && not t.closed do
      Condition.wait t.work t.mutex
    done;
    (* Drain any leftovers even when closing, so no task is dropped. *)
    match Queue.take_opt t.queue with
    | None -> Mutex.unlock t.mutex
    | Some task ->
      Mutex.unlock t.mutex;
      run_task ~counter:obs_worker task;
      loop ()
  in
  loop ()

let create ?jobs () =
  let jobs = max 1 (Option.value jobs ~default:(default_jobs ())) in
  let t =
    {
      jobs;
      mutex = Mutex.create ();
      work = Condition.create ();
      queue = Queue.create ();
      closed = false;
      domains = [];
    }
  in
  t.domains <- List.init (jobs - 1) (fun _ -> Domain.spawn (fun () -> worker_loop t));
  t

let jobs t = t.jobs

let shutdown t =
  Mutex.lock t.mutex;
  t.closed <- true;
  Condition.broadcast t.work;
  let domains = t.domains in
  t.domains <- [];
  Mutex.unlock t.mutex;
  List.iter Domain.join domains

let with_pool ?jobs f =
  let t = create ?jobs () in
  Fun.protect ~finally:(fun () -> shutdown t) (fun () -> f t)

(* One batch = the tasks of one combinator call.  Completion is
   tracked under the pool mutex; the first exception wins and is
   re-raised in the submitting domain once the batch has drained. *)
type batch = {
  mutable remaining : int;
  mutable failed : (exn * Printexc.raw_backtrace) option;
  finished : Condition.t;
}

let run_batch t fns =
  let n = Array.length fns in
  if n = 0 then ()
  else begin
    let b = { remaining = n; failed = None; finished = Condition.create () } in
    let wrap fn () =
      (try fn ()
       with e ->
         let bt = Printexc.get_raw_backtrace () in
         Mutex.lock t.mutex;
         if b.failed = None then b.failed <- Some (e, bt);
         Mutex.unlock t.mutex);
      Mutex.lock t.mutex;
      b.remaining <- b.remaining - 1;
      if b.remaining = 0 then Condition.broadcast b.finished;
      Mutex.unlock t.mutex
    in
    Mutex.lock t.mutex;
    if t.closed then begin
      Mutex.unlock t.mutex;
      invalid_arg "Exec.Pool: pool is shut down"
    end;
    Array.iter (fun fn -> Queue.push (wrap fn) t.queue) fns;
    observe_queue_depth t;
    Condition.broadcast t.work;
    (* Help: the caller executes queued tasks instead of blocking, so a
       pool of [jobs] really runs [jobs] tasks at a time. *)
    let rec help () =
      if b.remaining > 0 then
        match Queue.take_opt t.queue with
        | Some task ->
          Mutex.unlock t.mutex;
          Domain.DLS.set in_task true;
          Fun.protect
            ~finally:(fun () -> Domain.DLS.set in_task false)
            (fun () -> run_task ~counter:obs_helper task);
          Mutex.lock t.mutex;
          help ()
        | None ->
          while b.remaining > 0 do
            Condition.wait b.finished t.mutex
          done
    in
    help ();
    let failed = b.failed in
    Mutex.unlock t.mutex;
    match failed with
    | Some (e, bt) -> Printexc.raise_with_backtrace e bt
    | None -> ()
  end

(* ---------- futures ---------- *)

type 'a state =
  | Pending
  | Value of 'a
  | Error of exn * Printexc.raw_backtrace

type 'a future = {
  fm : Mutex.t;
  fc : Condition.t;
  mutable state : 'a state;
}

let submit ?(on_complete = fun () -> ()) t f =
  let fut = { fm = Mutex.create (); fc = Condition.create (); state = Pending } in
  let run () =
    let outcome =
      match f () with
      | v -> Value v
      | exception e -> Error (e, Printexc.get_raw_backtrace ())
    in
    Mutex.lock fut.fm;
    fut.state <- outcome;
    Condition.broadcast fut.fc;
    Mutex.unlock fut.fm;
    on_complete ()
  in
  Mutex.lock t.mutex;
  if t.closed then begin
    Mutex.unlock t.mutex;
    invalid_arg "Exec.Pool: pool is shut down"
  end;
  if t.jobs <= 1 || Domain.DLS.get in_task then begin
    (* No workers (or we are one): complete inline, never deadlock. *)
    Mutex.unlock t.mutex;
    run ()
  end
  else begin
    Queue.push run t.queue;
    observe_queue_depth t;
    Condition.signal t.work;
    Mutex.unlock t.mutex
  end;
  fut

let await fut =
  Mutex.lock fut.fm;
  let rec settled () =
    match fut.state with
    | Pending ->
      Condition.wait fut.fc fut.fm;
      settled ()
    | Value v ->
      Mutex.unlock fut.fm;
      v
    | Error (e, bt) ->
      Mutex.unlock fut.fm;
      Printexc.raise_with_backtrace e bt
  in
  settled ()

let poll fut =
  Mutex.lock fut.fm;
  let done_ = match fut.state with Pending -> false | Value _ | Error _ -> true in
  Mutex.unlock fut.fm;
  done_

(* ---------- dependency-counted task graphs ---------- *)

(* Graph tasks bypass [submit]'s inline-when-nested rule: they are
   always enqueued, because a release-driven graph never blocks inside
   a task (tasks only decrement counters and enqueue dependents), and
   the caller of [run_graph] drains the queue while waiting.  Keeping
   released tasks on the shared queue instead of running them inline
   lets idle workers steal them — including graphs started from inside
   another pool task (e.g. a serve request fanning its DP out). *)
let enqueue_task t fn =
  Mutex.lock t.mutex;
  if t.closed then begin
    Mutex.unlock t.mutex;
    invalid_arg "Exec.Pool: pool is shut down"
  end;
  Queue.push fn t.queue;
  observe_queue_depth t;
  Condition.signal t.work;
  Mutex.unlock t.mutex

let run_graph t ~deps ~run:run_node =
  let n = Array.length deps in
  if n = 0 then ()
  else begin
    let dependents = Array.make n [] in
    let counters = Array.map (fun ds -> Atomic.make (Array.length ds)) deps in
    Array.iteri
      (fun i ds ->
        Array.iter
          (fun d ->
            if d < 0 || d >= n then
              invalid_arg "Exec.Pool.run_graph: dependency out of range";
            dependents.(d) <- i :: dependents.(d))
          ds)
      deps;
    let remaining = Atomic.make n in
    let failed :
        (exn * Printexc.raw_backtrace) option Atomic.t =
      Atomic.make None
    in
    (* Signalled (under the pool mutex) on every task completion so the
       helping caller re-checks the queue and the remaining count. *)
    let progress = Condition.create () in
    let rec wrapped i () =
      (match Atomic.get failed with
      | Some _ -> () (* poisoned: drain the graph without running bodies *)
      | None -> (
        try run_node i
        with e ->
          let bt = Printexc.get_raw_backtrace () in
          ignore (Atomic.compare_and_set failed None (Some (e, bt)))));
      (* Dependency-counted release: the last-finishing dependency
         enqueues each dependent, so a task starts exactly once, as
         soon as its inputs exist. *)
      List.iter
        (fun j ->
          if Atomic.fetch_and_add counters.(j) (-1) = 1 then
            enqueue_task t (wrapped j))
        dependents.(i);
      ignore (Atomic.fetch_and_add remaining (-1));
      Mutex.lock t.mutex;
      Condition.broadcast progress;
      Mutex.unlock t.mutex
    in
    let sources = ref 0 in
    Array.iteri
      (fun i ds ->
        if Array.length ds = 0 then begin
          incr sources;
          enqueue_task t (wrapped i)
        end)
      deps;
    if !sources = 0 then
      invalid_arg "Exec.Pool.run_graph: no source tasks (dependency cycle)";
    (* Help: drain queued tasks (this graph's or anyone else's) instead
       of blocking, so [run_graph] makes progress even with no worker
       domains (jobs = 1) or when called from inside a pool task. *)
    Mutex.lock t.mutex;
    let rec help () =
      if Atomic.get remaining > 0 then
        match Queue.take_opt t.queue with
        | Some task ->
          Mutex.unlock t.mutex;
          let saved = Domain.DLS.get in_task in
          Domain.DLS.set in_task true;
          Fun.protect
            ~finally:(fun () -> Domain.DLS.set in_task saved)
            (fun () -> run_task ~counter:obs_helper task);
          Mutex.lock t.mutex;
          help ()
        | None ->
          Condition.wait progress t.mutex;
          help ()
    in
    help ();
    Mutex.unlock t.mutex;
    match Atomic.get failed with
    | Some (e, bt) -> Printexc.raise_with_backtrace e bt
    | None -> ()
  end

let resolve_chunk t ~chunk n =
  match chunk with
  | Some c when c >= 1 -> c
  | Some _ -> invalid_arg "Exec.Pool: chunk must be >= 1"
  | None ->
    (* A few tasks per job smooths imbalance without drowning in
       scheduling overhead. *)
    max 1 ((n + (4 * t.jobs) - 1) / (4 * t.jobs))

let parallel_map_array ?chunk t ~f arr =
  let n = Array.length arr in
  if n = 0 then [||]
  else if t.jobs <= 1 || Domain.DLS.get in_task then Array.map f arr
  else begin
    let chunk = resolve_chunk t ~chunk n in
    let out = Array.make n None in
    let tasks = (n + chunk - 1) / chunk in
    let fns =
      Array.init tasks (fun k () ->
          let lo = k * chunk in
          let hi = min n (lo + chunk) - 1 in
          for i = lo to hi do
            out.(i) <- Some (f arr.(i))
          done)
    in
    run_batch t fns;
    Array.map (function Some v -> v | None -> assert false) out
  end

let parallel_map ?chunk t ~f xs =
  Array.to_list (parallel_map_array ?chunk t ~f (Array.of_list xs))

let parallel_init ?chunk t n ~f =
  if n < 0 then invalid_arg "Exec.Pool.parallel_init: negative length";
  parallel_map_array ?chunk t ~f (Array.init n Fun.id)
