(** The varbuf-serve daemon: an accept loop over a Unix-domain socket
    (and optionally a loopback TCP port) that fans concurrent requests
    onto one shared {!Exec.Pool}.  Its client side — listeners,
    connections, framing and the non-request kinds — is a {!Front}.

    One domain runs the event loop ([Unix.select] over the front's
    descriptors and a self-pipe); request
    execution is submitted to the pool as {!Exec.Pool.submit} futures,
    so with [jobs = n] up to [n − 1] optimisations run concurrently
    while the loop keeps accepting, parsing and answering.  With
    [jobs = 1] there are no workers and requests execute inline in the
    loop — a degenerate but correct (and bit-identical) mode.

    The response cache is the front's ({!Front}, [cache_entries]
    entries): a replay is answered there from its bytes, under its own
    id, and never reaches this loop.  What does reach it is decoded and
    runs {!Handler.run} on the pool; its reply is encoded once, handed
    to the front (which stores [response] frames) and sent.  A cluster
    starts its workers with [cache_entries = 0], so its one cache is
    the router's.  The [serve.queue_wait_ms] and [serve.exec_ms]
    observability histograms cover the requests this loop runs; a
    front hit is in neither.

    Robustness contract:
    - a malformed or oversized request gets an [error] frame and the
      connection (and daemon) keep serving; only a corrupt frame
      {e header} closes that one connection;
    - at most [queue_depth] requests are queued or running; beyond
      that, cache misses are refused with [busy] (hits are still
      answered);
    - a request's [deadline_ms] covers queue wait plus optimisation
      (mapped onto the engine's wall-clock budget) — an expired request
      gets a [deadline] error;
    - [shutdown] requests and [should_stop] (the CLI's SIGINT/SIGTERM
      flag) drain in-flight work, answer it, then exit cleanly,
      removing the socket file. *)

type config = {
  socket_path : string;
  tcp_port : int option;
      (** also listen on 127.0.0.1:[port]; [None] (the default) keeps
          the daemon Unix-socket-only.  Both listeners serve the same
          protocol. *)
  jobs : int;  (** size of the server's {!Exec.Pool} *)
  max_payload : int;  (** request-frame size limit, bytes *)
  queue_depth : int;  (** max requests queued + running *)
  cache_entries : int;
      (** the front's response-cache capacity; [0] disables caching.
          Repeated payloads (same bytes, ids and deadlines aside) are
          answered from memory, byte-identically; hits and misses show
          up in the [stats] report. *)
}

val default_config : socket_path:string -> config
(** jobs {!Exec.Pool.default_jobs}, 8 MiB payloads, queue depth 64,
    128 cache entries.  The listen backlog and connection cap are
    {!Front}'s. *)

val run : ?should_stop:(unit -> bool) -> config -> unit
(** Bind, serve until a [shutdown] request or [should_stop] (polled at
    least every 200 ms), drain, clean up (the pool included).
    @raise Unix.Unix_error if the socket cannot be bound. *)
