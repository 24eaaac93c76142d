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

    Robustness contract:
    - a malformed or oversized request gets an [error] frame and the
      connection (and daemon) keep serving; only a corrupt frame
      {e header} closes that one connection;
    - at most [queue_depth] requests are queued or running; beyond
      that, requests are refused with [busy];
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
          protocol — wire encoding (v1 text or v2 binary) is per
          connection, not per listener. *)
  jobs : int;  (** size of the server's {!Exec.Pool} *)
  backlog : int;  (** listen backlog *)
  max_payload : int;  (** request-frame size limit, bytes *)
  queue_depth : int;  (** max requests queued + running *)
  max_connections : int;  (** accepting pauses above this *)
  cache_entries : int;
      (** result-{!Cache} capacity; [0] disables caching.  Repeated
          payloads (same seed/mode/rule/tree, ids and deadlines aside)
          are answered from memory, byte-identically; hits and misses
          show up in the [stats] report. *)
  tape_entries : int;
      (** compiled-{!Tapes} capacity; [0] disables the tape cache.
          Requests whose topology digest is warm skip the per-net tape
          compilation; results are byte-identical either way.  Occupancy and hit/miss lines
          ([tape_*]) join the [stats] report. *)
}

val default_config : socket_path:string -> config
(** jobs {!Exec.Pool.default_jobs}, backlog 64, 8 MiB payloads,
    queue depth 64, 128 connections, 128 cache entries, 128 tape
    entries. *)

val run : ?should_stop:(unit -> bool) -> config -> unit
(** Bind, serve until a [shutdown] request or [should_stop] (polled at
    least every 200 ms), drain, clean up (the pool included).
    @raise Unix.Unix_error if the socket cannot be bound. *)
