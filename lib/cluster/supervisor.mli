(** The multi-process cluster: fork [shards] worker daemons (each a
    {!Serve.Server} with its own {!Exec.Pool} on its own
    [<socket>.shard<i>] Unix socket, and no response cache), then run
    the {!Router}, which holds the cluster's one cache, in the calling
    process with worker supervision on its tick.

    A worker that exits is reaped ([waitpid WNOHANG]) and respawned
    (throttled to one attempt per {!respawn_backoff} seconds per
    shard); its shard's queued requests wait for the restart while
    in-flight ones fail with [internal], and new requests go to the
    shards that still have a ready link.  (The {!Router} sends a
    request home when idle, else to the least-loaded ready shard; the
    shard never changes bytes, and a worker holds no cache to lose.)
    Once the router starts draining, respawn stops; after the router
    returns, any workers still alive get SIGTERM, then SIGKILL after a
    5-second grace.

    {b Fork safety}: call {!run} before creating any domain — the
    workers are forked from the calling process at startup {e and} on
    respawn.  The router itself runs no domains, so respawning from
    its tick is safe; a host that spawned domains first would not
    be. *)

type config = {
  shards : int;
  socket_path : string;  (** the router's front door *)
  tcp_port : int option;
  jobs_per_shard : int;
  cache_entries : int;  (** the router's response cache; 0 disables *)
  queue_depth : int;
  conns_per_shard : int;
  max_payload : int;
}

val default_config : socket_path:string -> shards:int -> config
(** Per shard: {!Exec.Pool.default_jobs} jobs, queue depth 64, 4
    links; 128 router cache entries; 8 MiB payloads; no TCP. *)

val shard_socket : socket_path:string -> int -> string
(** Where shard [i]'s worker listens: [<socket_path>.shard<i>]. *)

val respawn_backoff : float

val run : ?should_stop:(unit -> bool) -> config -> unit
(** Fork the workers, route until shutdown (a [shutdown] frame or
    [should_stop], e.g. the CLI's SIGINT flag — workers forked into
    the same process group see the same SIGINT and drain in
    parallel), then stop and reap every worker.
    @raise Unix.Unix_error if the front socket cannot be bound. *)
