(** A whole cluster inside one process, on domains instead of forked
    workers: [shards] {!Serve.Server} event loops plus one {!Router}
    loop, each on its own domain, wired over real Unix sockets in the
    temp directory.

    Byte-for-byte this serves exactly what the forked
    {!Supervisor} cluster serves — same router, same workers, same
    sockets — so tests can exercise the full routed path without
    forking (forking a test runner that already has live domains is
    unsafe).  What it does {e not} exercise is worker crash / respawn,
    which needs real processes. *)

val with_cluster : shards:int -> (string -> 'a) -> 'a
(** [with_cluster ~shards f] spawns the domains, waits (≤ 5 s) for
    every socket to be bound, runs [f router_socket] and always stops
    the cluster (router first, then workers, via one shared stop flag)
    even if [f] raises.  Each shard runs 2 jobs with the server's
    default caches and queue depth; the router keeps 2 links per
    shard.
    @raise Failure if the sockets do not appear in time. *)
