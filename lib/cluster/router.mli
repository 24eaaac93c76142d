(** The cluster front end: one process that accepts client connections
    through a {!Serve.Front} (Unix socket and optionally loopback TCP,
    the same front door a {!Serve.Server} has), shards every [request]
    by a digest of its routing tree, and forwards it to one of [N]
    worker daemons ({!Serve.Server} processes, one per shard socket).

    Routing is {e canonical}: the shard key is a digest of the
    request's raw tree blob ({!Serve.Codec_bin.request_tree_span}), so
    the same net always lands on the same shard — and therefore hits
    the same worker's response cache.  Request payloads are forwarded as
    the client sent them and worker responses are returned verbatim,
    byte-identical to what a single {!Serve.Server} would have
    produced.

    Correlation is by connection, not by id: the router keeps up to
    [conns_per_shard] links per worker and puts {e at most one}
    outstanding request on each link, so a worker's reply — response
    {e or} error, which carries no id — is unambiguously for the one
    request in flight on that link.  Client ids pass through verbatim.

    Admission control: each shard has a bounded pending queue
    ([queue_depth]); a request that arrives with the queue full is
    refused immediately with a [busy] error.  A worker that dies takes
    its in-flight requests to [internal] errors; queued requests stay
    queued and drain when the worker comes back (the router redials
    lost links with a backoff capped at {!reconnect_interval} seconds,
    and the {!Supervisor} restarts crashed worker processes).

    Shutdown ([shutdown] frame or [should_stop]) drains: stop
    accepting, finish every queued and in-flight request, then forward
    [shutdown] to each worker and wait (bounded) for their sockets to
    close. *)

type config = {
  socket_path : string;  (** front-door Unix socket *)
  tcp_port : int option;  (** also accept clients on 127.0.0.1:port *)
  shard_sockets : string array;
      (** one worker daemon Unix socket per shard; the array order
          {e is} the shard numbering, so it must be identical across
          restarts for cache locality *)
  conns_per_shard : int;  (** links (= max in-flight) per worker *)
  queue_depth : int;  (** pending-queue bound per shard *)
  max_payload : int;
  max_connections : int;
  backlog : int;
}

val default_config :
  socket_path:string -> shard_sockets:string array -> config
(** 4 links per shard, queue depth 64, 8 MiB payloads, 128 client
    connections, backlog 64, no TCP. *)

val reconnect_interval : float
(** The longest wait, in seconds, between redial attempts to a worker
    with missing links.  Each pass opens every missing link; after a
    failed dial (a refused connect, or a link lost before the worker's
    hello) the wait starts at 10 ms and doubles up to this value, and a
    link that comes up resets it. *)

val shard_of_request : shards:int -> string -> int
(** The shard index for an encoded request payload — a digest of the
    raw tree blob ({!Serve.Codec_bin.request_tree_span}) mod [shards].
    @raise Failure if the payload is malformed. *)

val run :
  ?metrics:Serve.Metrics.t ->
  ?should_stop:(unit -> bool) ->
  ?on_tick:(draining:bool -> unit) ->
  config ->
  unit
(** Bind and route until shutdown, then drain and clean up.  [on_tick]
    runs once per loop iteration (at least every 200 ms) — the
    {!Supervisor} uses it to reap and respawn worker processes; it must
    not respawn once [draining] is true.  [metrics] counts router-side
    traffic (forwarded oks/errors, busy refusals, per-kind frames);
    the [stats] reply appends [cluster_*] topology lines to
    {!Serve.Metrics.render}.
    @raise Unix.Unix_error if a front socket cannot be bound. *)
