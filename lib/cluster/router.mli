(** The cluster front end: one process that accepts client connections
    through a {!Serve.Front} (Unix socket and optionally loopback TCP,
    the same front door a {!Serve.Server} has), and forwards every
    [request] its front does not answer to one of [N] worker daemons
    ({!Serve.Server} processes, one per shard socket).

    The front holds the cluster's one response cache
    ([cache_entries]; the workers run with none): a replay of a
    payload already answered, ids and deadlines aside, is answered
    there from the stored worker reply under its own id, before any
    routing or queueing, and never reaches a worker.  The router reads
    each request's head once and digests its payload once
    ({!Serve.Codec_bin.request_key}), and decodes nothing.

    Routing is {e work-conserving}: a request goes to its {e home}
    shard ({!shard_of_request}, from the same key) when that is idle,
    else to the least-loaded shard with a ready link.  A shard's load
    is its busy links plus its queue; ties go to home, then to
    [(home + k) mod N] in order.  So a request never waits behind
    another while a worker idles.  The shard never changes bytes:
    every worker computes the same reply, request payloads are
    forwarded as the client sent them and worker responses are
    returned verbatim, byte-identical to what a single {!Serve.Server}
    would have produced.  The [stats] line [cluster_spilled] counts
    the requests sent to a shard other than their home.

    Correlation is by connection, not by id: the router keeps up to
    [conns_per_shard] links per worker and puts {e at most one}
    outstanding request on each link, so a worker's reply — response
    {e or} error, which carries no id — is unambiguously for the one
    request in flight on that link.  Client ids pass through verbatim.

    Admission control: each shard has a bounded pending queue
    ([queue_depth]); a request whose chosen shard's queue is full —
    that is, the least-loaded ready shard's, or home's when no shard
    has a ready link — is refused immediately with a [busy] error.  A
    worker that dies takes its in-flight requests to [internal] errors;
    queued requests stay queued and drain when the worker comes back
    (the router redials lost links with a backoff capped at
    {!reconnect_interval} seconds, and the {!Supervisor} restarts
    crashed worker processes), while new requests go to shards that
    have a ready link.

    Shutdown ([shutdown] frame or [should_stop]) drains: stop
    accepting, finish every queued and in-flight request, then forward
    [shutdown] to each worker and wait (bounded) for their sockets to
    close. *)

type config = {
  socket_path : string;  (** front-door Unix socket *)
  tcp_port : int option;  (** also accept clients on 127.0.0.1:port *)
  shard_sockets : string array;
      (** one worker daemon Unix socket per shard; the array order
          {e is} the shard numbering *)
  conns_per_shard : int;  (** links (= max in-flight) per worker *)
  queue_depth : int;  (** pending-queue bound per shard *)
  max_payload : int;
  cache_entries : int;
      (** the front's response-cache capacity; [0] disables it *)
}

val default_config :
  socket_path:string -> shard_sockets:string array -> config
(** 4 links per shard, queue depth 64, 8 MiB payloads, 128 cache
    entries, no TCP.  The listen backlog and client-connection cap are
    {!Serve.Front}'s. *)

val reconnect_interval : float
(** The longest wait, in seconds, between redial attempts to a worker
    with missing links.  Each pass opens every missing link; after a
    failed dial (a refused connect, or a link lost before the worker's
    hello) the wait starts at 10 ms and doubles up to this value, and a
    link that comes up resets it. *)

val shard_of_request : shards:int -> string -> int
(** The {e home} shard of an encoded request payload: the first four
    bytes of its {!Serve.Codec_bin.request_key} (the payload digest,
    id and deadline aside) mod [shards].  The router sends the request
    there when home is idle.
    @raise Failure if the payload's head is malformed. *)

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
    traffic (forwarded and cached oks, errors, busy refusals, cache
    hits and misses, per-kind frames); the [stats] reply appends
    [cluster_*] lines (shard count, [cluster_spilled], per-shard
    links, in-flight and queue) to the front's lines.
    @raise Unix.Unix_error if a front socket cannot be bound. *)
