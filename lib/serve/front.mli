(** The front door: every client connection of a serving loop, and
    the one response cache.  {!Server} and the cluster router both
    serve clients through it and keep only their own dispatch: a daemon
    ([varbuf-serve start]) holds one cache at its front, a cluster one
    at its router's, and cluster workers run with none.

    A front owns:
    - the Unix-socket listener and the optional loopback-TCP one, each
      with a listen backlog of 64.  The socket file appears under its
      name only once it accepts connections, so a client that waits
      for the file never sees a refused connect;
    - SIGPIPE, ignored while the front is open;
    - accepting, paused at 128 clients ([TCP_NODELAY], then the
      [hello] frame);
    - one incremental {!Wire.decoder} per connection;
    - the frame pump.  An oversized frame gets a [too_large] error and
      the stream stays in sync; a framing failure (a v1 text header
      included) gets a [proto] error and the connection is closed;
    - the [stats], [trace], [shutdown] and unknown kinds;
    - the [request] frames' first steps.  While draining, a request is
      refused [busy].  Otherwise, when the front keeps a cache, the
      request's head is read once, by {!Codec_bin.request_key}: a
      malformed head gets a [parse] error, and a key the cache holds is
      answered at once with the stored reply under the request's id
      ({!Codec_bin.with_response_id}), before any decode, routing or
      queueing.  Every other request goes to the owner's dispatch (with
      no cache, untouched);
    - the response cache: a bounded {!Lru} of encoded replies keyed by
      {!Codec_bin.request_key}.  {!respond} stores the reply (only
      [response] frames, and only those that echo their request's id);
      {!fail} stores nothing, so a [deadline] trip never poisons a
      retry;
    - replies, errors encoded with {!Codec_bin.encode_error};
    - reaping dead connections, and closing. *)

type config = {
  socket_path : string;
  tcp_port : int option;  (** also listen on 127.0.0.1:[port] *)
  max_payload : int;  (** client-frame size limit, bytes *)
  cache_entries : int;
      (** response-cache capacity; [0] keeps no cache.  Hits and
          misses show up in the [stats] report *)
}

type t

type caller
(** Where one request's reply goes: its client connection and, when the
    front keeps a cache, the request's id and cache key. *)

val listen : metrics:Metrics.t -> config -> t
(** Bind the listeners (removing a stale socket file first) and
    ignore SIGPIPE until {!close}.
    @raise Unix.Unix_error if a listener cannot be bound; nothing is
    then left open or bound. *)

val watched : t -> Unix.file_descr list
(** Descriptors to [select] for reading: the listeners while
    accepting (not draining, below 128 clients) and every
    connection. *)

val serve :
  t ->
  request:(caller -> string -> unit) ->
  ?stats:(unit -> string) ->
  Unix.file_descr list ->
  unit
(** Handle what [select] reported readable: accept new clients, read
    and answer their frames, then close dead connections.  A [request]
    frame the front does not answer itself goes to [request] with its
    payload, as the client sent it; a [stats] frame is answered with
    {!Metrics.render}, the cache's [cache_entries] and
    [cache_capacity] lines (when it keeps a cache), then [stats ()]
    (default: nothing). *)

val draining : t -> bool
(** True once a client sent [shutdown] or {!drain} was called;
    accepting has stopped. *)

val drain : t -> unit

val alive : caller -> bool
(** Whether the caller's connection is still open. *)

val key : caller -> string option
(** The request's {!Codec_bin.request_key}, already read when the
    front keeps a cache ([None] when it keeps none); the router takes
    its home shard from it. *)

val admitted : t -> unit
(** Count a cache miss, once the owner has taken a request on (queued
    it); a request it refuses [busy] is not a miss.  Nothing is
    counted when the front keeps no cache. *)

val respond : t -> caller -> latency_ms:float -> string -> unit
(** Count an ok response, store it in the cache if it echoes the
    request's id, and send its payload, already encoded. *)

val fail : t -> caller -> string -> string -> unit
(** [fail t caller code message] counts an error and sends it. *)

val close : t -> unit
(** Close every connection and listener, remove the socket file and
    restore SIGPIPE. *)
