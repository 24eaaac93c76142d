(** The front door: every client connection of a serving loop.
    {!Server} and the cluster router both serve clients through it and
    keep only their own dispatch.

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
    - the [stats], [trace], [shutdown] and unknown kinds.  [request]
      frames go to the caller;
    - replies, errors encoded with {!Codec_bin.encode_error};
    - reaping dead connections, and closing. *)

type config = {
  socket_path : string;
  tcp_port : int option;  (** also listen on 127.0.0.1:[port] *)
  max_payload : int;  (** client-frame size limit, bytes *)
}

type t

type client
(** Where a reply goes: one client connection. *)

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
  request:(client -> string -> unit) ->
  stats:(unit -> string) ->
  Unix.file_descr list ->
  unit
(** Handle what [select] reported readable: accept new clients, read
    and answer their frames, then close dead connections.  A
    [request] frame's payload goes to [request]; a [stats] frame is
    answered with {!Metrics.render} followed by [stats ()]. *)

val draining : t -> bool
(** True once a client sent [shutdown] or {!drain} was called;
    accepting has stopped. *)

val drain : t -> unit

val alive : client -> bool

val respond : t -> client -> latency_ms:float -> string -> unit
(** Count an ok response and send its payload, already encoded. *)

val fail : t -> client -> string -> string -> unit
(** [fail t client code message] counts an error and sends it. *)

val close : t -> unit
(** Close every connection and listener, remove the socket file and
    restore SIGPIPE. *)
