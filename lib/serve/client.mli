(** Blocking client for the varbuf-serve protocol, used by the CLI,
    the tests, the load generator and the bench harness.

    One connection serves any number of sequential requests; every
    call below writes one frame and blocks until its reply frame
    arrives. *)

type addr = Unix_sock of string | Tcp of string * int

val addr_of_string : string -> addr
(** ["host:port"] (with a numeric port) parses as {!Tcp}; anything
    else is a Unix-socket path. *)

val resolve_addr : socket:string -> string option -> addr
(** The CLIs' [--socket PATH] / [--tcp HOST:PORT] pair: [None] is the
    Unix socket, a bare port means [127.0.0.1:PORT], and anything else
    goes through {!addr_of_string}. *)

val pp_addr : addr -> string

type t

val connect_addr : ?max_payload:int -> ?wire:Wire.proto -> addr -> t
(** Connect (Unix-domain or TCP with [TCP_NODELAY]) and validate the
    server's [hello] handshake.  [max_payload] (default 64 MiB) bounds
    accepted reply payloads.  [wire] is ignored: it stays only because
    the served-request benchmark ([bench/e2e]) still passes it.
    @raise Unix.Unix_error if the peer cannot be reached;
    @raise Failure on a handshake or protocol mismatch. *)

val connect : ?max_payload:int -> string -> t
(** [connect_addr (Unix_sock path)]. *)

val request : t -> Protocol.request -> (Protocol.response, Protocol.error) result

val request_raw :
  t -> Protocol.request -> (string, Protocol.error) result
(** Like {!request} but returns the raw {!Codec_bin} response payload
    — what the determinism tests compare. *)

val stats : t -> string
(** The server's {!Metrics.render} text. *)

val trace : t -> string
(** The server's recent span buffer as Chrome [trace_event] JSON
    ({!Obs.Export.chrome_json}); [{"traceEvents":[]}] (plus
    whitespace) when the daemon runs without observability. *)

val shutdown : t -> unit
(** Ask the server to drain and exit; returns once acknowledged. *)

val roundtrip : t -> kind:string -> string -> Wire.frame
(** Send an arbitrary frame and return the reply frame verbatim (how
    tests probe malformed-request handling).
    @raise Wire.Closed if the server hangs up instead. *)

val close : t -> unit
