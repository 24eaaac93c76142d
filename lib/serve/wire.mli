(** Length-delimited framing over a stream socket: a fixed 10-byte
    header followed by the payload.

    {v
    0xAB 'V' 'B' '2'   version(=2)   kind-code   length (4 bytes, BE)
    <payload>
    v}

    Kind codes: 1 hello, 2 request, 3 response, 4 error, 5 stats,
    6 trace, 7 shutdown, 8 ok.  Request, response and error payloads
    are the binary encodings of {!Codec_bin}; hello, stats and trace
    payloads are text.  Because the length is explicit, a receiver can
    always resynchronise after a payload it rejects (malformed or over
    the size limit) — only a corrupt {e header} forces the connection
    closed. *)

type proto = V2
(** The one wire encoding.  Kept only because the served-request
    benchmark ([bench/e2e]) still names it; nothing here reads it. *)

type frame = { kind : string; payload : string }

type event =
  | Frame of frame
  | Oversized of { kind : string; len : int }
      (** A valid header announcing a payload larger than the
          decoder's limit.  The payload bytes are consumed and
          discarded internally; the stream stays in sync and the next
          {!next}/{!recv} yields the following frame. *)

(** {1 Incremental decoding (the server side)} *)

type decoder

val decoder : ?max_payload:int -> unit -> decoder
(** A fresh decoder.  [max_payload] (default 8 MiB) bounds accepted
    payloads; longer ones come out as {!Oversized}. *)

val feed : decoder -> bytes -> int -> unit
(** [feed d buf n] appends the first [n] bytes of [buf] to the
    decoder's input. *)

val next : decoder -> event option
(** The next complete event, or [None] if more input is needed.
    @raise Failure on an unrecoverable framing error (input that does
    not start with the magic, an unknown version or kind code): the
    connection must be closed. *)

(** {1 Blocking transport (the client side)} *)

exception Closed
(** The peer closed the connection at a frame boundary. *)

val recv : decoder -> Unix.file_descr -> event
(** Read from [fd] into the decoder until one event is complete.
    @raise Closed on EOF at a frame boundary;
    @raise Failure on EOF mid-frame or a framing error. *)

val frame_bytes : kind:string -> string -> string
(** The on-the-wire bytes of one frame.
    @raise Invalid_argument for an unknown kind. *)

val write_frame : Unix.file_descr -> kind:string -> string -> unit
(** Send one frame (blocking, handles partial writes).
    @raise Unix.Unix_error as [Unix.write] (e.g. [EPIPE]). *)

val write_frame_pv :
  Unix.file_descr -> proto:proto -> kind:string -> string -> unit
(** {!write_frame}, ignoring [proto].  Kept only because the
    served-request benchmark ([bench/e2e]) still calls it. *)
