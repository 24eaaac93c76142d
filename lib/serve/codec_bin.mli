(** The binary payload encodings of the {!Protocol} values, carried
    inside {!Wire} frames: varints (LEB128, zigzag for signed fields)
    for integers, raw IEEE-754 float64 bits little-endian for reals,
    and length-prefixed strings.  Every encoder is deterministic:
    equal values encode to equal bytes, and encode→decode→encode is
    bit-exact.

    Layout choices made for the front door's hot path: the
    request/response id is a fixed 8-byte little-endian field at
    offset 0 (readable and rewritable without decoding,
    {!request_id}/{!with_request_id}), so a cached reply is answered
    under a new id by rewriting 8 bytes; and {!request_key} reads the
    head once and keys the payload on its own bytes, without building
    the tree.

    Every decoder raises [Failure] — and only [Failure] — on
    malformed input: truncation, trailing bytes, unknown tags, a
    varint beyond the 62-bit range the encoders emit, a count the
    remaining bytes cannot hold, or structural violations (the same
    tree/assignment rules the {!Rctree.Io} and {!Bufins.Assignment}
    text parsers enforce).

    The request head also refuses what no caller needs and nothing
    would bound: [samples] above 4096, [btypes] above 64, [mc_trials]
    above 1,000,000, [relax] outside (0, 1], and [rule 4p] with a
    power-aware objective on a canonical ([samples = 0]) request.  A
    tree refuses any node coordinate beyond ±5e4 µm, besides
    {!Rctree.Tree.of_spec}'s value checks. *)

(** {1 Envelopes} *)

val encode_request : Protocol.request -> string
val decode_request : string -> Protocol.request

val encode_response : Protocol.response -> string
val decode_response : string -> Protocol.response

val encode_error : Protocol.error -> string
val decode_error : string -> Protocol.error

(** {1 Front-door helpers (no full decode)} *)

val request_key : string -> string
(** The response-cache key of an encoded request: the MD5 digest of
    every byte after the [deadline_ms] field, followed by the bytes
    between the id and the deadline (seed, mode and rule: at most 43).
    It reads the head once, with {!decode_request}'s head checks, and
    leaves the tree blob undecoded.

    A response is a function of the request minus its [id] (echoed
    verbatim) and [deadline_ms] (which only bounds the run), and the
    same bytes always decode to the same request, so equal keys mean
    equal responses up to the id.  Two encodings of one request can
    differ only where a hand-made payload is not canonical (say,
    extensions out of order); they miss each other, never hit wrongly.
    @raise Failure if the head is malformed. *)

val request_id : string -> int
(** The id field of an encoded request, read from its fixed offset. *)

val with_request_id : string -> int -> string
(** A copy of the encoded request with the id field rewritten. *)

val response_id : string -> int
val with_response_id : string -> int -> string

val request_tree_span : string -> int * int
(** [(offset, length)] of the raw tree blob inside an encoded request.
    Validates everything but the blob itself.  Only the served-request
    benchmark ([bench/e2e]) still calls it. *)

(** {1 Embedded values (exposed for the fuzz suites)} *)

val encode_tree : Rctree.Tree.t -> string
val decode_tree : string -> Rctree.Tree.t

val encode_assignment : Bufins.Assignment.t -> string
val decode_assignment : string -> Bufins.Assignment.t
