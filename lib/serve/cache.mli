(** Bounded cache of encoded replies, the one cache a worker keeps.

    A response is a pure function of the request with [id] and
    [deadline_ms] zeroed (the former is echoed verbatim, the latter
    only bounds runtime), so identical requests — same seed, mode,
    rule, sampling, library, objective, wire-sizing flag, MC trial
    count and tree — can be answered from memory byte-identically.
    {!Server} owns it: it looks a decoded request up before queueing
    it, and stores the {!Codec_bin.encode_response} bytes of each
    successful reply.  Thread-safe; eviction is least-recently-used. *)

type t

val create : entries:int -> t
(** @raise Invalid_argument if [entries < 1]. *)

val key_of_request : Protocol.request -> string
(** Hex digest of the request's encoding ({!Codec_bin.encode_request})
    with [id] and [deadline_ms] zeroed. *)

val find : t -> string -> string option
(** Lookup by {!key_of_request} key; a hit refreshes the entry's
    recency.  The cached reply still carries the {e original}
    request's id — the caller rewrites it with
    {!Codec_bin.with_response_id}. *)

val add : t -> string -> string -> unit
(** [add t key reply] inserts an encoded reply, evicting the
    least-recently-used entry at capacity.  Re-adding an existing key
    only refreshes its recency. *)

val length : t -> int

val stats : t -> Lru.stats
(** Occupancy and lifetime hit/miss counts ({!find} counts; {!add} of
    an existing key does not).  Rendered into the server's stats
    frame. *)
