(** Bounded memoising cache of handler results.

    A response is a pure function of the request with [id] and
    [deadline_ms] zeroed (the former is echoed verbatim, the latter
    only bounds runtime), so identical requests — same seed, mode,
    rule, sampling, library, objective, wire-sizing flag, MC trial
    count and tree — can be answered from memory byte-identically.
    Thread-safe; eviction is least-recently-used. *)

type t

val create : entries:int -> t
(** @raise Invalid_argument if [entries < 1]. *)

val key_of_request : Protocol.request -> string
(** Hex digest of the request's encoding ({!Codec_bin.encode_request})
    with [id] and [deadline_ms] zeroed. *)

val find : t -> string -> Protocol.response option
(** Lookup by {!key_of_request} key; a hit refreshes the entry's
    recency.  The cached response still carries the {e original}
    request's id — the caller rewrites [r_id]. *)

val add : t -> string -> Protocol.response -> unit
(** Insert, evicting the least-recently-used entry at capacity.
    Re-adding an existing key only refreshes its recency. *)

val length : t -> int

val stats : t -> Lru.stats
(** Occupancy and lifetime hit/miss counts ({!find} counts; {!add} of
    an existing key does not).  Rendered into the server's stats
    frame. *)
