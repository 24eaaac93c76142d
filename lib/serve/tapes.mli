(** Bounded cache of compiled tapes ({!Compile.Tape}),
    keyed by the digest of the tree's canonical v2 encoding — the same
    bytes a v2 request carries as its tree blob, so the server can
    match incoming payloads against it without decoding the tree.
    Thread-safe; eviction is least-recently-used via {!Lru}. *)

type entry = { tree : Rctree.Tree.t; tape : Compile.Tape.t }

type t

val create : entries:int -> t
(** @raise Invalid_argument if [entries < 1]. *)

val digest_of_tree : Rctree.Tree.t -> string
(** Hex digest of [Codec_bin.encode_tree tree]. *)

val digest_of_span : string -> off:int -> len:int -> string
(** Hex digest of a raw tree blob inside an encoded request (from
    {!Codec_bin.request_tree_span}).  Equals {!digest_of_tree} of the
    decoded tree, since the v2 tree encoding is canonical. *)

val peek : t -> string -> entry option
(** Recency-refreshing probe that leaves the hit/miss counters alone —
    for the server's dispatch thread, whose authoritative lookup
    happens later via {!obtain} on a pool worker. *)

val obtain : ?digest:string -> t -> Rctree.Tree.t -> Compile.Tape.t
(** The tape for [tree], compiling and caching on miss.  [digest]
    (default [digest_of_tree tree]) must be the tree's own digest.
    Counts the lookup in the LRU stats and on the obs counters
    [tape.hit] / [tape.miss]. *)

type stats = { entries : int; capacity : int; hits : int; misses : int }

val stats : t -> stats
(** Occupancy and lifetime counted-lookup totals ({!peek} excluded). *)
