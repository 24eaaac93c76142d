(** What is left of the worker's compiled-tape cache: nothing caches
    tapes any more.  A tape compiles in about the time it takes to
    digest the tree's bytes, so a cache keyed by that digest could not
    pay for itself, and every request compiles its own tape.  These
    names stay only because the served-request benchmark
    ([bench/e2e]) calls them; they go at its next change. *)

type t
(** Carries nothing. *)

val create : entries:int -> t
(** Ignores [entries]; kept for {!Handler.run}'s ignored [?tapes]. *)

val digest_of_span : string -> off:int -> len:int -> string
(** Hex MD5 of a raw tree blob inside an encoded request (from
    {!Codec_bin.request_tree_span}); the benchmark times it as the
    router's digest, which is now {!Codec_bin.request_key}'s. *)
