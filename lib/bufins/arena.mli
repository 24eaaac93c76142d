(** Per-domain scratch buffers for the DP hot path.

    One arena per domain (worker or caller), fetched with {!get}
    through domain-local storage: candidate staging, pruning key
    caches, the stable index-permutation sort and its scratch all
    borrow from it instead of allocating per node.  Buffers grow
    geometrically to the running peak and are never shrunk.

    A borrowed buffer is valid until the same domain's next borrow of
    the {e same} buffer; the disjoint buffers below may be held
    simultaneously (candidate generation stages into [stage_a]/
    [stage_b] while pruning uses the key/permutation buffers).  Pruned
    frontiers are always returned as fresh exact-size arrays, so
    arena storage never escapes into results.

    Every buffer here and in [Sample.Sarena] is one {!buf}. *)

(** {1 The growable buffer} *)

type 'a buf = private { mutable data : 'a array }
(** A scratch array that only grows: [data] is the current storage. *)

val buf : unit -> 'a buf
(** An empty buffer. *)

val grow : 'a buf -> int -> 'a -> 'a array
(** [grow b n fill] is [b]'s storage, first replaced by a fresh array
    of the next power of two ≥ max 16 [n], filled with [fill], when it
    holds fewer than [n] elements.  The old contents are not kept. *)

type counts
(** The reuse / grow counters of one arena owner. *)

val counts : string -> counts
(** [counts prefix] resolves the obs counters [<prefix>.reuse] and
    [<prefix>.grow]. *)

val borrow : counts -> 'a buf -> int -> 'a -> 'a array
(** {!grow}, counted when obs is on: a borrow that fits the storage is
    a reuse, one that reallocates is a grow. *)

(** {1 The canonical engines' arena} *)

type t

val get : unit -> t
(** The calling domain's arena.  Its borrows count as [arena.*]. *)

val load_keys : t -> int -> float array
(** A buffer of length >= n; contents unspecified. *)

val rat_keys : t -> int -> float array
val power_keys : t -> int -> float array
val perm : t -> int -> int array
val kept : t -> int -> int array

val stage_a : t -> int -> dummy:Sol.t -> Sol.t array
(** Candidate staging buffer (wired candidates); [dummy] fills any
    newly grown slots. *)

val stage_b : t -> int -> dummy:Sol.t -> Sol.t array
(** Second staging buffer (wired + buffered candidates). *)

val sort_prefix : t -> int array -> int -> cmp:(int -> int -> int) -> unit
(** [sort_prefix t idx n ~cmp] stable-sorts [idx.(0 .. n-1)] in place
    (bottom-up mergesort over the arena's scratch, which is not
    counted as a borrow).  Produces exactly the permutation
    [Array.stable_sort] would: stability plus an identical comparator
    pin which duplicate survives pruning. *)
