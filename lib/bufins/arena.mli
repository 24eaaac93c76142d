(** Per-domain scratch buffers for every engine's DP hot path.

    One arena per domain (worker or caller), fetched with {!get}
    through domain-local storage, serves the canonical, [6] and
    sampling engines: candidate staging, pruning key caches, the
    stable index-permutation sort and its scratch all borrow from it
    instead of allocating per node.  Buffers grow geometrically to the
    running peak and are never shrunk.

    A borrowed buffer is valid until the same domain's next borrow of
    the {e same} buffer; the disjoint buffers below may be held
    simultaneously (candidate generation stages into [stage_a]/
    [stage_b] while pruning uses the key/permutation buffers).  Pruned
    frontiers are always returned as fresh exact-size arrays, so
    arena storage never escapes into results. *)

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

(** {1 The arena} *)

type t

val get : unit -> t
(** The calling domain's arena.  Its borrows count as [arena.*]. *)

val load_keys : t -> int -> float array
(** A buffer of length >= n; contents unspecified.  The pruners' load
    keys, and the sample engine's per-row mean loads. *)

val rat_keys : t -> int -> float array
(** The pruners' RAT keys, and the sample engine's per-row mean RATs. *)

val power_keys : t -> int -> float array
(** Per-candidate power (fJ): the power-aware pruners' tie-break, and
    the sample engine's per-row accumulated energy. *)

val perm : t -> int -> int array
val kept : t -> int -> int array

val stage_a : t -> int -> dummy:Sol.t -> Sol.t array
(** Candidate staging buffer (wired candidates); [dummy] fills any
    newly grown slots. *)

val stage_b : t -> int -> dummy:Sol.t -> Sol.t array
(** Second staging buffer (wired + buffered candidates). *)

(** The sample engine's staging rows: stride-K row matrices of
    per-sample loads and RATs, with one choice trail per row.  Stage A
    holds wired rows; stage B the wired + buffered (or merged) rows
    handed to the pruner, whose mean and power keys sit in
    {!load_keys}, {!rat_keys} and {!power_keys}. *)

val a_load : t -> int -> float array
val a_rat : t -> int -> float array
val a_choice : t -> int -> dummy:Sol.choice -> Sol.choice array
val b_load : t -> int -> float array
val b_rat : t -> int -> float array
val b_choice : t -> int -> dummy:Sol.choice -> Sol.choice array

(** {1 The frontier sort} *)

val sort_prefix :
  t -> key:float array -> ?desc:float array -> ?tie:float array ->
  int array -> int -> unit
(** [sort_prefix t ~key ?desc ?tie ids n] stable-sorts the candidate
    ids [ids.(0 .. n-1)] in place: by [key] ascending, equal keys by
    [desc] descending, then by [tie] ascending, each read at the id and
    compared with [Float.compare].  The ids may be any subset of the
    key arrays' indices.  A bottom-up mergesort over the arena's
    scratch, which is not counted as a borrow; it produces exactly the
    permutation [Array.stable_sort] would under that comparator, and
    stability is what pins which exact duplicate survives pruning.
    @raise Invalid_argument if [n] exceeds [ids] or an id lies outside
    a given key array. *)
