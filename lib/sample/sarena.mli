(** Per-domain scratch buffers for the sample engine, each a
    {!Bufins.Arena.buf}: stride-K row matrices for wired and candidate
    staging, per-row mean keys, choice trails, and the pruning sweep's
    permutation / kept / mergesort scratch.  Buffers are valid for the
    duration of one lift / merge / prune call on the borrowing
    domain. *)

type t

val get : unit -> t
(** The calling domain's arena ({!Domain.DLS}).  Its borrows count as
    [sample.arena.*]. *)

val a_load : t -> int -> float array
val a_rat : t -> int -> float array
val a_choice : t -> int -> dummy:Bufins.Sol.choice -> Bufins.Sol.choice array
val b_load : t -> int -> float array
val b_rat : t -> int -> float array
val b_choice : t -> int -> dummy:Bufins.Sol.choice -> Bufins.Sol.choice array

val b_power : t -> int -> float array
(** Per-row accumulated buffer energy (fJ) staged alongside the B rows
    — the power axis of the power-aware pruning sweep. *)

val mean_load : t -> int -> float array
val mean_rat : t -> int -> float array
val kept : t -> int -> int array

val sort_prefix : t -> int -> power_aware:bool -> int array
(** [sort_prefix t n ~power_aware] is the pruner's frontier order of
    the [n] rows staged in [t]: the arena's permutation buffer, whose
    first [n] entries are [0 .. n-1] stably sorted by mean load
    ascending, then mean RAT descending, then — when [power_aware] —
    B-stage power ascending, each compared with [Float.compare].  The
    same permutation as [Array.stable_sort] under that comparator.
    @raise Invalid_argument if fewer than [n] keys are staged. *)
