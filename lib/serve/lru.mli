(** Bounded least-recently-used map from string keys, shared by the
    response cache ({!Cache}) and the compiled-tape cache ({!Tapes}).

    Recency is a logical clock; eviction scans for the oldest stamp
    (O(capacity), deliberate — see the implementation note).
    Thread-safe: every operation takes the instance's mutex. *)

type 'a t

val create : capacity:int -> 'a t
(** @raise Invalid_argument if [capacity < 1]. *)

val find : 'a t -> string -> 'a option
(** Lookup; a hit refreshes recency.  Counts towards {!hits}/{!misses}. *)

val put : 'a t -> string -> 'a -> unit
(** Insert, evicting the least-recently-used entry at capacity.
    Re-putting an existing key only refreshes its recency (the stored
    value is kept — entries are pure functions of their key). *)

type stats = { entries : int; capacity : int; hits : int; misses : int }

val stats : 'a t -> stats
(** Occupancy and lifetime {!find} totals, read under one lock. *)

val length : 'a t -> int
val capacity : 'a t -> int
val hits : 'a t -> int
val misses : 'a t -> int
