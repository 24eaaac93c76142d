(** Registry of named atomic counters and histograms.

    Counters are [int Atomic.t] handles: any domain may bump one
    without locking.  Handle lookup ({!counter}) takes the registry
    mutex, so hot call sites resolve their handles once (at module
    initialisation — [Lazy] is not domain-safe) and use {!incr}
    afterwards.  Histograms ({!Numeric.Histogram}) are guarded by a
    per-histogram mutex and track exact sum and max alongside the
    binned counts.

    Per-domain registries can be folded together with {!merge_into};
    because counter addition and {!Numeric.Histogram.merge} are both
    associative and commutative, the merged totals are independent of
    domain count and merge order. *)

type t
(** A registry. *)

type counter = int Atomic.t

val create : unit -> t

val global : t
(** The process-wide registry every built-in instrumentation site
    records into. *)

val counter : t -> string -> counter
(** The named counter's handle, created at zero on first use.  Takes
    the registry mutex; resolve once and keep the handle on hot
    paths. *)

val incr : counter -> int -> unit
(** Atomically add to a counter handle. *)

val add : t -> string -> int -> unit
(** [add t name n] = [incr (counter t name) n] — lookup plus bump, for
    cold call sites. *)

val get : t -> string -> int
(** Current value, 0 if the counter was never touched. *)

val latency_histogram : unit -> Numeric.Histogram.t
(** A fresh histogram with the latency binning, in milliseconds:
    {!Numeric.Histogram.create_log} from 0.01 ms to 100 s in 120 bins,
    each 14.4% wider than the one before, so a percentile read from it
    is within 15% of the sample's.  A 0 ms sample counts in the first
    bin.  The serve [stats] latency lines use it, and so does every
    {!observe} histogram created without explicit bins. *)

val observe :
  t -> string -> ?lo:float -> ?hi:float -> ?bins:int -> float -> unit
(** Record a sample into the named histogram, creating it on first use:
    with [bins] equal-width bins over [lo, hi) when all three are
    given, with {!latency_histogram}'s binning when none is.  The
    binning arguments are ignored once the histogram exists.
    @raise Invalid_argument when the histogram is new and only some of
    [lo], [hi] and [bins] are given. *)

type hist_stats = {
  count : int;
  mean : float;  (** exact (running sum / count), 0 when empty *)
  max_value : float;  (** largest sample seen, 0 when empty *)
}

val counter_values : t -> (string * int) list
(** All counters, sorted by name. *)

val hist_values : t -> (string * hist_stats) list
(** All histograms, sorted by name. *)

val merge_into : into:t -> t -> unit
(** Fold [src]'s counters and histograms into [into] (summing counts,
    merging bins, combining sums and maxima).  Histograms present in
    both registries must share their binning.  Not safe to run
    concurrently with another [merge_into] over the same registries in
    the opposite direction. *)

val reset : t -> unit
(** Zero every counter and empty every histogram {e in place}:
    previously resolved handles stay valid. *)
