(** Fixed-bin histograms: equal-width bins render the paper's PDF
    comparison figures (Fig. 3 and Fig. 6) as printable series;
    constant-ratio bins carry latency distributions (the serving
    stats' and the observability layer's). *)

type t

val create : lo:float -> hi:float -> bins:int -> t
(** [create ~lo ~hi ~bins] makes an empty histogram of [bins] equal
    bins over [lo, hi).  Samples outside the range are counted in the
    outermost bins so no mass is silently lost.
    @raise Invalid_argument if [bins <= 0] or [hi <= lo]. *)

val create_log : lo:float -> hi:float -> bins:int -> t
(** [create_log ~lo ~hi ~bins] makes an empty histogram of [bins] bins
    of equal width in [log x] over [lo, hi): bin [i] spans
    [lo·r{^i}, lo·r{^i+1}) with [r = (hi/lo){^1/bins}], so every bin
    is the same fraction wider than its lower edge.  Samples below
    [lo] (0 and negatives included) count in the first bin, samples
    at or above [hi] in the last.
    @raise Invalid_argument if [bins <= 0] or unless [0 < lo < hi]. *)

val empty_like : t -> t
(** [empty_like h] is a fresh, empty histogram with [h]'s binning. *)

val of_samples : ?bins:int -> float array -> t
(** [of_samples xs] builds a histogram spanning the sample range,
    slightly widened; [bins] defaults to the square root of the sample
    size clamped to [10, 100].
    @raise Invalid_argument on an empty sample. *)

val merge : t -> t -> t
(** [merge a b] is a fresh histogram whose bins hold the per-bin sums
    of [a] and [b] (neither input is modified).  Bin counts are summed
    independently, so merging is associative and commutative — the
    property per-domain observability registries rely on when folding
    into one.
    @raise Invalid_argument unless both histograms share the same
    scale, range and bin count. *)

val add : t -> float -> unit
val total : t -> int
val bins : t -> int

val bin_center : t -> int -> float
(** The bin's midpoint: arithmetic on a linear scale, geometric on a
    log scale. *)

val bin_count : t -> int -> int

val bin_density : t -> int -> float
(** [bin_density h i] is the normalised density of bin [i]: counts
    divided by (total * bin width), so the histogram integrates to 1
    and is directly comparable to a PDF. *)

val density_series : t -> (float * float) array
(** All (bin center, density) pairs, in increasing x order. *)

val percentile : t -> float -> float
(** [percentile h p] estimates the [p]-quantile ([p] in [0, 1]) of the
    recorded samples: a cumulative walk to the bin holding the
    nearest-rank sample, interpolated within the bin (in [log x] on a
    log scale).  The estimate is exact to within the width of that
    bin; on a log scale that is a fixed fraction of the value, which
    is what the serving-latency p50/p95/p99 lines in {!Serve.Metrics}
    rely on.  Samples clamped into an outer bin are reported inside
    it.
    @raise Invalid_argument if the histogram is empty or [p] is outside
    [0, 1]. *)
