(** Service counters and latency distribution, served by the [stats]
    request.

    Counters are {!Atomic} so any domain may record; the latency
    histogram ({!Numeric.Histogram}) is guarded by a private mutex.
    {!render} is the text payload of the [stats] frame — line-oriented
    key-value pairs, one bucket line per non-empty latency decade. *)

type t

val create : unit -> t
(** Fresh metrics; the latency histogram has
    {!Obs.Counters.latency_histogram}'s log-scale bins, 0.01 ms to
    100 s, each under 15% wide (samples beyond either end are clamped
    into the outermost bins, so no request is ever lost from the
    distribution). *)

val conn_opened : t -> unit
val conn_closed : t -> unit

val request_ok : t -> latency_ms:float -> unit
(** A successful response; [latency_ms] is queue wait + execution.
    This is the {e only} entry point feeding the latency
    distribution. *)

val request_error : t -> code:string -> unit
(** An [error] response, by {!Protocol} error code.  Errors bump the
    request/error counters but never enter the latency
    distribution. *)

val cache_hit : t -> unit
(** A request answered from the front's response cache ({!Front}). *)

val cache_miss : t -> unit
(** A request the front's cache could not answer, once its owner
    admitted it (queued it for the optimiser or a worker); a miss
    refused [busy] is not counted. *)

val request_kind : t -> kind:string -> unit
(** A client frame arrived, by frame kind ([request], [stats], …), so
    shard dashboards see the traffic mix without post-processing. *)

val render : t -> string
(** {v
    uptime_s 12.3
    connections 1
    connections_total 4
    requests 7
    ok 5
    errors 2
    cache_hits 1
    cache_misses 4
    cache_hit_ratio 0.2000
    error_parse 1
    error_deadline 1
    kind_request 7
    kind_stats 1
    latency_ms_count 5
    latency_ms_mean 41.3
    latency_ms_max 80.1
    latency_ms_p50 36.2
    latency_ms_p95 80.1
    latency_ms_p99 80.1
    latency_ms_bucket 1 1
    latency_ms_bucket 10 4
    v}
    [cache_hit_ratio] is hits / (hits + misses), printed only once the
    cache has been consulted at least once.  [error_<code>] lines
    appear only for codes seen, [kind_<kind>] lines only for frame
    kinds seen; the mean/max/percentile and bucket lines only once at
    least one ok response was recorded.  The percentiles are read from
    {!Obs.Counters.latency_histogram}'s bins, so each is within 15% of
    the exact sample quantile, and capped at [latency_ms_max].  A
    [latency_ms_bucket LO N] line says N responses took [LO] to
    [10·LO] ms, for each non-empty decade from 0.01 ms (the first also
    holds anything faster, the last, from 10 s, anything slower).  Every [latency_ms_*] line covers
    successful (ok) responses only — errors are counted in [errors]
    and [error_<code>] but excluded from the latency distribution, so
    [latency_ms_count] equals [ok], not [requests].  The exact key
    sequence above is a contract (the serve test suite asserts it),
    keyed on by shard dashboards.

    When observability is enabled ({!Obs.Control.on}), the global
    {!Obs.Counters} registry is appended as [obs_<name> <value>] lines
    for counters and [obs_<name>_count/_mean/_max] triples for
    histograms — including the server's [serve.queue_wait_ms] vs
    [serve.exec_ms] split and the DP's per-rule candidate totals. *)
