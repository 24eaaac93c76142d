(** Request execution: the in-process library call behind the daemon.

    {!run} is a pure function of the request (the response carries no
    wall-clock fields), so the bytes of
    [Protocol.encode_response (run req)] are identical whether the
    request is answered here, by a server at [--jobs 1], or by a server
    at [--jobs 8] — the determinism the protocol promises.  The server
    routes every request through this module; tests call it directly
    and compare bytes. *)

val die_of_tree : Rctree.Tree.t -> float
(** Grid-aligned bounding square of a net, for trees that arrive
    without die metadata (same convention as the CLIs). *)

val run :
  ?pool:Exec.Pool.t ->
  ?cache:Cache.t ->
  ?tapes:Tapes.t ->
  ?tape_digest:string ->
  ?metrics:Metrics.t ->
  ?deadline_s:float ->
  Protocol.request ->
  Protocol.response
(** Optimise the request's tree with its mode/rule, evaluate the
    solution under the full WID model, and (if [mc > 0]) run the
    Monte-Carlo evaluation seeded by the request's [seed].

    [deadline_s] (default: from the request's [deadline_ms]) is mapped
    onto the engine's wall-clock budget; a non-positive value trips
    immediately — even when the answer sits in the cache.  [pool]
    parallelises the Monte-Carlo stage and the DP's subtree tasks.

    [cache] answers repeated payloads from memory: the key zeroes the
    request's [id] and [deadline_ms] (see {!Cache.key_of_request}), a
    hit rewrites [r_id] to the incoming id, and only successful
    results are stored — deadline trips are never cached.  [metrics]
    records hits and misses (only consulted when [cache] is given).

    [tapes] caches the request's compiled tape ({!Tapes.obtain}), so
    repeated topologies skip compiling it; without it the DP compiles
    the tree itself, and the result is byte-identical either way.
    [tape_digest] (from {!Tapes.digest_of_span}) lets the caller skip
    re-digesting the tree.  The tape cache is consulted only when the
    DP actually runs — a response-cache hit bypasses it.

    @raise Bufins.Engine.Budget_exceeded when the deadline trips. *)
