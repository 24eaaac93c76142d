(** Request execution: the in-process library call behind the daemon.

    {!run} is a pure function of the request (the response carries no
    wall-clock fields), so the bytes of
    [Codec_bin.encode_response (run req)] are identical whether the
    request is answered here, by a server at [--jobs 1], or by a server
    at [--jobs 8] — the determinism the protocol promises.  The server
    runs every request its response cache misses through this module;
    tests and the served-request benchmark call it directly and compare
    bytes. *)

val die_of_tree : Rctree.Tree.t -> float
(** {!Experiments.Common.die_of_tree}: the die a request's net is
    optimised on.  Exported because the served-request benchmark
    ([bench/e2e]) mirrors the handler's configuration with it. *)

val run :
  ?pool:Exec.Pool.t ->
  ?tapes:Tapes.t ->
  ?tape_digest:string ->
  ?deadline_s:float ->
  Protocol.request ->
  Protocol.response
(** Optimise the request's tree with its mode/rule, evaluate the
    solution under the full WID model, and (if [mc > 0]) run the
    Monte-Carlo evaluation seeded by the request's [seed].

    [deadline_s] (default: from the request's [deadline_ms]) is mapped
    onto the engine's wall-clock budget and also bounds the
    Monte-Carlo stage, checked before it starts and between its chunks
    of 64 trials; a non-positive value trips immediately.  [pool] parallelises the Monte-Carlo stage and the
    DP's subtree tasks.

    [tapes] and [tape_digest] are accepted and ignored: the tape is
    compiled on every call.  They stay only because the served-request
    benchmark ([bench/e2e]) still passes them, and go at its next
    change.

    @raise Bufins.Engine.Budget_exceeded when the deadline trips. *)
