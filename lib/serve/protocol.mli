(** The varbuf-serve wire protocol, version {!version}.

    Frames ({!Wire}) carry line-oriented text payloads.  On connect the
    server sends one [hello] frame whose payload begins with
    ["varbuf-serve protocol <version>"]; a client must check the
    version before submitting.  Then, per client frame:

    - [request] → one [response] (success) or [error] frame;
    - [stats]   → one [stats] frame ({!Metrics.render} text);
    - [shutdown] → one [ok] frame, after which the server drains
      in-flight requests and exits.

    A request payload is key-value lines followed by a [tree] marker
    line and the routing tree in the {!Rctree.Io} text format:

    {v
    id 3
    seed 42
    mode wid
    rule 2p
    p_l 0.5
    p_t 0.5
    deadline_ms 5000
    mc 0
    wire_sizing false
    tree
    # varbuf tree v1
    node 0 root x 500 y 500
    ...
    v}

    Every field except the tree has a default; [seed], [rule] and
    [mode] are explicit in the request so a response is a pure function
    of the payload — the same request is answered bit-identically by
    any server at any [--jobs] count.  A response payload is key-value
    result lines followed by a [buffering] marker and the chosen
    solution in the {!Bufins.Assignment} text format (responses carry
    no wall-clock fields; latency lives in the [stats] report). *)

val version : int

val version_bin : int
(** The binary payload encoding ({!Codec_bin}), negotiated per
    connection: the server's hello advertises it, and a frame that
    arrives in v2 framing is answered in kind. *)

val hello : string
(** The first hello line, ["varbuf-serve protocol <version>"]. *)

val hello_full : string
(** The full [hello] payload the server sends: {!hello} plus a
    ["protocols 1 2"] line advertising the payload encodings it
    accepts. *)

val check_hello : string -> unit
(** @raise Failure if the peer's hello names an incompatible
    protocol. *)

val supported_protocols : string -> int list
(** The encodings a hello payload advertises; [[version]] when no
    [protocols] line is present (a pre-v2 server). *)

(** {1 Requests} *)

type request = {
  id : int;  (** echoed verbatim in the response *)
  seed : int;  (** Monte-Carlo seed *)
  mode : Experiments.Common.algo;  (** nom | d2d | wid *)
  rule : Bufins.Prune.t;
  deadline_ms : int;  (** wall-clock deadline; 0 = none *)
  mc_trials : int;  (** extra Monte-Carlo evaluation; 0 = skip *)
  wire_sizing : bool;
  samples : int;
      (** > 0 routes the request to the sampling-based yield engine
          ({!Sample.Engine}) with K = [samples] process corners drawn
          from [seed]; 0 (the default) uses the canonical engine with
          [rule].  Omitted from the v1 encoding when 0, so pre-sample
          requests keep their exact historical bytes (and cache
          keys). *)
  relax : float;
      (** sample-dominance relaxation forwarded to the sample engine
          (1 = exact full dominance, > 1 = no pruning); omitted from
          the v1 encoding when 1.  Must be > 0 (not NaN) even when
          [samples = 0], where it is otherwise ignored. *)
  btypes : int;
      (** > 0 replaces the default buffer library with the
          deterministic synthetic b-type ladder
          {!Device.Buffer.synth_library} (sizes and inverters); 0 (the
          default) keeps {!Device.Buffer.default_library}.  Omitted
          from both encodings when 0, so historical requests keep
          their exact bytes and cache keys. *)
  objective : Bufins.Dominance.objective;
      (** power-aware optimisation objective, forwarded to whichever
          engine serves the request.  The default
          ({!Bufins.Dominance.Max_yield}) is omitted from both
          encodings, so historical requests keep their exact bytes and
          cache keys; any other value engages (load, RAT, power)
          Pareto pruning and adds a [power] line to the response. *)
  eps_power : float;
      (** ε-dominance bucket width on the power axis (fJ); 0 (the
          default, omitted from both encodings) is the exact
          frontier.  Must be ≥ 0; ignored under the default
          [objective]. *)
  tree : Rctree.Tree.t;
}

val default_request : tree:Rctree.Tree.t -> request
(** id 0, seed 1, WID, 2P(0.5, 0.5), no deadline, no MC, no wire
    sizing, no sampling ([samples = 0], [relax = 1]), default buffer
    library ([btypes = 0]), default objective
    ([objective = Max_yield], [eps_power = 0]). *)

val encode_request : request -> string

val decode_request : string -> request
(** @raise Failure with a line-numbered message on malformed input
    (unknown field, bad value, missing [tree] marker, or any
    {!Rctree.Io.of_string} error, prefixed with [tree]). *)

(** {1 Responses} *)

type sampled = {
  s_k : int;  (** K: sample count the engine ran with *)
  s_mean : float;  (** mean of the sampled driver-output RATs, ps *)
  s_std : float;
  s_rat_at_yield : float;
      (** the sampled (1 − yield)-quantile RAT — the measured
          counterpart of [root_yield95] *)
}
(** Sample-engine figures, present iff the request had
    [samples > 0]. *)

type response = {
  r_id : int;
  nodes : int;
  peak_candidates : int;
  total_candidates : int;
  root_mean : float;  (** mean root RAT under the full model, ps *)
  root_std : float;
  root_yield95 : float;  (** the paper's 95%-yield RAT *)
  sampled : sampled option;
  mc : (float * float) option;  (** Monte-Carlo (mean, std) if requested *)
  r_power : float option;
      (** accumulated buffer energy (fJ) of the chosen assignment —
          present iff the request's [objective] was power-aware, so
          default responses keep their exact historical bytes *)
  assignment : Bufins.Assignment.t;
}

val encode_response : response -> string
(** Deterministic: floats printed with ["%.17g"] so
    {!decode_response} round-trips exactly and equal results encode to
    equal bytes. *)

val decode_response : string -> response
(** @raise Failure with a line-numbered message on malformed input. *)

(** {1 Errors} *)

type error = { code : string; message : string }

val err_parse : string
(** The request payload did not parse. *)

val err_too_large : string
(** The request frame exceeded the server's size limit. *)

val err_busy : string
(** The bounded request queue is full (or the server is draining). *)

val err_deadline : string
(** The deadline expired (in queue or mid-optimisation). *)

val err_internal : string
(** The optimiser failed unexpectedly. *)

val err_proto : string
(** Unknown frame kind or other protocol misuse. *)

val encode_error : error -> string
val decode_error : string -> error
(** Tolerant: missing fields decode to ["internal"] / [""]. *)
