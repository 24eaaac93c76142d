(** The varbuf-serve protocol, version {!version}: the values every
    frame carries.

    Frames ({!Wire}) carry {!Codec_bin} payloads.  On connect the
    server sends one [hello] frame whose payload is the single line
    {!hello}; a client must check it ({!check_hello}) before
    submitting.  Then, per client frame:

    - [request] → one [response] (success) or [error] frame;
    - [stats]   → one [stats] frame ({!Metrics.render} text);
    - [trace]   → one [trace] frame (Chrome trace JSON);
    - [shutdown] → one [ok] frame, after which the server drains
      in-flight requests and exits.

    Every request field except the tree has a default; [seed], [rule]
    and [mode] are explicit in the request so a response is a pure
    function of the payload — the same request is answered
    bit-identically by any server at any [--jobs] count.  Responses
    carry no wall-clock fields; latency lives in the [stats] report. *)

val version : int

val hello : string
(** The [hello] payload, ["varbuf-serve protocol <version>"]. *)

val check_hello : string -> unit
(** @raise Failure if the peer's hello names an incompatible
    protocol. *)

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
          [rule].  At most 4096. *)
  relax : float;
      (** sample-dominance relaxation forwarded to the sample engine:
          1 (the default) is exact full dominance, and below 1 a
          candidate dominated in [ceil (relax · K)] samples is dropped.
          Must lie in (0, 1] (not NaN) even when [samples = 0], where
          it is otherwise ignored; the no-pruning runs of relax > 1
          exist only in process ({!Sample.Engine.config}). *)
  btypes : int;
      (** > 0 replaces the default buffer library with the
          deterministic synthetic b-type ladder
          {!Device.Buffer.synth_library} (sizes and inverters); 0 (the
          default) keeps {!Device.Buffer.default_library}.  At most 64.
          Omitted from the encoding when 0, so historical requests keep
          their exact bytes and cache keys. *)
  objective : Bufins.Dominance.objective;
      (** power-aware optimisation objective, forwarded to whichever
          engine serves the request.  The default
          ({!Bufins.Dominance.Max_yield}) is omitted from the
          encoding, so historical requests keep their exact bytes and
          cache keys; any other value engages (load, RAT, power)
          pruning and adds a power figure to the response. *)
  eps_power : float;
      (** ε-dominance bucket width on the power axis (fJ); 0 (the
          default, omitted from the encoding) is the exact frontier.
          Must be ≥ 0; ignored under the default [objective]. *)
  tree : Rctree.Tree.t;
}

val default_request : tree:Rctree.Tree.t -> request
(** id 0, seed 1, WID, 2P(0.5, 0.5), no deadline, no MC, no wire
    sizing, no sampling ([samples = 0], [relax = 1]), default buffer
    library ([btypes = 0]), default objective
    ([objective = Max_yield], [eps_power = 0]). *)

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
(** Unknown frame kind, a corrupt frame header, or other protocol
    misuse. *)
