(** Reproduction of reference [6]'s probabilistic buffer insertion
    (Khandelwal, Davoodi, Nanavati, Srivastava, ICCAD 2003): the
    related-work baseline the paper contrasts with in §1.

    [6] models {e wire-length} variation (each segment's manufactured
    length deviates from the drawn length), represents solution metrics
    as discretised distributions, assumes {e independence} between
    solutions ("it was assumed that there was no correlation between
    different solutions"), and prunes with heuristic rules, none of
    which bounds the algorithm's complexity.  This module mirrors that
    design over {!Numeric.Pmf}:

    - each wire's length is [l·(1 + δ)] with δ discretised from
      N(0, length_frac²);
    - loads and RATs are independent PMFs combined by convolution and
      [min];
    - three heuristic pruning rules are provided — mean dominance,
      percentile dominance, and first-order stochastic dominance.

    The contrast with the paper's approach is the point: no correlation
    tracking (so merges are pessimistic/optimistic at random) and no
    complexity guarantee (the PMF supports and candidate lists both
    need capping). *)

type heuristic =
  | Mean_dominance         (** E[L], E[T] ordering — the cheapest rule *)
  | Percentile_dominance of float
      (** order by the given percentile of L and T *)
  | Stochastic_dominance
      (** full first-order stochastic dominance on both metrics *)

val heuristic_name : heuristic -> string

type config = {
  tech : Device.Tech.t;
  library : Device.Buffer.t array;
  heuristic : heuristic;
  length_frac : float;  (** sigma of wire-length variation / drawn length *)
  pmf_points : int;     (** discretisation points for each δ (default 5) *)
  budget : Engine.budget;
}

val default_config : ?heuristic:heuristic -> ?length_frac:float -> unit -> config
(** 65 nm tech, default library, stochastic dominance, 5% length
    variation, 5-point discretisation, no budget.  Each insertion site
    builds every wired × type candidate before the prune.  A library
    mixing repeaters and inverters is handled with the same
    dual-polarity frontiers as {!Engine}: merges match inversion parity
    and the root selects among even-parity candidates only. *)

type result = {
  rat_mean : float;       (** mean of the root RAT PMF (after driver) *)
  rat_std : float;
  rat_p05 : float;        (** 5th percentile: the 95%-yield RAT *)
  buffers : (int * Device.Buffer.t) list;
  peak_candidates : int;
  runtime_s : float;  (** wall-clock seconds, comparable to engine stats *)
}

val run_tape :
  ?pool:Exec.Pool.t -> ?grain:int -> config -> Compile.Tape.t -> result
(** Run the probabilistic DP over a compiled net
    ({!Compile.Tape.compile}).  {!Driver.run} schedules it over [pool]
    and [grain]; the DP is model-free, so it needs no binding and the
    result is identical at any job count.
    @raise Engine.Budget_exceeded when the configured budget trips. *)

val run :
  ?pool:Exec.Pool.t -> ?grain:int -> config -> Rctree.Tree.t -> result
(** [run_tape] on [Compile.Tape.compile tree]. *)
