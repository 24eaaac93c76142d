(** The sampling-based yield engine (Zhang/Li/Schlichtmann, PAPERS.md).

    Runs the same bottom-up buffer-insertion DP as {!Bufins.Engine},
    but evaluates every candidate on a shared matrix of K Monte-Carlo
    process samples ({!Matrix}) instead of propagating canonical
    normal forms: a candidate's load and RAT are K-vectors — its exact
    Elmore values under each sampled process corner — so the engine
    {e measures} timing yield rather than assuming joint normality.

    The frontier is pruned by per-sample dominance counting: candidate
    A is dropped when some competitor ties-or-beats it (load ≤, RAT ≥)
    in at least [ceil(relax · K)] samples.  At [relax = 1] (the
    default) this is exact — a fully dominated candidate can never be
    the per-sample optimum, so the kept frontier's per-sample best
    root RAT is bit-identical to the unpruned brute force
    ([relax > 1], which disables pruning).  [relax < 1] prunes more
    aggressively at the cost of that guarantee.

    Output (assignment, per-sample root RATs, sampled yield figures)
    is byte-identical at any job count and with observability on or
    off: the sample matrix depends only on (seed, source id, K), the
    device-id binding and merge order are the canonical engine's
    ({!Bufins.Driver}), and the pruning sweep is a stable sort plus a
    deterministic scan. *)

type config = {
  tech : Device.Tech.t;
  library : Device.Buffer.t array;
  wires : Device.Wire_lib.t array;
  samples : int;  (** K: Monte-Carlo samples per candidate *)
  seed : int;  (** seed of the shared sample matrix *)
  relax : float;
      (** dominance threshold as a fraction of K: drop a candidate
          dominated in ≥ ceil(relax · K) samples.  1 = exact full
          dominance; > 1 disables pruning (brute force); < 1 prunes
          approximately. *)
  yield : float;
      (** yield level scored at the root: the best candidate maximises
          the (1 − yield)-quantile of its sampled driver-output RAT *)
  budget : Bufins.Engine.budget;
  load_limit : float option;
      (** same mean-load drive constraint as the canonical engine,
          applied to sample means *)
  power_objective : Bufins.Dominance.objective;
      (** power-aware request objective.  The default
          ({!Bufins.Dominance.Max_yield}) is the historical engine —
          the power axis is carried but never compared.  [Min_power] /
          [Weighted] conjoin {!Bufins.Dominance.power_le} into the
          per-sample dominance test (a (load, RAT, power) Pareto
          frontier) and change the root scalarisation. *)
  eps_power : float;
      (** ε-dominance bucket width for the power axis; 0 (default) is
          the exact frontier.  Only read under a power-aware
          [power_objective].  Each library type's energy is
          {!Device.Buffer.energies}'s. *)
}

val default_config :
  ?samples:int ->
  ?seed:int ->
  ?relax:float ->
  ?yield:float ->
  ?wire_sizing:bool ->
  unit ->
  config
(** 65 nm tech, the default buffer library, [samples = 256],
    [seed = 1], [relax = 1], [yield = 0.95], no budget.  Each lift
    stages every drivable wired × type row before the prune.  A library mixing repeaters and inverters is handled
    with the same dual-polarity frontiers as the canonical engine:
    merges match inversion parity and the root selects among
    even-parity candidates only.
    @raise Invalid_argument on non-positive [samples] or [relax], or
    [yield] outside (0, 1). *)

type sol = {
  load : float array;  (** per-sample downstream capacitance, fF *)
  rat : float array;  (** per-sample required arrival time, ps *)
  power : float;
      (** accumulated buffer energy, fJ — exact (deterministic per
          assignment), not sampled *)
  choice : Bufins.Sol.choice;
}

type result = {
  best : sol;  (** chosen root candidate (pre-driver samples) *)
  root_rat : float array;
      (** per-sample RAT at the driver input of [best]:
          rat − R_drv · load, sample by sample *)
  root_best_per_sample : float array;
      (** per-sample maximum of the driver-output RAT over the whole
          (compliant) root frontier — the quantity full dominance
          pruning provably preserves, exposed for the brute-force
          comparison test *)
  buffers : (int * Device.Buffer.t) list;
  widths : (int * Device.Wire_lib.t) list;
  sampled_mean : float;  (** mean of [root_rat] *)
  sampled_std : float;  (** sample std of [root_rat] *)
  rat_at_yield : float;
      (** the (1 − yield)-quantile of [root_rat] — the sampled
          counterpart of {!Sta.Yield.rat_at_yield} *)
  load_limit_met : bool;
  stats : Bufins.Engine.stats;
}

val default_grain : int

val run_tape :
  ?pool:Exec.Pool.t ->
  ?grain:int ->
  config ->
  model:Varmodel.Model.t ->
  Compile.Tape.t ->
  result
(** Optimise a compiled net ({!Compile.Tape.compile}) on K sampled
    process corners.  Scheduling, budgets and the device-id binding
    are {!Bufins.Driver}'s, exactly as in {!Bufins.Engine.run_tape};
    the model's variation mode filters which sources the samples see,
    so a [Nom] model makes every sample identical.  The model must be
    fresh: binding consumes its device ids.
    @raise Bufins.Engine.Budget_exceeded when the configured budget
    trips (the same exception, so serve's deadline mapping applies
    unchanged). *)

(** {1 Kernels}

    Exposed so tests can hold them to naive references bit for bit. *)

val sample_dominates :
  k:int -> need:int -> load:float array -> rat:float array -> int -> int -> bool
(** [sample_dominates ~k ~need ~load ~rat j i]: row [j] of the
    K-strided blocks [load] / [rat] ties-or-beats row [i]
    ([load <=], [rat >=]) in at least [need] of the K samples — the
    pruner's per-sample dominance test, with its early exits.
    @raise Invalid_argument unless [1 <= need <= k] and both rows lie
    inside both blocks. *)

val merge_min : float -> float -> float
(** The merge's per-sample RAT min: equal to [Float.min] on every
    input, ±0 ties and NaN included. *)

val run :
  ?pool:Exec.Pool.t ->
  ?grain:int ->
  config ->
  model:Varmodel.Model.t ->
  Rctree.Tree.t ->
  result
(** [run_tape] on [Compile.Tape.compile tree]. *)
