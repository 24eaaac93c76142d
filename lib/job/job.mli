(** One optimisation job as the paper judges it: run an optimiser
    (NOM/D2D/WID under a pruning rule, or the sampling-based yield
    engine), evaluate the chosen buffering's canonical root RAT under
    the {e full} WID model, then optionally run Monte Carlo.  {!run} is
    that pipeline: [Serve.Handler] and [bufferins] reach an engine only
    through it, and the [Experiments] harnesses share its setup and
    engine calls.  Everything runs in the §5.1 setup. *)

type setup = {
  library : Device.Buffer.t array;
  budget : Varmodel.Model.budget;
  mc_trials : int;  (** Monte-Carlo sample count; 0 skips the MC stage *)
  pool : Exec.Pool.t option;
      (** When set, Monte-Carlo chunks, DP subtree tasks and experiment
          cells run across its domains.  Results are identical with or
          without it. *)
}

val default_setup : setup
(** The paper's §5.1 numbers: the default three-buffer library, the
    5%/5%/5% budget, 2000 MC trials, no pool (sequential). *)

val tech : Device.Tech.t
(** The 65 nm technology every engine and evaluation runs with. *)

val grid : die_um:float -> Varmodel.Grid.t
(** The §5.1 spatial grid over a square die of that side: 500 µm
    pitch, 2 mm correlation range. *)

val die_for_sinks : int -> float
(** Die side (µm) for a generated net of that many sinks:
    [max 4000 (400·√sinks)]. *)

val die_of_tree : Rctree.Tree.t -> float
(** Die side (µm) for a net that arrives without one: the bounding
    square of its node positions, at least 4000 µm, rounded up to the
    500 µm grid. *)

type algo = Varmodel.Model.mode = Nom | D2d | Wid
(** The three §5.3 algorithms are the variation model's three modes. *)

val algo_name : algo -> string

val algo_of_string : string -> (algo, string) result
(** ["nom"], ["d2d"] or ["wid"]; the error names the three. *)

val rule_of_string :
  ?others:string list -> p:float -> string -> (Bufins.Prune.t, string) result
(** ["det"], ["2p"] (p_L = p_T = [p]), ["1p"] (α = 0.95) or ["4p"].
    The error lists those spellings, then [others] (names a caller
    handles before calling, such as bufferins's ["sample"]); for
    ["2p"] with [p] outside [0.5, 1] (or NaN) it names that range. *)

val run_algo :
  setup ->
  ?rule:Bufins.Prune.t ->
  ?budget:Bufins.Engine.budget ->
  ?wire_sizing:bool ->
  ?load_limit:float ->
  ?objective:Bufins.Dominance.objective ->
  ?eps_power:float ->
  ?tape:Compile.Tape.t ->
  spatial:Varmodel.Model.spatial_kind ->
  grid:Varmodel.Grid.t ->
  algo ->
  Rctree.Tree.t ->
  Bufins.Engine.result
(** Optimise with one of the three §5.3 algorithms.  [rule] defaults to
    the deterministic rule for [Nom] and 2P(0.5, 0.5) otherwise;
    [wire_sizing] (default false) enables the 3-width wire library;
    [load_limit] forwards the engine's slew-style constraint;
    [objective] / [eps_power] (default [Max_yield] / 0 = the
    historical engine) forward the power-aware objective.  [tape], a
    {!Compile.Tape.compile} of the same tree, skips compiling it again
    (the served-request benchmark's traced pass times the compile on
    its own and passes the tape); the result is the same bytes. *)

val run_sampled :
  setup ->
  ?budget:Bufins.Engine.budget ->
  ?wire_sizing:bool ->
  ?load_limit:float ->
  samples:int ->
  ?relax:float ->
  ?seed:int ->
  ?objective:Bufins.Dominance.objective ->
  ?eps_power:float ->
  ?tape:Compile.Tape.t ->
  spatial:Varmodel.Model.spatial_kind ->
  grid:Varmodel.Grid.t ->
  algo ->
  Rctree.Tree.t ->
  Sample.Engine.result
(** Optimise with the sampling-based yield engine ({!Sample.Engine}) on
    [samples] Monte-Carlo process corners drawn from [seed]
    (default 1).  The variation mode comes from [algo] exactly as in
    {!run_algo}; [relax] (default 1 = exact full dominance) scales the
    per-sample dominance threshold; [objective] / [eps_power] forward
    the power-aware objective as in {!run_algo}.  [tape] behaves as in
    {!run_algo}. *)

val evaluate :
  setup ->
  spatial:Varmodel.Model.spatial_kind ->
  grid:Varmodel.Grid.t ->
  Rctree.Tree.t ->
  ?widths:(int * Device.Wire_lib.t) list ->
  (int * Device.Buffer.t) list ->
  Linform.t
(** Canonical root-RAT form of a buffered tree under the {e full} WID
    model — the common yardstick all three algorithms are judged by. *)

val instance_for :
  setup ->
  spatial:Varmodel.Model.spatial_kind ->
  grid:Varmodel.Grid.t ->
  Rctree.Tree.t ->
  ?widths:(int * Device.Wire_lib.t) list ->
  (int * Device.Buffer.t) list ->
  Sta.Buffered.instance
(** Same instantiation as {!evaluate}, exposed for Monte-Carlo use. *)

(** {1 The pipeline} *)

type engine =
  | Canonical of Bufins.Prune.t  (** {!run_algo} under that rule *)
  | Sampled of { samples : int; relax : float }
      (** {!run_sampled} on [samples] corners at that relaxation *)

type outcome = {
  assignment : Bufins.Assignment.t;  (** the chosen buffers and wire widths *)
  stats : Bufins.Engine.stats;
  load_limit_met : bool;
  power : float;  (** buffer energy (fJ) of the chosen root candidate *)
  sampled : (float * float * float) option;
      (** a [Sampled] run's driver RAT (mean, std, RAT at yield), ps *)
  form : Linform.t;  (** root RAT under the full WID model ({!evaluate}) *)
  mc : Numeric.Stats.summary option;  (** [None] when [mc_trials = 0] *)
}

val run :
  setup ->
  ?deadline_s:float ->
  ?wire_sizing:bool ->
  ?load_limit:float ->
  ?objective:Bufins.Dominance.objective ->
  ?eps_power:float ->
  spatial:Varmodel.Model.spatial_kind ->
  seed:int ->
  die_um:float ->
  engine ->
  algo ->
  Rctree.Tree.t ->
  outcome
(** Optimise the tree on {!grid} [~die_um] with [engine] in [algo]'s
    mode, evaluate the chosen buffering with {!evaluate}, and run
    [setup.mc_trials] Monte-Carlo trials of it seeded by [seed] (which
    also seeds a [Sampled] engine's sample matrix).  Each stage binds
    a fresh variation model.

    [deadline_s] (default: none) is the engine's wall-clock budget and
    is also checked before the Monte-Carlo stage and between its chunks
    of 64 trials; a non-positive value trips at once.  A run that
    finishes is bit-identical to one without a deadline.
    @raise Bufins.Engine.Budget_exceeded when the deadline trips. *)
