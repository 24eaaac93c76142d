(** The dynamic-programming buffer-insertion engine (§2, §4).

    One engine serves every algorithm in the paper: the variation mode
    comes from the {!Varmodel.Model.t} (NOM = all sensitivities
    dropped, D2D = random + inter-die, WID = everything), and the
    dominance relation from the {!Prune.t} rule.  Candidates are
    propagated bottom-up with the variation-aware key operations of
    §4.2 (Eq. 33-38): wire lift, buffer insertion at the upstream end
    of each edge (one legal position per edge), and subtree merging
    with the tightness-probability statistical minimum.

    Linear rules use the sorted linear merge of Fig. 1 (at most
    [n + m - 1] combinations); the 4P rule must enumerate the full
    [n × m] cross product and prune pairwise, which is what blows it up
    in Table 2 — a {!budget} turns that blow-up into a clean
    {!Budget_exceeded} instead of an out-of-memory. *)

type budget = Driver.budget = {
  max_candidates : int option;
      (** cap on any per-node candidate list (checked after pruning and
          on 4P cross products before pruning) *)
  max_seconds : float option;
      (** wall-clock cap for the whole run (CPU time would sum over
          domains and trip early under parallel load) *)
}

val no_budget : budget

(** How the insert-site step generates buffered candidates.

    [Convex_auto] (the default) applies the O(bn²) per-type
    selection: for each buffer type, every candidate buffered at a
    site shares one load form, so under a rule whose dominance is a
    pure mean comparison ({!Prune.mean_exact} — the deterministic rule
    and 2P(0.5, 0.5)) only the type's (buffered mean RAT, power
    bucket) staircase ({!Dominance.staircase}) can survive pruning,
    and only those rows are generated.  Under [Max_yield] every row
    shares one bucket, so that is the single wired candidate
    maximising the buffered mean RAT and the frontier fed to the
    pruner is [n + b] instead of [n + n·b]; under a power-aware
    objective it is each type's cheaper-and-slower rows that no
    same-type row beats on both axes.  The selection computes the
    buffered mean and power bit-exactly and keeps the row the pruner's
    stable sort would keep among ties, so the pruned frontier (and
    every output byte) is identical to exhaustive generation; it
    engages only when the rule is mean-exact and the library's input
    caps are pairwise distinct, and silently falls back to exhaustive
    generation otherwise (1P, 4P, 2P with p̄ > 0.5).

    [Exhaustive] always generates the full wired × type product — the
    brute-force reference the selection is tested against. *)
type insertion = Convex_auto | Exhaustive

type config = {
  tech : Device.Tech.t;
  library : Device.Buffer.t array;
  wires : Device.Wire_lib.t array;
      (** wire-width options per edge; index 0 must be the technology's
          minimum width.  A singleton library means pure buffer
          insertion; more entries enable simultaneous buffer insertion
          and wire sizing (the companion study of reference [8]). *)
  rule : Prune.t;
  budget : budget;
  load_limit : float option;
      (** optional slew-style constraint: the maximum (mean) capacitance
          any buffer or the driver may drive, in fF.  Buffered
          candidates violating it are not generated, and the root
          candidate is chosen among compliant ones (falling back to all
          candidates if none comply — reported via
          {!result.load_limit_met}). *)
  insertion : insertion;
  power_objective : Dominance.objective;
      (** power-aware request objective.  The default
          ({!Dominance.Max_yield}) is the historical engine: the power
          axis is carried but never compared, pruning is the total
          order of [rule] alone, and every output byte matches the
          pre-power engine.  [Min_power] / [Weighted] switch pruning to
          the (load, RAT, power) Pareto frontier ({!Prune.prune_sub}
          with [~eps:eps_power]), widen the [Convex_auto] insert
          step from each type's best-timing row to its (RAT, power)
          staircase, and change the root scalarisation — see
          {!Dominance.objective}.  The 4P rule takes none of them:
          {!run_tape} raises [Invalid_argument]. *)
  eps_power : float;
      (** ε-dominance knob for the power axis ({!Dominance.power_le}),
          [>= 0]: 0 (the default) is the exact Pareto frontier; larger
          values merge power buckets of width ε and bound the frontier.
          Only read under a power-aware [power_objective]. *)
  energies : float array option;
      (** per-type energies (fJ) indexed like [library]; [None] (the
          default) derives them with {!Device.Buffer.energies}.
          [test_btypes]' ε = 0 zero-energy identity overrides with
          zeros. *)
}

val default_config : ?rule:Prune.t -> ?wire_sizing:bool -> unit -> config
(** 65 nm tech, the default 3-buffer library, the paper's 2P(0.5, 0.5)
    rule, [Convex_auto] insertion and no budget.  [wire_sizing]
    (default false) swaps the singleton minimum-width wire library for
    {!Device.Wire_lib.default_library}.

    A library may mix repeaters and inverters
    ({!Device.Buffer.polarity}): the engine then maintains
    dual-polarity frontiers — candidates are typed by the inversion
    parity they deliver to the sinks, merges match parity, inverting
    types flip it, and the root selects among even-parity candidates
    only, so every chosen inverter chain restores sink polarity by
    construction. *)

exception Budget_exceeded of string
(** {!Driver.Budget_exceeded}: raised mid-run when the budget is
    exhausted; the message says which limit tripped and where. *)

type stats = {
  runtime_s : float;        (** wall-clock seconds for the whole run *)
  peak_candidates : int;    (** largest pruned per-node candidate list *)
  total_candidates : int;   (** sum of pruned list sizes over all nodes *)
  nodes : int;
}

type result = {
  root_rat : Linform.t;
      (** RAT at the driver input: best candidate's T − R_drv · L *)
  best : Sol.t;  (** the chosen root candidate (pre-driver forms) *)
  buffers : (int * Device.Buffer.t) list;
      (** chosen assignment: (node id, buffer) means the buffer sits at
          the upstream end of the wire above that node *)
  widths : (int * Device.Wire_lib.t) list;
      (** chosen non-minimum wire widths: (node id, width) sizes the
          wire above that node; edges not listed use width index 0 *)
  load_limit_met : bool;
      (** [true] unless a [load_limit] was configured and no root
          candidate could satisfy it at the driver *)
  stats : stats;
}

val default_grain : int
(** {!Driver.default_grain}. *)

val run_tape :
  ?pool:Exec.Pool.t ->
  ?grain:int ->
  config ->
  model:Varmodel.Model.t ->
  Compile.Tape.t ->
  result
(** Optimise a compiled net ({!Compile.Tape.compile}).  The root
    candidate is chosen by [power_objective] ({!Dominance.pick}) over
    the driver-output RAT's {!Dominance.root_yield} quantile (its mean
    for a deterministic NOM form).  {!Driver.run} schedules the DP over [pool] and
    [grain] and binds the model's device ids in tape edge order, so the
    result is byte-identical at any job count (modulo
    [stats.runtime_s], which is wall-clock).  The model must be fresh:
    binding consumes its device ids.
    @raise Budget_exceeded when the configured budget trips.
    @raise Invalid_argument for the 4P rule under a power-aware
    [power_objective]. *)

val run :
  ?pool:Exec.Pool.t ->
  ?grain:int ->
  config ->
  model:Varmodel.Model.t ->
  Rctree.Tree.t ->
  result
(** [run_tape] on [Compile.Tape.compile tree]. *)

val merge_frontiers : node:int -> Sol.t array -> Sol.t array -> Sol.t array
(** The linear O(n + m) merge of Fig. 1, exposed for demonstration and
    testing: both inputs must be pruned frontiers sorted by ascending
    mean load; the result pairs the current pair and advances the side
    whose RAT binds the statistical min.  At most [n + m - 1] merged
    candidates are produced, already frontier-ordered. *)

val merge_cross :
  node:int -> check:(int -> unit) -> Sol.t array -> Sol.t array -> Sol.t array
(** The quadratic cross-product merge the 4P rule forces (§2.2),
    exposed so its in-loop abort path is directly testable: [check] is
    called with the running combination count (1-based) before each
    combination is stored — the engine passes {!Driver.cross_check},
    and an exception raised by [check] aborts the merge mid-loop. *)
