(** Shared experimental setup (§5.1) used by every table/figure
    harness: technology, buffer library, variation budget, the 500 µm
    spatial grid with 2 mm correlation range, and the three algorithms
    under comparison. *)

type setup = {
  tech : Device.Tech.t;
  library : Device.Buffer.t array;
  budget : Varmodel.Model.budget;
  pitch_um : float;
  range_um : float;
  mc_trials : int;  (** Monte-Carlo sample count for MC-based figures *)
  pool : Exec.Pool.t option;
      (** When set (CLI [--jobs]), independent experiment cells,
          Monte-Carlo chunks and DP subtree tasks run across its
          domains ({!Bufins.Engine.default_grain} sets which subtrees
          become tasks).  Results are identical with or without it. *)
}

val default_setup : setup
(** The paper's §5.1 numbers: 5%/5%/5% budget, 500 µm grid, 2 mm
    range; 2000 MC trials; no pool (sequential). *)

val map_cells : setup -> f:('a -> 'b) -> 'a list -> 'b list
(** [List.map f], parallelised over the setup's pool when one is
    present.  [f] must not depend on shared mutable state — each cell
    builds its own tree/model/engine run.  Order is preserved. *)

val mc_samples :
  ?check:(unit -> unit) ->
  setup ->
  Sta.Buffered.instance ->
  seed:int ->
  trials:int ->
  float array
(** Monte-Carlo samples through the setup's pool (deterministic in
    [seed] at any job count; see {!Sta.Buffered.monte_carlo}, which
    runs [check] before each chunk of trials). *)

val grid_for : setup -> die_um:float -> Varmodel.Grid.t

val die_for_sinks : int -> float
(** Die side (µm) for a generated net of that many sinks:
    [max 4000 (400·√sinks)]. *)

val die_of_tree : Rctree.Tree.t -> float
(** Die side (µm) for a net that arrives without one: the bounding
    square of its node positions, at least 4000 µm, rounded up to the
    500 µm grid. *)

type algo = Nom | D2d | Wid

val algo_name : algo -> string

val algo_of_string : string -> (algo, string) result
(** ["nom"], ["d2d"] or ["wid"]; the error names the three. *)

val rule_of_string :
  ?others:string list -> p:float -> string -> (Bufins.Prune.t, string) result
(** ["det"], ["2p"] (p_L = p_T = [p]), ["1p"] (α = 0.95) or ["4p"].
    The error lists those spellings, then [others] (names a caller
    handles before calling, such as bufferins's ["sample"]). *)

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
  ?yield:float ->
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

val type_histogram :
  setup -> (int * Device.Buffer.t) list -> (Device.Buffer.t * int) list
(** Per-type usage counts of a chosen assignment, in the setup
    library's order; unused types report 0 (matched by name, so
    assignments that round-tripped through the wire protocol count
    correctly). *)

val mix_string : setup -> (int * Device.Buffer.t) list -> string
(** [type_histogram] rendered ["x1:12 x4:3 x16:0"]-style for table
    cells. *)

val pp_row : Format.formatter -> string list -> unit
(** Fixed-width row printer used by all table harnesses. *)
