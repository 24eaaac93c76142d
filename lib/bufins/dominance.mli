(** The shared dominance comparator behind every frontier prune.

    Three dominance flavours coexist in the codebase — the canonical
    rules' total/partial orders on (load, RAT) forms ({!Prune}), the
    per-sample tie-or-beat counting of the sampling engine
    ({!Sample.Engine}), and the PMF heuristics of the [6] baseline
    ({!Probabilistic}).  They all reduce to the same sweep: sort the
    candidates by the frontier order, walk them once, and drop a
    candidate as soon as a kept one dominates it.  This module owns
    that sweep (index-based, storage-agnostic, so each engine keeps its
    own arena layout) in two scan shapes, the (RAT, power) staircase of
    the canonical insert step, plus the power axis every flavour gains
    in the Pareto generalisation: an {e ε-box} order on
    switching/leakage energy and the per-request objective that decides
    whether the power axis participates at all.

    {2 The ε-box power order}

    [power_le ~eps a b] compares energies exactly at [eps = 0] and by
    quantised bucket ([floor (p /. eps)]) otherwise.  Bucketing — not
    an additive tolerance — is what keeps the relation transitive, and
    for any integer multiple ε' = m·ε the buckets nest
    ([floor (p /. (m *. eps)) = floor (floor (p /. eps) /. m)] for
    p ≥ 0), so coarsening ε only ever grows the dominance relation:
    every frontier kept at ε' is a subset of the one kept at ε, and
    frontier size is non-increasing in ε.  The sort order fed to
    {!sweep} must not depend on ε (sort raw power ascending as the
    tie-break) — that is what makes the greedy kept-only scan equal to
    the quadratic "dominated by any earlier candidate" reference for
    every transitive flavour (the qcheck oracle in
    [test/test_dominance.ml] pins this).

    {2 Default-objective guarantee}

    With the default objective ({!Max_yield}) the power axis is
    ignored entirely: every engine sorts with the order and prunes
    with the comparator it used before the power axis existed, so each
    prune keeps the same candidates in the same order, and default
    runs are byte-identical to the pre-power seed (the golden suite
    asserts this).  The comparator call sequence is not part of the
    guarantee: {!Rat_filtered} skips calls that cannot succeed. *)

(** Per-request optimisation objective, threaded from the CLI and the
    serve protocol down to root selection and pruning. *)
type objective =
  | Max_yield
      (** the historical objective: maximise the yield-quantile root
          RAT; pruning ignores the power axis *)
  | Min_power of float
      (** minimise total buffer energy among root candidates whose
          yield-quantile driver RAT meets the given target (ps);
          falls back to the best-RAT candidate when none does *)
  | Weighted of float
      (** maximise [rat_score - w * power_fj] — the scalarisation the
          [powersweep] experiment sweeps to trace the yield-vs-power
          Pareto curve *)

val default : objective
(** {!Max_yield}. *)

val power_aware : objective -> bool
(** [false] only for {!Max_yield}: the objectives under which pruning
    must keep cheaper-power candidates alive (and the per-type insert
    step keeps each type's {!staircase}, not only its best-timing
    row). *)

val to_string : objective -> string
(** ["max_yield"], ["min_power <rat_target>"] or ["weighted <w>"] —
    the wire/CLI spelling; floats printed [%.17g] so the request
    encoding round-trips exactly. *)

val of_string : string -> objective
(** Inverse of {!to_string}; also accepts ['='] in place of the space
    (CLI convenience).  @raise Failure on anything else. *)

val root_yield : float
(** 0.95: the timing-yield level at which every engine scores a root
    candidate — the (1 − [root_yield])-quantile of its driver-output
    RAT, the paper's "95% timing yield for RAT" figure of merit, fed
    to {!pick} as the score. *)

val pick :
  objective -> n:int -> score:(int -> float) -> power:(int -> float) -> int
(** [pick objective ~n ~score ~power] is the root choice among
    candidates [0 .. n-1], given each one's timing score (higher is
    better) and its energy.  Every comparison is strict, so ties keep
    the earliest candidate:
    - {!Max_yield}: the best score;
    - [Weighted w]: the best [score − w · power];
    - [Min_power t]: a feasible candidate (score ≥ [t]) before an
      infeasible one; among feasible ones the least power, then the
      best score; when none is feasible, the best score.
    [score] and [power] are called at most once per candidate, in
    index order.
    @raise Invalid_argument when [n < 1]. *)

val power_bucket : eps:float -> float -> float
(** The ε-box of an energy: the energy itself at [eps <= 0], else
    [floor (p /. eps)].  Non-decreasing in [p]. *)

val power_le : eps:float -> float -> float -> bool
(** The ε-box order described above: [power_bucket ~eps a <=
    power_bucket ~eps b].  Total, transitive, and monotone in [eps]
    (bigger ε ⇒ bigger relation) for non-negative powers and
    integer-multiple ε steps. *)

val staircase :
  eps:float ->
  order:int array ->
  n:int ->
  rat:float array ->
  power:float array ->
  kept:int array ->
  int
(** The power-aware {!sweep} of rows that all share one load: sorted
    by RAT descending, then power ascending, then index ascending, row
    [d] drops row [r] exactly when [d] sorts first and
    [power_bucket ~eps] of [d]'s power is no higher than [r]'s, so the
    survivors are the (RAT, power bucket) staircase.  This computes
    that set in one walk, without the RAT sort: [order.(0 .. n-1)]
    lists the rows (indices into [rat] and [power]) in non-decreasing
    power bucket, in any order within a bucket.  The survivors go to
    [kept.(0 ..)], lowest bucket first, and the count is returned.
    With every power equal it is the earliest row of maximal RAT.
    [kept] must have room for [n] indices. *)

(** Scan shape of the kept-set walk.  Both keep exactly the greedy
    set: a candidate is dropped iff a kept candidate dominates it. *)
type scan =
  | Rat_filtered
      (** for flavours whose dominance implies the RAT-key order
          ([dominates k i] ⇒ [rat_keys.(k) >= rat_keys.(i)]): a
          candidate above the running maximum of kept RAT keys is kept
          with no comparator call, and otherwise only kept candidates
          with a RAT key at least the candidate's are tested, newest
          first.  Every canonical linear rule with or without the power
          axis, the [6] mean and percentile heuristics, and the
          sampling engine at full dominance ([need = K]).  On a total
          order the newest kept candidate holds the running maximum,
          so this makes at most one call per candidate, to it. *)
  | Scan_kept
      (** every kept candidate, newest first, with no filter — for
          flavours where dominance does not imply the RAT-key order:
          the [6] stochastic-dominance heuristic (its CDF tolerance
          lets a dominator's mean sit fractionally below the dominated
          one's) and relaxed per-sample counting ([need < K]) *)

val sweep :
  order:int array ->
  n:int ->
  rat_keys:float array ->
  dominates:(int -> int -> bool) ->
  scan:scan ->
  kept:int array ->
  int
(** [sweep ~order ~n ~rat_keys ~dominates ~scan ~kept] walks the
    candidate indices [order.(0 .. n-1)] (already sorted by the
    flavour's frontier order), writes the surviving indices into
    [kept.(0 ..)] in walk order and returns how many survived.
    [dominates kept_idx cand_idx] is the flavour's comparator and
    [rat_keys.(i)] candidate [i]'s RAT key, which only {!Rat_filtered}
    acts on; keys must not be NaN.  [kept] must have room for [n]
    indices. *)
