(** Pruning (dominance) rules between candidate solutions.

    Four rules are implemented:

    - {!deterministic}: van Ginneken's rule on the means — the NOM
      baseline (§2.1).
    - {!two_param}: the paper's contribution (§2.3, Eq. 6-7).  With
      [p_l = p_t = 0.5] the probabilistic tests reduce to mean
      comparison (Lemma 4) and pruning is exactly the deterministic
      sweep on the mean frontier — linear time after sorting.  For
      [p̄ > 0.5] the sweep applies the probabilistic test against the
      kept candidates whose mean RAT is at least the candidate's; by
      Theorem 2 dominance is transitive, so a kept dominator is enough
      (the sweep may keep a few extra candidates, never drop an
      optimal one).
    - {!one_param}: the single-percentile rule of reference [8] —
      dominance on the {m \pi_\alpha } scalars, also a linear sweep.
    - {!four_param}: the DATE 2005 rule of reference [7] (§2.2,
      Eq. 2-3) — percentile-interval separation.  This is only a
      partial order, so pruning is pairwise {m O(N^2) } and merging
      must enumerate the full cross product; this is precisely the
      behaviour Table 2 measures.

    All rules additionally drop exact duplicates (equal means and equal
    variances), which is what keeps symmetric instances (H-trees)
    bounded and is implicit in any practical implementation. *)

type t =
  | Deterministic
  | Two_param of { p_l : float; p_t : float }
  | One_param of { alpha : float }
  | Four_param of { alpha_l : float; alpha_u : float; beta_l : float; beta_u : float }

val deterministic : t

val two_param : ?p_l:float -> ?p_t:float -> unit -> t
(** Defaults to the paper's [p̄_L = p̄_T = 0.5].
    @raise Invalid_argument if a parameter lies outside [0.5, 1]. *)

val one_param : alpha:float -> t
(** @raise Invalid_argument if [alpha] lies outside (0, 1). *)

val four_param :
  ?alpha_l:float -> ?alpha_u:float -> ?beta_l:float -> ?beta_u:float -> unit -> t
(** Defaults to (0.45, 0.55) for both intervals — the narrowest
    (most prune-friendly, hence most favourable to the baseline)
    setting; the paper does not state the values it used.  Wider
    intervals weaken dominance further and shrink the 4P capacity
    dramatically (cf. Table 2 and reference [7]'s original 9-sink
    limit).
    @raise Invalid_argument unless [0 <= lower < upper <= 1] for both
    pairs. *)

val name : t -> string

val is_linear : t -> bool
(** [true] for the rules that admit the sorted linear sweep and linear
    merge (all but [Four_param]). *)

val mean_exact : t -> bool
(** [true] when dominance is a pure mean comparison on both axes
    ([Deterministic], and [Two_param] at [p_l = p_t = 0.5]).  For
    these rules a same-load candidate with a lower mean RAT can never
    survive pruning alongside the max-mean-RAT one, so the insert-site
    step may pre-select one candidate per buffer type (the convex
    argmax over wired candidates) without changing the pruned
    frontier. *)

val dominates : t -> Sol.t -> Sol.t -> bool
(** [dominates rule a b]: may [b] be discarded in favour of [a]? *)

val prune : t -> Sol.t array -> Sol.t array
(** Remove dominated candidates.  Linear rules: {!sorted_sweep} by the
    rule's load key (RAT key descending on ties) with the
    {!Dominance.Rat_filtered} scan — every linear dominance clause
    implies the RAT-key ordering (Lemma 4 / Theorem 2), so a candidate
    above the running maximum of kept RAT keys is kept with no pairwise
    test, and only kept candidates passing that key filter meet the
    comparator.  [Four_param]: interval comparison, quadratic in
    spirit.  The result is a fresh array sorted by the rule's load key
    (ascending); frontiers of length <= 1 are returned as-is. *)

val prune_sub : t -> ?eps:float -> Sol.t array -> int -> Sol.t array
(** [prune_sub rule sols n] prunes the first [n] elements of [sols] —
    the staging-buffer entry point ([sols] may be arena capacity larger
    than [n]).  Always returns a fresh array, even for [n <= 1].

    With [~eps] the engines' power-aware objectives prune to the
    (load, RAT, power) Pareto frontier: a candidate is dropped only when
    a kept one dominates it under [rule] {e and} costs no more energy
    under {!Dominance.power_le} at [eps], and the sort adds raw power
    ascending as the ε-independent tie-break.  [eps = 0] is the exact
    frontier; larger ε merges power buckets and can only shrink it.
    @raise Invalid_argument for [Four_param] with [~eps] (the engine
    refuses 4P under a power-aware objective). *)

val sorted_sweep :
  keys:(float array -> float array -> unit) ->
  ?tie:('a -> 'a -> int) ->
  dominates:('a -> 'a -> bool) ->
  scan:Dominance.scan ->
  'a array ->
  int ->
  'a array
(** [sorted_sweep ~keys ?tie ~dominates ~scan sols n] is the linear
    pruner the canonical and [6] engines share.  [keys load rat] fills
    the load and RAT keys of [sols.(0 .. n-1)] into the two arena
    buffers; the candidates are stable-sorted by load key ascending,
    RAT key descending, then [tie], and {!Dominance.sweep} keeps those
    no kept candidate dominates.  Returns the survivors in sweep order
    as a fresh array.  Scratch comes from the calling domain's
    {!Arena}. *)
