(** A routing tree with a fixed buffer assignment, and its timing under
    process variation.

    This is the evaluation side of the paper's experiments: whatever
    algorithm produced the assignment (NOM, D2D or WID), its quality is
    judged by re-deriving the root-RAT distribution under the {e full}
    variation model — either analytically (canonical propagation with
    the Eq. 38 statistical min, as in Fig. 6's "model" curve) or by
    Monte Carlo (exact per-sample Elmore propagation, Fig. 6's
    reference curve). *)

type t
(** A tree plus a buffer-per-edge assignment ("the buffer above node
    [v]" sits at the upstream end of the wire from [parent v] to
    [v]). *)

val make :
  tech:Device.Tech.t ->
  ?widths:(int * Device.Wire_lib.t) list ->
  Rctree.Tree.t ->
  (int * Device.Buffer.t) list ->
  t
(** [widths] optionally re-sizes individual wires ((node, width) sizes
    the wire above that node; unlisted edges use the technology's
    minimum width) — pass {!Bufins.Engine}'s [result.widths] to
    evaluate a wire-sized solution.
    @raise Invalid_argument if an assignment names the root (which has
    no wire above it), an out-of-range node, or a node twice (for
    either buffers or widths). *)

val tree : t -> Rctree.Tree.t
val buffer_count : t -> int
val buffer_at : t -> int -> Device.Buffer.t option

type instance
(** A buffered tree whose buffers have been given canonical variation
    forms from a model: each buffer instance holds one fresh device
    source plus its location's spatial and the global inter-die terms,
    shared between its C_b and T_b. *)

val instantiate : model:Varmodel.Model.t -> t -> instance
(** Allocate variation sources for every buffer in the assignment.
    The model's mode decides which variation categories apply. *)

val canonical_rat : instance -> Linform.t
(** Root RAT (after the driver) as a canonical form, propagated with
    Eq. 33-38.  This is the paper's analytical "model" prediction. *)

val sample_rat : instance -> lookup:(int -> float) -> float
(** Exact deterministic Elmore RAT for one realisation of the variation
    sources: every buffer's C_b/T_b is evaluated under [lookup] and the
    floats are propagated with a true [min].  [lookup] must be
    consistent within a call (same id ↦ same value). *)

val monte_carlo :
  ?pool:Exec.Pool.t ->
  ?check:(unit -> unit) ->
  instance ->
  rng:Numeric.Rng.t ->
  trials:int ->
  float array
(** [trials] independent joint samples of all sources, one
    {!sample_rat} each.  Trials are drawn in fixed-size chunks of 64,
    each chunk from its own stream ([Numeric.Rng.split_at rng chunk]),
    so for a given seed the returned array is {e bit-identical} whether
    sampled sequentially (no [pool], or a 1-job pool) or across any
    number of domains of [pool].  [rng] itself is never advanced.
    [check] (default: nothing) runs before each chunk; an exception it
    raises abandons the run and reaches the caller (a deadline check).
    @raise Invalid_argument if [trials <= 0]. *)

(** {1 Low-level access}

    Used by downstream analyses ({!Skew}) that need to walk the
    instance themselves. *)

val instance_source : instance -> t
val tech : t -> Device.Tech.t
val wire_above : t -> int -> Device.Wire_lib.t
(** The wire sizing of the edge above a node (minimum width unless
    re-sized in {!make}). *)

val forms_at : instance -> int -> (Linform.t * Linform.t * float) option
(** [(C_b form, T_b form, R_b)] of the buffer above a node, if any. *)

val wire_forms_at : instance -> int -> (Linform.t * Linform.t) option
(** Per-µm [(r form, c form)] of the wire above a node when the model
    carries CMP wire variation; [None] when wires are nominal (then use
    {!wire_above}). *)
