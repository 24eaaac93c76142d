(** The shared K-sample process matrix of the sampling-based engine.

    Row [id] holds the K standard normal draws of variation source
    [id], in the same source-id space the canonical forms use, so a
    candidate's per-sample value is its mean plus the sensitivity-
    weighted sum of the relevant rows.  All candidates of one run share
    one matrix: sample [j] is one coherent process corner across the
    whole tree.

    Rows are drawn lazily from [Numeric.Rng.split_at master id], so the
    values depend only on (seed, id, K) — never on draw order, domain,
    or job count.  The master generator is never advanced; lazily
    drawing distinct rows from several domains is safe as long as no
    two domains need the same undrawn row, which the engine guarantees
    by prefilling the shared (inter-die + spatial) rows before its
    parallel phase. *)

type t

val create : seed:int -> k:int -> sources:int -> t
(** A matrix of [sources] undrawn rows of [k] samples each.
    @raise Invalid_argument if [k <= 0] or [sources < 0]. *)

val samples : t -> int
val sources : t -> int

val source : t -> int -> float array
(** The K draws of one source, drawing them on first use.  The returned
    array is the matrix's own row: do not mutate.
    @raise Invalid_argument on an out-of-range id. *)

val prefill : t -> lo:int -> hi:int -> unit
(** Force rows [lo..hi] (clamped to the matrix) to be drawn now — used
    for the rows shared across parallel tasks. *)

val eval_into : t -> Linform.t -> float array -> off:int -> unit
(** [eval_into t form out ~off] writes the K per-sample values of a
    canonical form into [out.(off) .. out.(off + k - 1)]: the form's
    mean plus its sensitivity-weighted combination of source rows,
    each sample summed from the mean in source-id order.
    @raise Invalid_argument if the block does not fit in [out]. *)
