(** The one DP driver behind every engine.

    {!Engine}, {!Probabilistic} and [Sample.Engine] all run the same
    bottom-up skeleton over a {!Compile.Tape.t}: seed each sink, lift
    each child frontier through the edge above it (wire plus buffer
    insertion plus prune), and merge the two lifted frontiers at a
    Steiner node.  Each engine hands the driver a {!steps} record over
    its own frontier type and keeps only its kernels and its root
    epilogue; the driver owns the rest:

    - {b budgets}: the candidate cap after every lift and every node,
      the wall-clock cap once per node, and the in-merge check handed
      to [merge];
    - {b per-node bookkeeping}: an obs [node] span and counter, and the
      peak / total candidate statistics;
    - {b scheduling}: without a pool (or with [jobs = 1], or a net no
      larger than [grain]) the nodes run in the tape's sequential
      postorder.  Otherwise every node whose subtree exceeds [grain]
      nodes becomes a task of {!Exec.Pool.run_graph}, smaller subtrees
      run inline inside their nearest task ancestor, and a merge node's
      task is released only when all its subtree tasks have finished.
      Merges keep the fixed child order and device ids are bound before
      the DP ({!bind}), so the result is byte-identical to the
      sequential run at any job count;
    - {b device binding} for the model-based engines: the device ids of
      every edge, the per-site cache, and the per-edge wire and buffer
      canonical forms. *)

type budget = {
  max_candidates : int option;
      (** cap on any per-node candidate list (checked after pruning and
          on cross products before pruning) *)
  max_seconds : float option;
      (** wall-clock cap for the whole run (CPU time would sum over
          domains and trip early under parallel load) *)
}

val no_budget : budget

exception Budget_exceeded of string
(** Raised mid-run when the budget is exhausted; the message says which
    limit tripped and where ("node 7", "edge above node 3", "merge at
    node 4"). *)

val default_grain : int
(** Default subtree-size cutoff for task decomposition. *)

val cross_check :
  check_time:(unit -> unit) -> check_count:(int -> unit) -> int -> unit
(** The in-loop check of a quadratic cross-product merge, called with
    the running (1-based) combination count: the candidate budget on
    every combination and the deadline every 1024. *)

(** {1 Device binding} *)

type binding
(** A tape bound to a variation model. *)

val bind :
  model:Varmodel.Model.t ->
  library:Device.Buffer.t array ->
  wires:Device.Wire_lib.t array ->
  Compile.Tape.t ->
  binding
(** Consume the fresh device ids of every edge in tape edge order: one
    wire CMP id when the model has wire variation, then one id per
    library buffer.  The model must be fresh for the run, and its
    counter advances by the same amount whatever the schedule. *)

val sources : binding -> int
(** One past the largest source id the bound forms can reference. *)

val wire_forms : binding -> int -> (Linform.t * Linform.t) array
(** The (resistance, capacitance) per-µm forms of an edge, one pair per
    wire width; [[||]] when the model has no wire variation. *)

val buffer_forms : binding -> int -> (Linform.t * Linform.t) array
(** The (input cap, intrinsic delay) forms of the buffer each library
    type would place at an edge's site, indexed like the library. *)

(** {1 Running the DP} *)

type 'f steps = {
  sink : node:int -> cap:float -> rat:float -> 'f;
      (** the frontier of a sink *)
  lift : child:int -> edge:int -> length:float -> 'f -> 'f;
      (** lift [child]'s frontier through its upward [edge]: wire,
          buffer insertion, prune *)
  merge :
    node:int ->
    check_time:(unit -> unit) ->
    check_count:(int -> unit) ->
    'f ->
    'f ->
    'f;
      (** combine the two lifted child frontiers at a Steiner node, in
          child order.  [check_count] is the candidate budget labelled
          with this node; see {!cross_check}. *)
  size : 'f -> int;  (** candidate count, for budgets and statistics *)
  nodes : Obs.Counters.counter;  (** bumped once per node when obs is on *)
  cat : string;  (** category of the per-node obs span *)
}

type 'f outcome = {
  root : 'f;  (** the root node's frontier *)
  peak : int;  (** largest per-node frontier *)
  total : int;  (** sum of per-node frontier sizes *)
}

val run :
  ?pool:Exec.Pool.t ->
  ?grain:int ->
  budget:budget ->
  t_start:float ->
  'f steps ->
  Compile.Tape.t ->
  'f outcome
(** Run the DP over [tape] (see the module description for the
    schedule).  [t_start] is the wall-clock origin of the time budget.
    @raise Budget_exceeded when [budget] trips. *)
