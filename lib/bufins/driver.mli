(** The one DP driver behind every engine.

    {!Engine}, {!Probabilistic} and [Sample.Engine] all run the same
    bottom-up skeleton over a {!Compile.Tape.t}: seed each sink, lift
    each child frontier through the edge above it (wire plus buffer
    insertion plus prune), and merge the two lifted frontiers at a
    Steiner node.  Each engine hands the driver a {!steps} record over
    its own candidate type and keeps only its kernels, its staging and
    its root scoring; the driver owns the rest:

    - {b the dual-polarity frontier} ({!polar}): a sink seeds the even
      side, and a merge pairs even with even and odd with odd;
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
      canonical forms;
    - {b the pieces around the kernels}: the per-type obs tally
      ({!count_types}), the root load-limit gate
      ({!within_load_limit}) and the choice read-back
      ({!assignment}). *)

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

val check_time : budget -> t_start:float -> unit
(** The wall-clock check: @raise Budget_exceeded once more than
    [max_seconds] have passed since [t_start]. *)

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

type 's polar = { ev : 's array; od : 's array }
(** A dual-polarity frontier.  [ev] holds the candidates that deliver
    every sink its specified signal sense (an even inversion count on
    each root-sink path), [od] those one inversion away.  A library
    without inverters never fills [od], and the root chooses from [ev]
    only, so sink polarity is restored by construction. *)

type 's steps = {
  sink : node:int -> cap:float -> rat:float -> 's;
      (** the one candidate of a sink; it seeds the even side *)
  lift : child:int -> edge:int -> length:float -> 's polar -> 's polar;
      (** lift [child]'s frontier through its upward [edge]: wire,
          buffer insertion (inverting types flip the parity), prune *)
  merge :
    node:int ->
    check_time:(unit -> unit) ->
    check_count:(int -> unit) ->
    's array ->
    's array ->
    's array;
      (** combine one parity of the two lifted child frontiers at a
          Steiner node, in child order; either operand may be empty.
          [check_count] is the candidate budget labelled with this
          node; see {!cross_check}.  The driver passes each operand
          without keeping it, so an operand the merge stops reading is
          garbage while the merge prunes. *)
  nodes : Obs.Counters.counter;  (** bumped once per node when obs is on *)
  cat : string;  (** category of the per-node obs span *)
}

type 's outcome = {
  root : 's array;  (** the root node's even-parity frontier *)
  peak : int;  (** largest per-node frontier, both parities *)
  total : int;  (** sum of per-node frontier sizes *)
}

val run :
  ?pool:Exec.Pool.t ->
  ?grain:int ->
  budget:budget ->
  t_start:float ->
  's steps ->
  Compile.Tape.t ->
  's outcome
(** Run the DP over [tape] (see the module description for the
    schedule).  [t_start] is the wall-clock origin of the time budget.
    A merge pairs the children's even sides, then their odd sides,
    and skips the odd merge when both odd sides are empty.
    @raise Budget_exceeded when [budget] trips. *)

(** {1 Around the kernels} *)

val count_types :
  prefix:string ->
  Device.Buffer.t array ->
  child:int ->
  generated:(int -> Sol.choice) ->
  lo:int ->
  hi:int ->
  kept:(int -> Sol.choice) ->
  nkept:int ->
  unit
(** The per-type obs tally of one lift: adds, for each library type,
    its buffered rows among the staged rows [lo .. hi-1] to
    [<prefix>.type.<name>.generated] and its rows among the kept
    frontier's [0 .. nkept-1] that are buffered at [child]'s edge to
    [<prefix>.type.<name>.kept].  A zero count is not added.  The
    counter names derive from the library, so they are looked up here;
    call it only when obs is on. *)

val within_load_limit :
  float option -> mean_load:('s -> float) -> 's array -> bool * 's array
(** [within_load_limit limit ~mean_load root] is the root gate of a
    drive limit: whether the limit is met, and the candidates the
    objective chooses from.  Those are the candidates whose mean load
    is at most [limit], or the whole frontier when none is (the limit
    is then not met) or when there is no limit. *)

val assignment :
  library:Device.Buffer.t array ->
  wires:Device.Wire_lib.t array ->
  Sol.choice ->
  (int * Device.Buffer.t) list * (int * Device.Wire_lib.t) list
(** The buffers and the non-minimum wire widths of a choice trail
    ({!Sol.buffers_of_choice}, {!Sol.widths_of_choice}) read back from
    the library and the wire library. *)
