(** Compile an RC tree into flat postorder arrays.

    The tape is a model-independent program: every topology-derived
    fact the DP needs — postorder, child links, subtree sizes for task
    decomposition, per-edge buffer sites, wire lengths and midpoints —
    is precomputed once, so {!Bufins.Driver} runs every engine without
    touching the tree.  Engines bind a tape to a concrete variation
    model by consuming fresh device ids in edge order (edges are
    numbered in a sequential postorder over parent nodes, child edges
    in list order), which makes the results independent of scheduling.

    One compiled tape serves every pruning rule, the probabilistic
    baseline and the sampling engine, and can be cached across serve
    requests keyed by a digest of the encoded topology. *)

type t = {
  n : int;  (** node count *)
  edges : int;  (** edge count = n - 1 *)
  post : int array;  (** sequential execution order (postorder) *)
  left : int array;  (** node id -> first child, -1 for sinks *)
  right : int array;  (** node id -> second child, -1 below merges *)
  size : int array;  (** node id -> subtree node count *)
  edge_above : int array;
      (** node id -> the edge to its parent, -1 at the root *)
  sink_cap : float array;  (** node id -> sink pin cap, fF (0 off sinks) *)
  sink_rat : float array;  (** node id -> sink RAT, ps (0 off sinks) *)
  edge_site : int array;  (** edge -> buffer site = parent node id *)
  edge_length : float array;  (** edge -> wire length, µm *)
  edge_mid_x : float array;  (** edge -> midpoint, µm *)
  edge_mid_y : float array;
  x : float array;  (** node id -> position, µm *)
  y : float array;
}

val compile : Rctree.Tree.t -> t
(** Flatten [tree].  Bumps the [tape.compiled] and [tape.compile_ns]
    counters and records a [tape.compile] span when observability is
    on.
    @raise Invalid_argument on nodes with more than two children. *)

val node_count : t -> int
val edge_count : t -> int

val root : t -> int
(** The driver node (last entry of [post]). *)
