(** Routed RC trees for buffer insertion.

    A tree is rooted at the net's source (the driver pin).  Every edge
    is a wire segment carrying one legal buffer position (so the
    "Buffer Positions" column of Table 1 equals the edge count), every
    leaf is a sink with a load capacitance and a required arrival time,
    and internal nodes are Steiner merge points.  The root has exactly
    one child; merge nodes have exactly two — the binary shape the
    van Ginneken DP operates on.

    Coordinates are in µm on the die; wire lengths are in µm and
    default to the Manhattan distance between the edge's endpoints. *)

type sink = {
  sink_cap : float;  (** load capacitance, fF *)
  sink_rat : float;  (** required arrival time, ps *)
  sink_name : string;
}

(** Construction spec: a rose-tree description that {!of_spec} checks
    and freezes into the indexed representation. *)
type spec =
  | Leaf of { x : float; y : float; sink : sink }
  | Node of { x : float; y : float; children : (spec * float option) list }
      (** each child comes with an optional explicit wire length (µm);
          [None] means Manhattan distance between the endpoints *)

type t

val of_spec : spec -> t
(** Freeze a spec.  The top of the spec becomes the root (driver).
    Every tree constructor ({!Io}, {!Generate} and the serving codec)
    goes through here, so these checks are the one place a tree's
    values are validated.
    @raise Invalid_argument if the root does not have exactly one
    child, if any internal node has other than 1 or 2 children, if any
    explicit wire length is negative or not finite, if any coordinate
    is NaN or infinite, or if a sink's capacitance is NaN, infinite or
    negative or its RAT NaN or infinite. *)

(** {1 Shape} *)

val root : t -> int
val node_count : t -> int
val sink_count : t -> int

val edge_count : t -> int
(** [node_count t - 1]; this is the number of legal buffer positions. *)

val children : t -> int -> (int * float) list
(** [(child id, wire length µm)] pairs; [] for sinks. *)

val parent : t -> int -> int option
(** [None] only for the root. *)

val wire_to : t -> int -> float
(** Length of the wire from [parent] down to this node.
    @raise Invalid_argument for the root. *)

val position : t -> int -> float * float
val sink : t -> int -> sink option
val is_sink : t -> int -> bool

val total_wirelength : t -> float

(** {1 Traversal} *)

val postorder : t -> int array
(** All node ids, children before parents (the DP's processing order).
    Computed once and cached. *)

val iter_edges : t -> (parent:int -> child:int -> length:float -> unit) -> unit

val fold_postorder : t -> f:(int -> 'a list -> 'a) -> 'a
(** [fold_postorder t ~f] computes [f id child_results] bottom-up and
    returns the root's value. *)

val pp_stats : Format.formatter -> t -> unit
(** One-line summary: sinks, buffer positions, total wirelength. *)
