(** Shared experimental setup (§5.1) used by every table/figure
    harness: the job setup, engines and evaluation of {!Job}, plus the
    table helpers below. *)

include module type of struct
  include Job
end

val grid_for : setup -> die_um:float -> Varmodel.Grid.t
(** {!grid}; the setup is ignored.  Kept for the served-request
    benchmark ([bench/e2e]), which still passes one. *)

val map_cells : setup -> f:('a -> 'b) -> 'a list -> 'b list
(** [List.map f], parallelised over the setup's pool when one is
    present.  [f] must not depend on shared mutable state — each cell
    builds its own tree/model/engine run.  Order is preserved. *)

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
