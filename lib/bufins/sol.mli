(** Candidate solutions of the buffer-insertion DP.

    A candidate at a tree node carries the two figure-of-merits of §2.1
    — downstream load [L] and required arrival time [T] — as canonical
    forms (deterministic runs simply use forms with empty sensitivity
    vectors), plus the decision trail needed to reconstruct the buffer
    assignment of the solution finally chosen at the root. *)

(** How a candidate was obtained; the [from]/[left]/[right] links form
    a DAG shared between candidates, so keeping a candidate alive does
    not retain its siblings' forms. *)
type choice =
  | At_sink of int  (** node id of the sink *)
  | Wire of { node : int; width : int; from : choice }
      (** lifted through the wire above [node] sized with wire-library
          index [width] (0 is the technology's minimum width), no
          buffer *)
  | Buffered of { node : int; buffer : int; from : choice }
      (** buffer of library index [buffer] inserted at the upstream end
          of the wire above [node] *)
  | Merged of { node : int; left : choice; right : choice }

type t = {
  load : Linform.t;  (** L_t: downstream capacitance, fF *)
  rat : Linform.t;   (** T_t: required arrival time, ps *)
  power : float;
      (** accumulated switching + leakage energy (fJ) of every buffer
          in the decision trail ({!Device.Buffer.energy_fj} summed
          incrementally: 0 at sinks, preserved through wires, added at
          insertions, summed at merges) — the third Pareto axis of the
          power-aware objectives; ignored entirely under the default
          [max_yield] objective *)
  choice : choice;
}

val mean_load : t -> float
val mean_rat : t -> float

val power : t -> float

val of_sink : node:int -> cap:float -> rat:float -> t

val buffers_of_choice : choice -> (int * int) list
(** [(node id, buffer library index)] of every buffer in the decision
    trail, in no particular order. *)

val widths_of_choice : choice -> (int * int) list
(** [(node id, wire library index)] for every edge in the decision
    trail whose width differs from the minimum (index 0). *)

val pp : Format.formatter -> t -> unit
