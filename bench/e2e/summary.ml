(* Summaries over raw client samples. *)

(* Nearest-rank percentile: the smallest sample with at least a [q]
   share of all samples at or below it, i.e. sorted.(ceil (q * n) - 1).
   [q] is in (0, 1]; the tolerance keeps 0.99 * 100 at rank 99. *)
let nearest_rank sorted q =
  let n = Array.length sorted in
  if n = 0 then invalid_arg "Summary.nearest_rank: no samples";
  if not (q > 0.0 && q <= 1.0) then
    invalid_arg "Summary.nearest_rank: q must be in (0, 1]";
  let rank = int_of_float (Float.ceil ((q *. float_of_int n) -. 1e-9)) in
  sorted.(max 1 (min n rank) - 1)

let mean = function
  | [||] -> 0.0
  | a -> Array.fold_left ( +. ) 0.0 a /. float_of_int (Array.length a)
