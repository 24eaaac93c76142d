(* [lo] and [width] are in the binning's coordinate: the value itself
   on a linear scale, its natural log on a log scale. *)
type t = {
  log_scale : bool;
  lo : float;
  width : float;
  counts : int array;
  mutable total : int;
}

let make ~log_scale ~lo ~hi ~bins =
  {
    log_scale;
    lo;
    width = (hi -. lo) /. float_of_int bins;
    counts = Array.make bins 0;
    total = 0;
  }

let create ~lo ~hi ~bins =
  if bins <= 0 then invalid_arg "Histogram.create: bins must be > 0";
  if hi <= lo then invalid_arg "Histogram.create: hi must exceed lo";
  make ~log_scale:false ~lo ~hi ~bins

let create_log ~lo ~hi ~bins =
  if bins <= 0 then invalid_arg "Histogram.create_log: bins must be > 0";
  if not (lo > 0.0 && hi > lo) then
    invalid_arg "Histogram.create_log: need 0 < lo < hi";
  make ~log_scale:true ~lo:(Float.log lo) ~hi:(Float.log hi) ~bins

let empty_like h = { h with counts = Array.make (Array.length h.counts) 0; total = 0 }

(* Coordinate -> value, for edges and interpolated points. *)
let value h c = if h.log_scale then Float.exp c else c

let add h x =
  let n = Array.length h.counts in
  let c = if h.log_scale then Float.log x else x in
  (* [not (f >= 0)] also catches NaN and the log of 0 or less. *)
  let f = (c -. h.lo) /. h.width in
  let i =
    if not (f >= 0.0) then 0
    else if f >= float_of_int n then n - 1
    else int_of_float f
  in
  h.counts.(i) <- h.counts.(i) + 1;
  h.total <- h.total + 1

let of_samples ?bins xs =
  let s = Stats.summarize xs in
  let bins =
    match bins with
    | Some b -> b
    | None ->
      let b = int_of_float (sqrt (float_of_int s.Stats.count)) in
      max 10 (min 100 b)
  in
  let span = s.Stats.max -. s.Stats.min in
  let pad = if span > 0.0 then 0.01 *. span else 1.0 in
  let h = create ~lo:(s.Stats.min -. pad) ~hi:(s.Stats.max +. pad) ~bins in
  Array.iter (add h) xs;
  h

let merge a b =
  if a.log_scale <> b.log_scale || a.lo <> b.lo || a.width <> b.width
     || Array.length a.counts <> Array.length b.counts
  then invalid_arg "Histogram.merge: histograms must share lo/hi/bins";
  {
    a with
    counts = Array.init (Array.length a.counts) (fun i -> a.counts.(i) + b.counts.(i));
    total = a.total + b.total;
  }

let total h = h.total
let bins h = Array.length h.counts
let edge h i = value h (h.lo +. (float_of_int i *. h.width))
let bin_center h i = value h (h.lo +. ((float_of_int i +. 0.5) *. h.width))
let bin_count h i = h.counts.(i)

let bin_density h i =
  if h.total = 0 then 0.0
  else
    let width = if h.log_scale then edge h (i + 1) -. edge h i else h.width in
    float_of_int h.counts.(i) /. (float_of_int h.total *. width)

let density_series h =
  Array.init (bins h) (fun i -> (bin_center h i, bin_density h i))

let percentile h p =
  if h.total = 0 then invalid_arg "Histogram.percentile: empty histogram";
  if p < 0.0 || p > 1.0 || Float.is_nan p then
    invalid_arg "Histogram.percentile: p must be in [0, 1]";
  (* Rank of the target sample (1-based, nearest-rank rounded up), then
     a cumulative walk to its bin with linear interpolation inside (in
     the log of the value on a log scale). *)
  let rank =
    let r = int_of_float (ceil (p *. float_of_int h.total)) in
    if r < 1 then 1 else r
  in
  let n = Array.length h.counts in
  let rec find i seen =
    if i >= n - 1 then (n - 1, seen)
    else if seen + h.counts.(i) >= rank then (i, seen)
    else find (i + 1) (seen + h.counts.(i))
  in
  let i, before = find 0 0 in
  let c = h.counts.(i) in
  let frac =
    if c = 0 then 1.0 else float_of_int (rank - before) /. float_of_int c
  in
  value h (h.lo +. ((float_of_int i +. frac) *. h.width))
