type summary = {
  count : int;
  mean : float;
  variance : float;
  std : float;
  min : float;
  max : float;
}

type accumulator = {
  mutable n : int;
  mutable m : float;       (* running mean *)
  mutable m2 : float;      (* sum of squared deviations *)
  mutable lo : float;
  mutable hi : float;
}

let create () =
  { n = 0; m = 0.0; m2 = 0.0; lo = infinity; hi = neg_infinity }

let add acc x =
  acc.n <- acc.n + 1;
  let delta = x -. acc.m in
  acc.m <- acc.m +. (delta /. float_of_int acc.n);
  acc.m2 <- acc.m2 +. (delta *. (x -. acc.m));
  if x < acc.lo then acc.lo <- x;
  if x > acc.hi then acc.hi <- x

let acc_count acc = acc.n
let acc_mean acc = acc.m

let acc_variance acc =
  if acc.n <= 1 then 0.0 else acc.m2 /. float_of_int (acc.n - 1)

let acc_std acc = sqrt (acc_variance acc)

let summarize xs =
  if Array.length xs = 0 then invalid_arg "Stats.summarize: empty sample";
  let acc = create () in
  Array.iter (add acc) xs;
  {
    count = acc.n;
    mean = acc_mean acc;
    variance = acc_variance acc;
    std = acc_std acc;
    min = acc.lo;
    max = acc.hi;
  }

let mean xs = (summarize xs).mean
let variance xs = (summarize xs).variance
let std xs = (summarize xs).std

let percentile xs p =
  let n = Array.length xs in
  if n = 0 then invalid_arg "Stats.percentile: empty sample";
  if p < 0.0 || p > 1.0 then
    invalid_arg "Stats.percentile: p must lie in [0, 1]";
  let sorted = Array.copy xs in
  (* [Float.compare] orders floats exactly as polymorphic [compare]
     does (NaN equal to itself and below everything, -0 = +0), so the
     sort permutes identically, without a C call per comparison. *)
  Array.sort Float.compare sorted;
  if n = 1 then sorted.(0)
  else
    let pos = p *. float_of_int (n - 1) in
    let i = int_of_float (floor pos) in
    let frac = pos -. float_of_int i in
    if i >= n - 1 then sorted.(n - 1)
    else sorted.(i) +. (frac *. (sorted.(i + 1) -. sorted.(i)))

let covariance xs ys =
  let n = Array.length xs in
  if n = 0 || n <> Array.length ys then
    invalid_arg "Stats.covariance: empty or mismatched samples";
  if n = 1 then 0.0
  else
    let mx = mean xs and my = mean ys in
    let acc = ref 0.0 in
    for i = 0 to n - 1 do
      acc := !acc +. ((xs.(i) -. mx) *. (ys.(i) -. my))
    done;
    !acc /. float_of_int (n - 1)

let correlation xs ys =
  let sx = std xs and sy = std ys in
  if sx = 0.0 || sy = 0.0 then 0.0 else covariance xs ys /. (sx *. sy)
