(* Tests for the numeric substrate: special functions, normal
   distribution, statistics, linear algebra, RNG and histograms. *)

let check_close ?(eps = 1e-9) what expected got =
  Alcotest.(check bool)
    (Printf.sprintf "%s: |%.12g - %.12g| <= %g" what expected got eps)
    true
    (Float.abs (expected -. got) <= eps)

(* ---------- special functions ---------- *)

let test_erf_known_values () =
  (* Reference values to 12+ digits (Abramowitz & Stegun / mpmath). *)
  check_close "erf 0" 0.0 (Numeric.Special.erf 0.0);
  check_close "erf 0.5" 0.5204998778130465 (Numeric.Special.erf 0.5) ~eps:1e-12;
  check_close "erf 1" 0.8427007929497149 (Numeric.Special.erf 1.0) ~eps:1e-12;
  check_close "erf 2" 0.9953222650189527 (Numeric.Special.erf 2.0) ~eps:1e-12;
  check_close "erf 3" 0.9999779095030014 (Numeric.Special.erf 3.0) ~eps:1e-12;
  check_close "erf -1" (-0.8427007929497149) (Numeric.Special.erf (-1.0)) ~eps:1e-12

let test_erfc_known_values () =
  check_close "erfc 0" 1.0 (Numeric.Special.erfc 0.0);
  check_close "erfc 1" 0.15729920705028513 (Numeric.Special.erfc 1.0) ~eps:1e-12;
  check_close "erfc 3" 2.209049699858544e-05 (Numeric.Special.erfc 3.0) ~eps:1e-16;
  check_close "erfc 5" 1.5374597944280347e-12 (Numeric.Special.erfc 5.0) ~eps:1e-22;
  check_close "erfc 10" 2.088487583762545e-45 (Numeric.Special.erfc 10.0) ~eps:1e-55;
  check_close "erfc -2" (2.0 -. 0.004677734981063127)
    (Numeric.Special.erfc (-2.0))
    ~eps:1e-12

let prop_erf_odd =
  QCheck.Test.make ~name:"erf is odd" ~count:500
    QCheck.(float_range (-6.0) 6.0)
    (fun x ->
      Float.abs (Numeric.Special.erf x +. Numeric.Special.erf (-.x)) < 1e-14)

let prop_erf_erfc_complement =
  QCheck.Test.make ~name:"erf + erfc = 1" ~count:500
    QCheck.(float_range (-6.0) 6.0)
    (fun x ->
      Float.abs (Numeric.Special.erf x +. Numeric.Special.erfc x -. 1.0) < 1e-13)

(* ---------- normal distribution ---------- *)

let test_cdf_known_values () =
  check_close "Phi 0" 0.5 (Numeric.Normal.cdf 0.0);
  check_close "Phi 1" 0.8413447460685429 (Numeric.Normal.cdf 1.0) ~eps:1e-12;
  check_close "Phi -1" 0.15865525393145705 (Numeric.Normal.cdf (-1.0)) ~eps:1e-12;
  check_close "Phi 1.96" 0.9750021048517795 (Numeric.Normal.cdf 1.96) ~eps:1e-12;
  check_close "Phi -4" 3.167124183311992e-05 (Numeric.Normal.cdf (-4.0)) ~eps:1e-15

let test_pdf_known_values () =
  check_close "phi 0" 0.3989422804014327 (Numeric.Normal.pdf 0.0) ~eps:1e-14;
  check_close "phi 1" 0.24197072451914337 (Numeric.Normal.pdf 1.0) ~eps:1e-14

let test_quantile_known_values () =
  check_close "q 0.5" 0.0 (Numeric.Normal.quantile 0.5) ~eps:1e-12;
  check_close "q 0.975" 1.959963984540054 (Numeric.Normal.quantile 0.975) ~eps:1e-9;
  check_close "q 0.95" 1.6448536269514722 (Numeric.Normal.quantile 0.95) ~eps:1e-9;
  check_close "q 0.05" (-1.6448536269514722) (Numeric.Normal.quantile 0.05) ~eps:1e-9

let test_quantile_domain () =
  Alcotest.check_raises "p = 0 rejected"
    (Invalid_argument "Normal.quantile: p must lie strictly between 0 and 1")
    (fun () -> ignore (Numeric.Normal.quantile 0.0));
  Alcotest.check_raises "p = 1 rejected"
    (Invalid_argument "Normal.quantile: p must lie strictly between 0 and 1")
    (fun () -> ignore (Numeric.Normal.quantile 1.0))

let prop_quantile_cdf_roundtrip =
  QCheck.Test.make ~name:"cdf (quantile p) = p" ~count:500
    QCheck.(float_range 1e-6 (1.0 -. 1e-6))
    (fun p -> Float.abs (Numeric.Normal.cdf (Numeric.Normal.quantile p) -. p) < 1e-9)

let prop_cdf_monotone =
  QCheck.Test.make ~name:"cdf is monotone" ~count:500
    QCheck.(pair (float_range (-8.0) 8.0) (float_range (-8.0) 8.0))
    (fun (a, b) ->
      let lo = Float.min a b and hi = Float.max a b in
      Numeric.Normal.cdf lo <= Numeric.Normal.cdf hi)

let test_mu_sigma_helpers () =
  check_close "percentile mean" 10.0 (Numeric.Normal.percentile ~mu:10.0 ~sigma:2.0 0.5)
    ~eps:1e-9;
  check_close "percentile 95"
    (10.0 +. (2.0 *. 1.6448536269514722))
    (Numeric.Normal.percentile ~mu:10.0 ~sigma:2.0 0.95)
    ~eps:1e-8;
  check_close "percentile degenerate" 10.0
    (Numeric.Normal.percentile ~mu:10.0 ~sigma:0.0 0.95);
  check_close "prob_gt_zero sym" 0.5 (Numeric.Normal.prob_gt_zero ~mu:0.0 ~sigma:3.0);
  check_close "prob_gt_zero pos degenerate" 1.0
    (Numeric.Normal.prob_gt_zero ~mu:1.0 ~sigma:0.0);
  check_close "prob_gt_zero neg degenerate" 0.0
    (Numeric.Normal.prob_gt_zero ~mu:(-1.0) ~sigma:0.0);
  check_close "cdf_mu_sigma step below" 0.0
    (Numeric.Normal.cdf_mu_sigma ~mu:5.0 ~sigma:0.0 4.9);
  check_close "cdf_mu_sigma step above" 1.0
    (Numeric.Normal.cdf_mu_sigma ~mu:5.0 ~sigma:0.0 5.1)

(* ---------- statistics ---------- *)

let test_summarize () =
  let s = Numeric.Stats.summarize [| 1.0; 2.0; 3.0; 4.0 |] in
  check_close "mean" 2.5 s.Numeric.Stats.mean ~eps:1e-12;
  check_close "variance" (5.0 /. 3.0) s.Numeric.Stats.variance ~eps:1e-12;
  check_close "min" 1.0 s.Numeric.Stats.min;
  check_close "max" 4.0 s.Numeric.Stats.max;
  Alcotest.(check int) "count" 4 s.Numeric.Stats.count

let test_summarize_empty () =
  Alcotest.check_raises "empty rejected"
    (Invalid_argument "Stats.summarize: empty sample") (fun () ->
      ignore (Numeric.Stats.summarize [||]))

let test_percentile () =
  let xs = [| 4.0; 1.0; 3.0; 2.0 |] in
  check_close "p0 = min" 1.0 (Numeric.Stats.percentile xs 0.0);
  check_close "p1 = max" 4.0 (Numeric.Stats.percentile xs 1.0);
  check_close "median" 2.5 (Numeric.Stats.percentile xs 0.5) ~eps:1e-12;
  check_close "single" 7.0 (Numeric.Stats.percentile [| 7.0 |] 0.3)

(* [Stats.percentile] sorts with [Float.compare]; it must return the
   bits the polymorphic-[compare] sort gave, on signed zeros,
   infinities and NaN included (both NaN counts as equal). *)
let test_percentile_matches_poly_compare () =
  let reference xs p =
    let n = Array.length xs in
    let sorted = Array.copy xs in
    Array.sort compare sorted;
    if n = 1 then sorted.(0)
    else
      let pos = p *. float_of_int (n - 1) in
      let i = int_of_float (floor pos) in
      let frac = pos -. float_of_int i in
      if i >= n - 1 then sorted.(n - 1)
      else sorted.(i) +. (frac *. (sorted.(i + 1) -. sorted.(i)))
  in
  let pool =
    [| 0.0; -0.0; 1.0; -2.5; 3.0; infinity; neg_infinity; nan; -.nan; 1e-300 |]
  in
  let rng = Random.State.make [| 17 |] in
  for _ = 1 to 400 do
    let n = 1 + Random.State.int rng 12 in
    let xs =
      Array.init n (fun _ -> pool.(Random.State.int rng (Array.length pool)))
    in
    List.iter
      (fun p ->
        let got = Numeric.Stats.percentile xs p and want = reference xs p in
        if
          not
            (Int64.bits_of_float got = Int64.bits_of_float want
            || (Float.is_nan got && Float.is_nan want))
        then
          Alcotest.failf "percentile p=%g of [%s]: %h, reference %h" p
            (String.concat "; "
               (Array.to_list (Array.map (Printf.sprintf "%h") xs)))
            got want)
      [ 0.0; 0.05; 0.25; 0.5; 0.95; 1.0 ]
  done

let test_covariance_correlation () =
  let xs = [| 1.0; 2.0; 3.0 |] and ys = [| 2.0; 4.0; 6.0 |] in
  check_close "cov" 2.0 (Numeric.Stats.covariance xs ys) ~eps:1e-12;
  check_close "corr" 1.0 (Numeric.Stats.correlation xs ys) ~eps:1e-12;
  check_close "anti-corr" (-1.0)
    (Numeric.Stats.correlation xs [| 6.0; 4.0; 2.0 |])
    ~eps:1e-12;
  check_close "degenerate corr" 0.0
    (Numeric.Stats.correlation xs [| 5.0; 5.0; 5.0 |])

let prop_welford_matches_direct =
  QCheck.Test.make ~name:"welford accumulator = batch summary" ~count:200
    QCheck.(list_of_size (Gen.int_range 2 50) (float_range (-100.0) 100.0))
    (fun xs ->
      let arr = Array.of_list xs in
      let acc = Numeric.Stats.create () in
      Array.iter (Numeric.Stats.add acc) arr;
      let s = Numeric.Stats.summarize arr in
      Float.abs (Numeric.Stats.acc_mean acc -. s.Numeric.Stats.mean) < 1e-9
      && Float.abs (Numeric.Stats.acc_variance acc -. s.Numeric.Stats.variance)
         < 1e-7)

(* ---------- linear algebra ---------- *)

let test_solve () =
  let a = [| [| 2.0; 1.0 |]; [| 1.0; 3.0 |] |] in
  let x = Numeric.Linalg.solve a [| 5.0; 10.0 |] in
  check_close "x0" 1.0 x.(0) ~eps:1e-12;
  check_close "x1" 3.0 x.(1) ~eps:1e-12

let test_solve_pivoting () =
  (* Requires row exchange: zero on the diagonal. *)
  let a = [| [| 0.0; 1.0 |]; [| 1.0; 0.0 |] |] in
  let x = Numeric.Linalg.solve a [| 2.0; 3.0 |] in
  check_close "x0" 3.0 x.(0) ~eps:1e-12;
  check_close "x1" 2.0 x.(1) ~eps:1e-12

let test_solve_singular () =
  let a = [| [| 1.0; 2.0 |]; [| 2.0; 4.0 |] |] in
  Alcotest.check_raises "singular rejected"
    (Failure "Linalg.solve: singular matrix") (fun () ->
      ignore (Numeric.Linalg.solve a [| 1.0; 2.0 |]))

let test_fit_line () =
  let pts = Array.init 10 (fun i -> (float_of_int i, 3.0 +. (2.0 *. float_of_int i))) in
  let intercept, slope = Numeric.Linalg.fit_line pts in
  check_close "intercept" 3.0 intercept ~eps:1e-9;
  check_close "slope" 2.0 slope ~eps:1e-9

let test_least_squares_overdetermined () =
  (* y = 1 + 2x with symmetric noise that the LSQ fit must average out. *)
  let a = [| [| 1.0; 0.0 |]; [| 1.0; 1.0 |]; [| 1.0; 2.0 |]; [| 1.0; 3.0 |] |] in
  let b = [| 1.1; 2.9; 5.1; 6.9 |] in
  let x = Numeric.Linalg.least_squares a b in
  check_close "intercept" 1.0 x.(0) ~eps:0.2;
  check_close "slope" 2.0 x.(1) ~eps:0.1

let prop_solve_roundtrip =
  (* Diagonally dominant random systems are well-conditioned. *)
  let gen =
    QCheck.Gen.(
      let* n = int_range 1 5 in
      let* a =
        array_size (return n)
          (array_size (return n) (float_range (-1.0) 1.0))
      in
      let* b = array_size (return n) (float_range (-10.0) 10.0) in
      let a = Array.mapi (fun i row -> (
        let row = Array.copy row in
        row.(i) <- row.(i) +. 10.0;
        row)) a in
      return (a, b))
  in
  QCheck.Test.make ~name:"solve: a x = b roundtrip" ~count:200
    (QCheck.make gen)
    (fun (a, b) ->
      let x = Numeric.Linalg.solve a b in
      let n = Array.length b in
      let ok = ref true in
      for i = 0 to n - 1 do
        let acc = ref 0.0 in
        for j = 0 to n - 1 do
          acc := !acc +. (a.(i).(j) *. x.(j))
        done;
        if Float.abs (!acc -. b.(i)) > 1e-8 then ok := false
      done;
      !ok)

(* ---------- rng ---------- *)

let test_rng_determinism () =
  let a = Numeric.Rng.create ~seed:9 and b = Numeric.Rng.create ~seed:9 in
  for _ = 1 to 100 do
    check_close "same stream" (Numeric.Rng.gaussian a) (Numeric.Rng.gaussian b)
  done

let test_rng_gaussian_moments () =
  let rng = Numeric.Rng.create ~seed:3 in
  let xs = Array.init 50_000 (fun _ -> Numeric.Rng.gaussian rng) in
  let s = Numeric.Stats.summarize xs in
  check_close "mean ~ 0" 0.0 s.Numeric.Stats.mean ~eps:0.02;
  check_close "std ~ 1" 1.0 s.Numeric.Stats.std ~eps:0.02

let test_rng_uniform_range () =
  let rng = Numeric.Rng.create ~seed:4 in
  for _ = 1 to 1000 do
    let x = Numeric.Rng.uniform_range rng ~lo:2.0 ~hi:5.0 in
    Alcotest.(check bool) "in range" true (x >= 2.0 && x < 5.0)
  done

let test_rng_split_independent () =
  let a = Numeric.Rng.create ~seed:11 in
  let b = Numeric.Rng.split a in
  let xs = Array.init 5000 (fun _ -> Numeric.Rng.gaussian a) in
  let ys = Array.init 5000 (fun _ -> Numeric.Rng.gaussian b) in
  let corr = Numeric.Stats.correlation xs ys in
  Alcotest.(check bool) "streams uncorrelated" true (Float.abs corr < 0.05)

(* ---------- histogram ---------- *)

let test_histogram_density_integrates_to_one () =
  let rng = Numeric.Rng.create ~seed:5 in
  let xs = Array.init 5000 (fun _ -> Numeric.Rng.gaussian rng) in
  let h = Numeric.Histogram.of_samples ~bins:30 xs in
  let series = Numeric.Histogram.density_series h in
  let width =
    match (series.(0), series.(1)) with (x0, _), (x1, _) -> x1 -. x0
  in
  let total = Array.fold_left (fun acc (_, d) -> acc +. (d *. width)) 0.0 series in
  check_close "integral" 1.0 total ~eps:1e-9

let test_histogram_outliers_clamped () =
  let h = Numeric.Histogram.create ~lo:0.0 ~hi:10.0 ~bins:10 in
  Numeric.Histogram.add h (-5.0);
  Numeric.Histogram.add h 50.0;
  Alcotest.(check int) "low outlier" 1 (Numeric.Histogram.bin_count h 0);
  Alcotest.(check int) "high outlier" 1 (Numeric.Histogram.bin_count h 9);
  Alcotest.(check int) "total" 2 (Numeric.Histogram.total h)

let test_histogram_percentile () =
  (* 1000 uniform samples over [0, 1000) in 100 bins: every estimate
     must land within one bin width of the exact quantile. *)
  let h = Numeric.Histogram.create ~lo:0.0 ~hi:1000.0 ~bins:100 in
  for i = 0 to 999 do
    Numeric.Histogram.add h (float_of_int i +. 0.5)
  done;
  List.iter
    (fun p ->
      let exact = p *. 1000.0 in
      let est = Numeric.Histogram.percentile h p in
      Alcotest.(check bool)
        (Printf.sprintf "p%.0f within a bin (got %.1f)" (100.0 *. p) est)
        true
        (Float.abs (est -. exact) <= 10.0))
    [ 0.0; 0.01; 0.5; 0.95; 0.99; 1.0 ];
  (* A single-sample histogram: every quantile falls in its bin. *)
  let one = Numeric.Histogram.create ~lo:0.0 ~hi:10.0 ~bins:10 in
  Numeric.Histogram.add one 4.2;
  let est = Numeric.Histogram.percentile one 0.5 in
  Alcotest.(check bool) "single sample stays in its bin" true
    (est >= 4.0 && est <= 5.0);
  Alcotest.check_raises "empty"
    (Invalid_argument "Histogram.percentile: empty histogram") (fun () ->
      ignore
        (Numeric.Histogram.percentile
           (Numeric.Histogram.create ~lo:0.0 ~hi:1.0 ~bins:2)
           0.5));
  Alcotest.check_raises "domain"
    (Invalid_argument "Histogram.percentile: p must be in [0, 1]") (fun () ->
      ignore (Numeric.Histogram.percentile one 1.5))

let test_histogram_log_bins () =
  (* 0.01 to 100 000 in 70 bins: ten per decade, each 25.9% wide. *)
  let h = Numeric.Histogram.create_log ~lo:0.01 ~hi:100_000.0 ~bins:70 in
  Numeric.Histogram.add h 0.0;
  Numeric.Histogram.add h (-3.0);
  Numeric.Histogram.add h 1e9;
  Alcotest.(check int) "0 and negatives in the first bin" 2
    (Numeric.Histogram.bin_count h 0);
  Alcotest.(check int) "huge in the last bin" 1
    (Numeric.Histogram.bin_count h 69);
  (* Samples spread over six decades: every quantile is read within one
     bin ratio of the nearest-rank sample. *)
  let h = Numeric.Histogram.empty_like h in
  Alcotest.(check int) "empty_like is empty" 0 (Numeric.Histogram.total h);
  let xs = Array.init 600 (fun i -> 0.05 *. (10.0 ** (float_of_int i /. 100.0))) in
  Array.iter (Numeric.Histogram.add h) xs;
  let ratio = 10.0 ** 0.1 in
  List.iter
    (fun p ->
      let exact = xs.(max 0 (int_of_float (ceil (p *. 600.0)) - 1)) in
      let est = Numeric.Histogram.percentile h p in
      Alcotest.(check bool)
        (Printf.sprintf "p%g: %g within a bin of %g" p est exact)
        true
        (est >= exact /. ratio && est <= exact *. ratio))
    [ 0.01; 0.5; 0.95; 0.99 ];
  Alcotest.(check bool) "geometric bin centre" true
    (Float.abs (Numeric.Histogram.bin_center h 0 -. (0.01 *. sqrt ratio)) < 1e-12);
  Alcotest.check_raises "log and linear bins do not merge"
    (Invalid_argument "Histogram.merge: histograms must share lo/hi/bins")
    (fun () ->
      ignore
        (Numeric.Histogram.merge h
           (Numeric.Histogram.create ~lo:0.01 ~hi:100_000.0 ~bins:70)));
  Alcotest.check_raises "lo must be positive"
    (Invalid_argument "Histogram.create_log: need 0 < lo < hi") (fun () ->
      ignore (Numeric.Histogram.create_log ~lo:0.0 ~hi:1.0 ~bins:4))

let test_histogram_validation () =
  Alcotest.check_raises "bins > 0"
    (Invalid_argument "Histogram.create: bins must be > 0") (fun () ->
      ignore (Numeric.Histogram.create ~lo:0.0 ~hi:1.0 ~bins:0));
  Alcotest.check_raises "hi > lo"
    (Invalid_argument "Histogram.create: hi must exceed lo") (fun () ->
      ignore (Numeric.Histogram.create ~lo:1.0 ~hi:1.0 ~bins:4))

let prop_cdf_symmetry =
  QCheck.Test.make ~name:"Phi(x) + Phi(-x) = 1" ~count:300
    QCheck.(float_range (-8.0) 8.0)
    (fun x ->
      Float.abs (Numeric.Normal.cdf x +. Numeric.Normal.cdf (-.x) -. 1.0) < 1e-12)

let test_pdf_integrates_to_one () =
  (* Trapezoidal integration over [-8, 8]. *)
  let n = 4000 in
  let h = 16.0 /. float_of_int n in
  let acc = ref 0.0 in
  for i = 0 to n do
    let x = -8.0 +. (h *. float_of_int i) in
    let w = if i = 0 || i = n then 0.5 else 1.0 in
    acc := !acc +. (w *. Numeric.Normal.pdf x)
  done;
  check_close "integral" 1.0 (!acc *. h) ~eps:1e-9

let test_solve_1x1 () =
  let x = Numeric.Linalg.solve [| [| 4.0 |] |] [| 8.0 |] in
  check_close "trivial system" 2.0 x.(0) ~eps:1e-12

let test_least_squares_underdetermined () =
  Alcotest.check_raises "m < n rejected"
    (Invalid_argument "Linalg.least_squares: underdetermined system") (fun () ->
      ignore (Numeric.Linalg.least_squares [| [| 1.0; 2.0 |] |] [| 1.0 |]))

let test_fit_line_two_points_exact () =
  let intercept, slope = Numeric.Linalg.fit_line [| (1.0, 5.0); (3.0, 9.0) |] in
  check_close "slope" 2.0 slope ~eps:1e-12;
  check_close "intercept" 3.0 intercept ~eps:1e-12

let test_rng_int_bounds () =
  let rng = Numeric.Rng.create ~seed:8 in
  for _ = 1 to 500 do
    let v = Numeric.Rng.int rng ~bound:7 in
    Alcotest.(check bool) "in [0,7)" true (v >= 0 && v < 7)
  done;
  Alcotest.check_raises "bound must be positive"
    (Invalid_argument "Rng.int: bound must be > 0") (fun () ->
      ignore (Numeric.Rng.int rng ~bound:0));
  Alcotest.check_raises "range order"
    (Invalid_argument "Rng.uniform_range: hi < lo") (fun () ->
      ignore (Numeric.Rng.uniform_range rng ~lo:1.0 ~hi:0.0))

let test_covariance_mismatch () =
  Alcotest.check_raises "length mismatch"
    (Invalid_argument "Stats.covariance: empty or mismatched samples") (fun () ->
      ignore (Numeric.Stats.covariance [| 1.0 |] [| 1.0; 2.0 |]))

let test_percentile_domain () =
  Alcotest.check_raises "p out of range"
    (Invalid_argument "Stats.percentile: p must lie in [0, 1]") (fun () ->
      ignore (Numeric.Stats.percentile [| 1.0 |] 1.5))

(* ---------- discrete pmf ---------- *)

let test_pmf_construction () =
  let p = Numeric.Pmf.of_points [ (2.0, 1.0); (1.0, 1.0); (2.0, 2.0) ] in
  Alcotest.(check int) "merged equal values" 2 (Numeric.Pmf.size p);
  check_close "mean" ((1.0 /. 4.0) +. (2.0 *. 3.0 /. 4.0)) (Numeric.Pmf.mean p)
    ~eps:1e-12;
  Alcotest.check_raises "negative weight" (Invalid_argument "Pmf: negative weight")
    (fun () -> ignore (Numeric.Pmf.of_points [ (1.0, -1.0) ]));
  let c = Numeric.Pmf.constant 5.0 in
  check_close "constant mean" 5.0 (Numeric.Pmf.mean c);
  check_close "constant std" 0.0 (Numeric.Pmf.std c)

let test_pmf_of_normal_moments () =
  let p = Numeric.Pmf.of_normal ~points:31 ~mu:10.0 ~sigma:2.0 () in
  check_close "mean" 10.0 (Numeric.Pmf.mean p) ~eps:1e-9;
  (* Strip-median discretisation slightly under-disperses. *)
  Alcotest.(check bool) "std close" true
    (Float.abs (Numeric.Pmf.std p -. 2.0) < 0.2);
  check_close "degenerate" 3.0 (Numeric.Pmf.mean (Numeric.Pmf.of_normal ~mu:3.0 ~sigma:0.0 ()))

let test_pmf_add_independent () =
  let a = Numeric.Pmf.of_points [ (0.0, 0.5); (2.0, 0.5) ] in
  let b = Numeric.Pmf.of_points [ (1.0, 0.5); (3.0, 0.5) ] in
  let s = Numeric.Pmf.add a b in
  check_close "sum mean" 3.0 (Numeric.Pmf.mean s) ~eps:1e-12;
  check_close "sum variance" (Numeric.Pmf.variance a +. Numeric.Pmf.variance b)
    (Numeric.Pmf.variance s) ~eps:1e-12;
  (* Support: 1,3,3,5 -> {1: .25, 3: .5, 5: .25}. *)
  Alcotest.(check int) "support" 3 (Numeric.Pmf.size s);
  check_close "P(X<=1)" 0.25 (Numeric.Pmf.cdf s 1.0) ~eps:1e-12;
  check_close "P(X<=3)" 0.75 (Numeric.Pmf.cdf s 3.0) ~eps:1e-12

let test_pmf_min_max () =
  let a = Numeric.Pmf.of_points [ (1.0, 0.5); (4.0, 0.5) ] in
  let b = Numeric.Pmf.of_points [ (2.0, 0.5); (3.0, 0.5) ] in
  let mn = Numeric.Pmf.min2 a b and mx = Numeric.Pmf.max2 a b in
  (* min support: 1 (p .5), 2 (.25), 3 (.25); max: 2 (.25), 3 (.25), 4 (.5). *)
  check_close "min mean" ((1.0 *. 0.5) +. (2.0 *. 0.25) +. (3.0 *. 0.25))
    (Numeric.Pmf.mean mn) ~eps:1e-12;
  check_close "max mean" ((2.0 *. 0.25) +. (3.0 *. 0.25) +. (4.0 *. 0.5))
    (Numeric.Pmf.mean mx) ~eps:1e-12;
  (* E[min] + E[max] = E[a] + E[b]. *)
  check_close "min+max identity"
    (Numeric.Pmf.mean a +. Numeric.Pmf.mean b)
    (Numeric.Pmf.mean mn +. Numeric.Pmf.mean mx)
    ~eps:1e-12

let test_pmf_compact_preserves_mean () =
  let a = Numeric.Pmf.of_normal ~points:31 ~mu:0.0 ~sigma:1.0 () in
  let b = Numeric.Pmf.of_normal ~points:31 ~mu:5.0 ~sigma:2.0 () in
  let s = Numeric.Pmf.add a b in
  Alcotest.(check bool) "support capped" true
    (Numeric.Pmf.size s <= Numeric.Pmf.max_support);
  check_close "mean preserved" 5.0 (Numeric.Pmf.mean s) ~eps:1e-9;
  Alcotest.(check bool) "variance approximately preserved" true
    (Float.abs (Numeric.Pmf.variance s -. (Numeric.Pmf.variance a +. Numeric.Pmf.variance b))
    < 0.3)

let test_pmf_percentile_and_dominance () =
  let p = Numeric.Pmf.of_points [ (1.0, 0.2); (2.0, 0.3); (3.0, 0.5) ] in
  check_close "p20" 1.0 (Numeric.Pmf.percentile p 0.2);
  check_close "p50" 2.0 (Numeric.Pmf.percentile p 0.5);
  check_close "p100" 3.0 (Numeric.Pmf.percentile p 1.0);
  let hi = Numeric.Pmf.shift 1.0 p in
  Alcotest.(check bool) "shifted dominates" true
    (Numeric.Pmf.stochastically_dominates hi p);
  Alcotest.(check bool) "original does not dominate" false
    (Numeric.Pmf.stochastically_dominates p hi);
  (* Crossing CDFs: neither dominates. *)
  let narrow = Numeric.Pmf.of_points [ (2.0, 1.0) ] in
  let wide = Numeric.Pmf.of_points [ (1.0, 0.5); (3.0, 0.5) ] in
  Alcotest.(check bool) "crossing cdfs" false
    (Numeric.Pmf.stochastically_dominates narrow wide
    || Numeric.Pmf.stochastically_dominates wide narrow)

let test_pmf_scale_negative () =
  let p = Numeric.Pmf.of_points [ (1.0, 0.5); (2.0, 0.5) ] in
  let q = Numeric.Pmf.scale (-2.0) p in
  check_close "mean" (-3.0) (Numeric.Pmf.mean q) ~eps:1e-12;
  let vs = Numeric.Pmf.support q in
  Alcotest.(check bool) "sorted ascending" true (fst vs.(0) < fst vs.(1))

let qcheck = QCheck_alcotest.to_alcotest

let suite =
  [
    Alcotest.test_case "erf known values" `Quick test_erf_known_values;
    Alcotest.test_case "erfc known values" `Quick test_erfc_known_values;
    qcheck prop_erf_odd;
    qcheck prop_erf_erfc_complement;
    Alcotest.test_case "normal cdf known values" `Quick test_cdf_known_values;
    Alcotest.test_case "normal pdf known values" `Quick test_pdf_known_values;
    Alcotest.test_case "normal quantile known values" `Quick test_quantile_known_values;
    Alcotest.test_case "normal quantile domain" `Quick test_quantile_domain;
    qcheck prop_quantile_cdf_roundtrip;
    qcheck prop_cdf_monotone;
    Alcotest.test_case "mu/sigma helpers" `Quick test_mu_sigma_helpers;
    Alcotest.test_case "summarize" `Quick test_summarize;
    Alcotest.test_case "summarize empty" `Quick test_summarize_empty;
    Alcotest.test_case "percentile" `Quick test_percentile;
    Alcotest.test_case "covariance / correlation" `Quick test_covariance_correlation;
    qcheck prop_welford_matches_direct;
    Alcotest.test_case "linalg solve" `Quick test_solve;
    Alcotest.test_case "linalg solve with pivoting" `Quick test_solve_pivoting;
    Alcotest.test_case "linalg singular" `Quick test_solve_singular;
    Alcotest.test_case "fit_line" `Quick test_fit_line;
    Alcotest.test_case "least squares overdetermined" `Quick
      test_least_squares_overdetermined;
    qcheck prop_solve_roundtrip;
    Alcotest.test_case "rng determinism" `Quick test_rng_determinism;
    Alcotest.test_case "rng gaussian moments" `Quick test_rng_gaussian_moments;
    Alcotest.test_case "rng uniform range" `Quick test_rng_uniform_range;
    Alcotest.test_case "rng split independence" `Quick test_rng_split_independent;
    Alcotest.test_case "histogram integrates to 1" `Quick
      test_histogram_density_integrates_to_one;
    Alcotest.test_case "histogram clamps outliers" `Quick
      test_histogram_outliers_clamped;
    Alcotest.test_case "histogram validation" `Quick test_histogram_validation;
    Alcotest.test_case "histogram percentile" `Quick test_histogram_percentile;
    Alcotest.test_case "pmf construction" `Quick test_pmf_construction;
    Alcotest.test_case "pmf of_normal moments" `Quick test_pmf_of_normal_moments;
    Alcotest.test_case "pmf add independent" `Quick test_pmf_add_independent;
    Alcotest.test_case "pmf min/max" `Quick test_pmf_min_max;
    Alcotest.test_case "pmf compaction" `Quick test_pmf_compact_preserves_mean;
    Alcotest.test_case "pmf percentile / dominance" `Quick
      test_pmf_percentile_and_dominance;
    Alcotest.test_case "pmf negative scale" `Quick test_pmf_scale_negative;
    qcheck prop_cdf_symmetry;
    Alcotest.test_case "pdf integrates to 1" `Quick test_pdf_integrates_to_one;
    Alcotest.test_case "solve 1x1" `Quick test_solve_1x1;
    Alcotest.test_case "least squares underdetermined" `Quick
      test_least_squares_underdetermined;
    Alcotest.test_case "fit_line exact through 2 points" `Quick
      test_fit_line_two_points_exact;
    Alcotest.test_case "rng int bounds" `Quick test_rng_int_bounds;
    Alcotest.test_case "covariance mismatch" `Quick test_covariance_mismatch;
    Alcotest.test_case "stats percentile domain" `Quick test_percentile_domain;
    Alcotest.test_case "percentile = polymorphic-compare sort" `Quick
      test_percentile_matches_poly_compare;
    Alcotest.test_case "histogram log bins" `Quick test_histogram_log_bins;
  ]
