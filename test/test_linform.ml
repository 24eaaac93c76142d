(* Tests for canonical first-order forms: construction, arithmetic,
   second-order statistics, probabilistic comparison and the
   statistical min of Eq. 38, including the paper's Lemmas as
   properties. *)

let check_close ?(eps = 1e-9) what expected got =
  Alcotest.(check bool)
    (Printf.sprintf "%s: |%.9g - %.9g| <= %g" what expected got eps)
    true
    (Float.abs (expected -. got) <= eps)

let form nominal sens = Linform.make ~nominal ~sens

(* ---------- construction ---------- *)

let test_make_merges_duplicates () =
  let f = form 1.0 [ (3, 2.0); (1, 1.0); (3, -1.0) ] in
  Alcotest.(check int) "support" 2 (Linform.support_size f);
  check_close "coeff 3" 1.0 (Linform.sensitivity f 3);
  check_close "coeff 1" 1.0 (Linform.sensitivity f 1);
  check_close "coeff absent" 0.0 (Linform.sensitivity f 2)

let test_make_drops_zeros () =
  let f = form 1.0 [ (1, 0.0); (2, 3.0); (5, 2.0); (5, -2.0) ] in
  Alcotest.(check int) "support" 1 (Linform.support_size f);
  check_close "variance" 9.0 (Linform.variance f)

let test_const () =
  let f = Linform.const 4.2 in
  Alcotest.(check bool) "deterministic" true (Linform.is_deterministic f);
  check_close "mean" 4.2 (Linform.mean f);
  check_close "std" 0.0 (Linform.std f)

(* ---------- arithmetic ---------- *)

let test_add_sub () =
  let a = form 1.0 [ (1, 2.0); (2, 1.0) ] in
  let b = form 3.0 [ (2, 2.0); (4, -1.0) ] in
  let s = Linform.add a b in
  check_close "sum mean" 4.0 (Linform.mean s);
  check_close "sum coeff 1" 2.0 (Linform.sensitivity s 1);
  check_close "sum coeff 2" 3.0 (Linform.sensitivity s 2);
  check_close "sum coeff 4" (-1.0) (Linform.sensitivity s 4);
  let d = Linform.sub a b in
  check_close "diff mean" (-2.0) (Linform.mean d);
  check_close "diff coeff 2" (-1.0) (Linform.sensitivity d 2);
  (* a - a is exactly zero *)
  let z = Linform.sub a a in
  Alcotest.(check bool) "self-diff deterministic" true (Linform.is_deterministic z);
  check_close "self-diff mean" 0.0 (Linform.mean z)

let test_scale_shift_neg () =
  let a = form 2.0 [ (1, 3.0) ] in
  let s = Linform.scale (-2.0) a in
  check_close "scale mean" (-4.0) (Linform.mean s);
  check_close "scale coeff" (-6.0) (Linform.sensitivity s 1);
  check_close "scale variance" 36.0 (Linform.variance s);
  check_close "shift" 7.0 (Linform.mean (Linform.shift 5.0 a));
  check_close "neg mean" (-2.0) (Linform.mean (Linform.neg a));
  Alcotest.(check bool) "scale by zero" true
    (Linform.is_deterministic (Linform.scale 0.0 a))

let prop_axpy_matches_scale_add =
  let gen =
    QCheck.Gen.(
      let small_form =
        let* nominal = float_range (-50.0) 50.0 in
        let* sens =
          list_size (int_range 0 6)
            (pair (int_range 0 10) (float_range (-5.0) 5.0))
        in
        return (Linform.make ~nominal ~sens)
      in
      triple (float_range (-3.0) 3.0) small_form small_form)
  in
  QCheck.Test.make ~name:"axpy a x y = scale a x + y" ~count:300 (QCheck.make gen)
    (fun (a, x, y) ->
      let lhs = Linform.axpy a x y in
      let rhs = Linform.add (Linform.scale a x) y in
      Float.abs (Linform.mean lhs -. Linform.mean rhs) < 1e-9
      && Float.abs (Linform.variance lhs -. Linform.variance rhs) < 1e-7
      && Linform.support_size lhs = Linform.support_size rhs)

let test_mul_first_order () =
  let a = form 2.0 [ (1, 0.5); (2, 1.0) ] in
  let b = form 3.0 [ (2, 0.2); (3, -1.0) ] in
  let p = Linform.mul_first_order a b in
  check_close "product mean" 6.0 (Linform.mean p);
  check_close "coeff 1" (3.0 *. 0.5) (Linform.sensitivity p 1);
  check_close "coeff 2" ((3.0 *. 1.0) +. (2.0 *. 0.2)) (Linform.sensitivity p 2);
  check_close "coeff 3" (2.0 *. -1.0) (Linform.sensitivity p 3);
  (* Exact when one operand is deterministic. *)
  let k = Linform.const 4.0 in
  let q = Linform.mul_first_order k a in
  check_close "const product = scale (mean)" (Linform.mean (Linform.scale 4.0 a))
    (Linform.mean q);
  check_close "const product = scale (var)"
    (Linform.variance (Linform.scale 4.0 a))
    (Linform.variance q)

(* ---------- second-order statistics ---------- *)

let test_variance_covariance () =
  let a = form 0.0 [ (1, 3.0); (2, 4.0) ] in
  check_close "variance" 25.0 (Linform.variance a);
  check_close "std" 5.0 (Linform.std a);
  let b = form 0.0 [ (2, 2.0); (3, 1.0) ] in
  check_close "covariance" 8.0 (Linform.covariance a b);
  check_close "correlation" (8.0 /. (5.0 *. sqrt 5.0)) (Linform.correlation a b)
    ~eps:1e-12;
  check_close "self correlation" 1.0 (Linform.correlation a a) ~eps:1e-12

let test_std_diff () =
  let a = form 0.0 [ (1, 3.0) ] in
  let b = form 0.0 [ (1, 3.0) ] in
  check_close "identical forms" 0.0 (Linform.std_diff a b);
  let c = form 0.0 [ (2, 4.0) ] in
  check_close "independent forms" 5.0 (Linform.std_diff a c)

let prop_std_diff_matches_sub =
  let gen =
    QCheck.Gen.(
      let small_form =
        let* nominal = float_range (-50.0) 50.0 in
        let* sens =
          list_size (int_range 0 6)
            (pair (int_range 0 8) (float_range (-5.0) 5.0))
        in
        return (Linform.make ~nominal ~sens)
      in
      pair small_form small_form)
  in
  QCheck.Test.make ~name:"std_diff a b = std (sub a b)" ~count:300
    (QCheck.make gen) (fun (a, b) ->
      Float.abs (Linform.std_diff a b -. Linform.std (Linform.sub a b)) < 1e-9)

let prop_cauchy_schwarz =
  let gen =
    QCheck.Gen.(
      let small_form =
        let* sens =
          list_size (int_range 1 6)
            (pair (int_range 0 8) (float_range (-5.0) 5.0))
        in
        return (Linform.make ~nominal:0.0 ~sens)
      in
      pair small_form small_form)
  in
  QCheck.Test.make ~name:"|cov| <= sigma_a sigma_b" ~count:300 (QCheck.make gen)
    (fun (a, b) ->
      Float.abs (Linform.covariance a b)
      <= (Linform.std a *. Linform.std b) +. 1e-9)

(* ---------- probabilistic comparison ---------- *)

let test_prob_greater_deterministic () =
  check_close "5 > 3" 1.0 (Linform.prob_greater (Linform.const 5.0) (Linform.const 3.0));
  check_close "3 > 5" 0.0 (Linform.prob_greater (Linform.const 3.0) (Linform.const 5.0));
  check_close "tie" 0.5 (Linform.prob_greater (Linform.const 3.0) (Linform.const 3.0))

let test_prob_greater_eq8 () =
  (* Eq. 8-9 by hand: mu diff 1, independent sigmas 3 and 4 -> sigma12 = 5. *)
  let a = form 1.0 [ (1, 3.0) ] and b = form 0.0 [ (2, 4.0) ] in
  check_close "Phi(1/5)" (Numeric.Normal.cdf 0.2) (Linform.prob_greater a b) ~eps:1e-12

let prop_prob_greater_complement =
  let gen =
    QCheck.Gen.(
      let small_form =
        let* nominal = float_range (-10.0) 10.0 in
        let* sens =
          list_size (int_range 1 4)
            (pair (int_range 0 6) (float_range 0.1 3.0))
        in
        return (Linform.make ~nominal ~sens)
      in
      pair small_form small_form)
  in
  QCheck.Test.make ~name:"P(A>B) + P(B>A) = 1 (Lemma 2)" ~count:300
    (QCheck.make gen) (fun (a, b) ->
      Float.abs (Linform.prob_greater a b +. Linform.prob_greater b a -. 1.0)
      < 1e-9)

let prop_lemma4_mean_order =
  (* Lemma 4: P(A > B) > 0.5 iff mean A > mean B (non-degenerate diff). *)
  let gen =
    QCheck.Gen.(
      let small_form priv =
        let* nominal = float_range (-10.0) 10.0 in
        let* shared = float_range 0.1 3.0 in
        let* own = float_range 0.1 3.0 in
        return (Linform.make ~nominal ~sens:[ (0, shared); (priv, own) ])
      in
      pair (small_form 1) (small_form 2))
  in
  QCheck.Test.make ~name:"Lemma 4: P(A>B) > 1/2 iff mu_A > mu_B" ~count:300
    (QCheck.make gen) (fun (a, b) ->
      let p = Linform.prob_greater a b in
      if Linform.mean a > Linform.mean b then p > 0.5
      else if Linform.mean a < Linform.mean b then p < 0.5
      else Float.abs (p -. 0.5) < 1e-9)

let prop_theorem2_transitivity =
  (* Theorem 2: the probabilistic ordering is transitive at any
     threshold p in [0.5, 1) for jointly normal variables. *)
  let gen =
    QCheck.Gen.(
      let small_form priv =
        let* nominal = float_range (-10.0) 10.0 in
        let* shared = float_range 0.1 2.0 in
        let* own = float_range 0.1 2.0 in
        return (Linform.make ~nominal ~sens:[ (0, shared); (priv, own) ])
      in
      let* p = float_range 0.5 0.99 in
      let* a = small_form 1 and* b = small_form 2 and* c = small_form 3 in
      return (p, a, b, c))
  in
  QCheck.Test.make ~name:"Theorem 2: transitivity of P(.>.) > p" ~count:500
    (QCheck.make gen) (fun (p, a, b, c) ->
      let p_ab = Linform.prob_greater a b in
      let p_bc = Linform.prob_greater b c in
      if p_ab > p && p_bc > p then Linform.prob_greater a c > p else true)

let test_percentile () =
  let a = form 10.0 [ (1, 2.0) ] in
  check_close "median" 10.0 (Linform.percentile a 0.5) ~eps:1e-9;
  check_close "p95" (10.0 +. (2.0 *. 1.6448536269514722)) (Linform.percentile a 0.95)
    ~eps:1e-8;
  check_close "deterministic percentile" 4.0
    (Linform.percentile (Linform.const 4.0) 0.95)

(* ---------- statistical min / max ---------- *)

let test_stat_min_deterministic () =
  let a = Linform.const 3.0 and b = Linform.const 5.0 in
  check_close "min consts" 3.0 (Linform.mean (Linform.stat_min a b));
  check_close "max consts" 5.0 (Linform.mean (Linform.stat_max a b))

let test_stat_min_identical () =
  let a = form 4.0 [ (1, 2.0) ] in
  let m = Linform.stat_min a a in
  check_close "min of identical = itself (mean)" 4.0 (Linform.mean m);
  check_close "min of identical = itself (std)" 2.0 (Linform.std m)

let test_stat_min_clear_dominance () =
  (* When one operand is almost surely smaller, the min is that operand. *)
  let a = form 0.0 [ (1, 0.1) ] and b = form 100.0 [ (2, 0.1) ] in
  let m = Linform.stat_min a b in
  check_close "mean = smaller" 0.0 (Linform.mean m) ~eps:1e-6;
  check_close "std = smaller's" 0.1 (Linform.std m) ~eps:1e-6

let test_stat_min_symmetric_penalty () =
  (* Equal means, independent unit sigmas: E[min] = -sigma_d * phi(0)
     with sigma_d = sqrt 2. *)
  let a = form 0.0 [ (1, 1.0) ] and b = form 0.0 [ (2, 1.0) ] in
  let m = Linform.stat_min a b in
  check_close "Clark mean" (-.(sqrt 2.0) *. Numeric.Normal.pdf 0.0) (Linform.mean m)
    ~eps:1e-9

let prop_stat_min_bounds =
  let gen =
    QCheck.Gen.(
      let small_form priv =
        let* nominal = float_range (-10.0) 10.0 in
        let* shared = float_range 0.0 2.0 in
        let* own = float_range 0.1 2.0 in
        return (Linform.make ~nominal ~sens:[ (0, shared); (priv, own) ])
      in
      pair (small_form 1) (small_form 2))
  in
  QCheck.Test.make ~name:"E[min] <= min of means; max = -min(-,-)" ~count:300
    (QCheck.make gen) (fun (a, b) ->
      let m = Linform.stat_min a b in
      let mx = Linform.stat_max (Linform.neg a) (Linform.neg b) in
      Linform.mean m <= Float.min (Linform.mean a) (Linform.mean b) +. 1e-9
      && Float.abs (Linform.mean mx +. Linform.mean m) < 1e-9)

let prop_stat_min_vs_monte_carlo =
  (* Eq. 38's mean must match a sampled E[min] within MC error. *)
  let gen =
    QCheck.Gen.(
      let* mu_b = float_range (-2.0) 2.0 in
      let* shared = float_range 0.0 1.5 in
      let* own_a = float_range 0.1 1.5 in
      let* own_b = float_range 0.1 1.5 in
      return (mu_b, shared, own_a, own_b))
  in
  QCheck.Test.make ~name:"stat_min mean matches Monte Carlo" ~count:30
    (QCheck.make gen) (fun (mu_b, shared, own_a, own_b) ->
      let a = form 0.0 [ (0, shared); (1, own_a) ] in
      let b = form mu_b [ (0, shared); (2, own_b) ] in
      let m = Linform.stat_min a b in
      let rng = Numeric.Rng.create ~seed:17 in
      let acc = Numeric.Stats.create () in
      for _ = 1 to 20_000 do
        let x0 = Numeric.Rng.gaussian rng in
        let x1 = Numeric.Rng.gaussian rng in
        let x2 = Numeric.Rng.gaussian rng in
        let lookup i = match i with 0 -> x0 | 1 -> x1 | 2 -> x2 | _ -> 0.0 in
        Numeric.Stats.add acc
          (Float.min (Linform.eval a lookup) (Linform.eval b lookup))
      done;
      Float.abs (Numeric.Stats.acc_mean acc -. Linform.mean m) < 0.05)

let test_prob_greater_identical_forms () =
  let a = form 3.0 [ (1, 2.0) ] in
  check_close "P(A > A) = 1/2" 0.5 (Linform.prob_greater a a)

let prop_percentile_monotone =
  let gen =
    QCheck.Gen.(
      let* sens =
        list_size (int_range 1 4) (pair (int_range 0 6) (float_range 0.1 3.0))
      in
      let* p1 = float_range 0.01 0.99 in
      let* p2 = float_range 0.01 0.99 in
      return (Linform.make ~nominal:0.0 ~sens, p1, p2))
  in
  QCheck.Test.make ~name:"percentile monotone in p" ~count:300 (QCheck.make gen)
    (fun (f, p1, p2) ->
      let lo = Float.min p1 p2 and hi = Float.max p1 p2 in
      Linform.percentile f lo <= Linform.percentile f hi +. 1e-12)

let prop_sensitivities_canonical =
  (* Whatever the operation, the sparse vector stays sorted and free of
     zeros. *)
  let gen =
    QCheck.Gen.(
      let small_form =
        let* nominal = float_range (-10.0) 10.0 in
        let* sens =
          list_size (int_range 0 8)
            (pair (int_range 0 10) (float_range (-3.0) 3.0))
        in
        return (Linform.make ~nominal ~sens)
      in
      pair small_form small_form)
  in
  QCheck.Test.make ~name:"sensitivity vectors stay canonical" ~count:300
    (QCheck.make gen) (fun (a, b) ->
      let canonical f =
        let s = Linform.sensitivities f in
        let ok = ref true in
        Array.iteri
          (fun i (id, v) ->
            if v = 0.0 then ok := false;
            if i > 0 && fst s.(i - 1) >= id then ok := false)
          s;
        !ok
      in
      List.for_all canonical
        [ Linform.add a b; Linform.sub a b; Linform.stat_min a b;
          Linform.axpy 2.0 a b; Linform.mul_first_order a b ])

(* ---------- evaluation and projection ---------- *)

let test_eval () =
  let f = form 2.0 [ (1, 3.0); (4, -1.0) ] in
  let lookup = function 1 -> 2.0 | 4 -> 1.0 | _ -> 0.0 in
  check_close "eval" 7.0 (Linform.eval f lookup)

let test_map_sens () =
  let f = form 2.0 [ (1, 3.0); (4, -1.0) ] in
  let g = Linform.map_sens (fun i a -> if i = 4 then 0.0 else 2.0 *. a) f in
  Alcotest.(check int) "support" 1 (Linform.support_size g);
  check_close "kept coeff doubled" 6.0 (Linform.sensitivity g 1);
  check_close "mean unchanged" 2.0 (Linform.mean g)

let prop_eval_linear =
  let gen =
    QCheck.Gen.(
      let* nominal = float_range (-10.0) 10.0 in
      let* sens =
        list_size (int_range 0 5) (pair (int_range 0 6) (float_range (-3.0) 3.0))
      in
      let* xs = array_size (return 7) (float_range (-2.0) 2.0) in
      return (Linform.make ~nominal ~sens, xs))
  in
  QCheck.Test.make ~name:"eval is linear in the sources" ~count:300
    (QCheck.make gen) (fun (f, xs) ->
      let lookup i = xs.(i) in
      let direct = Linform.eval f lookup in
      let by_hand =
        Array.fold_left
          (fun acc (i, a) -> acc +. (a *. xs.(i)))
          (Linform.mean f) (Linform.sensitivities f)
      in
      Float.abs (direct -. by_hand) < 1e-9)

(* ---------- SoA kernels vs the assoc-list reference oracle ---------- *)

(* [Linform_reference] is a deliberately naive assoc-list
   implementation of the same algebra, sharing nothing with the merge
   kernels.  Random forms with overlapping supports (shared low ids,
   private high ids, duplicates and sign cancellations in the raw sens
   list) are pushed through both; means, variances, covariances,
   stat_min and every coefficient must agree to 1e-12. *)

let oracle_form_gen =
  QCheck.Gen.(
    let* nominal = float_range (-50.0) 50.0 in
    let* sens =
      list_size (int_range 0 8)
        (pair (int_range 0 12) (float_range (-5.0) 5.0))
    in
    return (Linform.make ~nominal ~sens))

let oracle_close x y =
  Float.abs (x -. y) <= 1e-12 *. Float.max 1.0 (Float.abs x)

(* Compare over the union of both supports, so a coefficient dropped by
   one side but kept (tiny) by the other still gets checked. *)
let oracle_agrees f rf =
  let ids =
    List.sort_uniq compare
      (List.map fst rf.Linform_reference.r_sens
      @ Array.to_list (Array.map fst (Linform.sensitivities f)))
  in
  oracle_close (Linform.mean f) (Linform_reference.mean rf)
  && oracle_close (Linform.variance f) (Linform_reference.variance rf)
  && List.for_all
       (fun i ->
         oracle_close (Linform.sensitivity f i) (Linform_reference.coeff rf i))
       ids

let prop_oracle_linear_ops =
  let gen =
    QCheck.Gen.(triple (float_range (-3.0) 3.0) oracle_form_gen oracle_form_gen)
  in
  QCheck.Test.make ~name:"SoA add/sub/axpy/mul match reference (1e-12)"
    ~count:500 (QCheck.make gen) (fun (k, a, b) ->
      let ra = Linform_reference.of_form a in
      let rb = Linform_reference.of_form b in
      oracle_agrees (Linform.add a b) (Linform_reference.add ra rb)
      && oracle_agrees (Linform.sub a b) (Linform_reference.sub ra rb)
      && oracle_agrees (Linform.axpy k a b) (Linform_reference.axpy k ra rb)
      && oracle_agrees
           (Linform.mul_first_order a b)
           (Linform_reference.mul_first_order ra rb))

let prop_oracle_second_order =
  let gen = QCheck.Gen.(pair oracle_form_gen oracle_form_gen) in
  QCheck.Test.make ~name:"SoA variance/covariance match reference (1e-12)"
    ~count:500 (QCheck.make gen) (fun (a, b) ->
      let ra = Linform_reference.of_form a in
      let rb = Linform_reference.of_form b in
      oracle_close (Linform.variance a) (Linform_reference.variance ra)
      && oracle_close (Linform.covariance a b)
           (Linform_reference.covariance ra rb))

let prop_oracle_stat_min =
  let gen = QCheck.Gen.(pair oracle_form_gen oracle_form_gen) in
  QCheck.Test.make ~name:"SoA stat_min matches reference (1e-12)" ~count:500
    (QCheck.make gen) (fun (a, b) ->
      let ra = Linform_reference.of_form a in
      let rb = Linform_reference.of_form b in
      oracle_agrees (Linform.stat_min a b) (Linform_reference.stat_min ra rb))

let prop_oracle_roundtrip =
  QCheck.Test.make ~name:"Reference.to_form . of_form = id" ~count:300
    (QCheck.make oracle_form_gen) (fun f ->
      let g = Linform_reference.(to_form (of_form f)) in
      Linform.mean g = Linform.mean f
      && Linform.sensitivities g = Linform.sensitivities f)

let prop_axpy_shift_fused =
  (* The fused wire-lift kernel must be bit-identical to the two-step
     form it replaced — the DP goldens depend on it. *)
  let gen =
    QCheck.Gen.(
      let* k = float_range (-3.0) 3.0 in
      let* c = float_range (-10.0) 10.0 in
      let* x = oracle_form_gen and* y = oracle_form_gen in
      return (k, c, x, y))
  in
  QCheck.Test.make ~name:"axpy_shift k x y c = shift c (axpy k x y) exactly"
    ~count:300 (QCheck.make gen) (fun (k, c, x, y) ->
      let fused = Linform.axpy_shift k x y c in
      let unfused = Linform.shift c (Linform.axpy k x y) in
      Linform.mean fused = Linform.mean unfused
      && Linform.variance fused = Linform.variance unfused
      && Linform.sensitivities fused = Linform.sensitivities unfused)

(* ---------- bit-exact oracle on a dyadic grid ---------- *)

(* Coefficients k/8, ids from a small range, and a [b] that repeats
   some of [a]'s entries exactly, negated, or scaled by [-k]: products
   and sums stay exact on this grid, so add, sub and axpy cancel whole
   entries in the middle of the arrays, and the kernels must drop the
   same zeros and round the same way as the reference — equality is
   bit for bit, not to a tolerance. *)
let dyadic_gen =
  QCheck.Gen.(
    let eighth = map (fun m -> float_of_int m /. 8.0) (int_range (-24) 24) in
    let entries = list_size (int_range 0 10) (pair (int_range 0 11) eighth) in
    let* k = map (fun m -> float_of_int m /. 8.0) (int_range (-16) 16) in
    let* c = eighth in
    let* nominal_a = eighth and* sens_a = entries in
    let a = Linform.make ~nominal:nominal_a ~sens:sens_a in
    let* shared =
      flatten_l
        (List.map
           (fun (i, x) ->
             map
               (function
                 | 1 -> [ (i, x) ]
                 | 2 -> [ (i, -.x) ]
                 | 3 -> [ (i, -.(k *. x)) ]
                 | _ -> [])
               (int_range 0 3))
           (Array.to_list (Linform.sensitivities a)))
    in
    let* nominal_b = eighth
    and* own = list_size (int_range 0 4) (pair (int_range 0 15) eighth) in
    let b = Linform.make ~nominal:nominal_b ~sens:(List.concat shared @ own) in
    return (k, c, a, b))

let bits_equal x y = Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float y)

let exactly f rf =
  let sens = Linform.sensitivities f in
  let rsens = Array.of_list rf.Linform_reference.r_sens in
  bits_equal (Linform.mean f) (Linform_reference.mean rf)
  && bits_equal (Linform.variance f) (Linform_reference.variance rf)
  && Array.map fst sens = Array.map fst rsens
  && Array.for_all2 (fun (_, x) (_, y) -> bits_equal x y) sens rsens

let prop_oracle_dyadic_exact =
  QCheck.Test.make ~name:"SoA kernels match reference bit for bit (dyadic)"
    ~count:2000 (QCheck.make dyadic_gen) (fun (k, c, a, b) ->
      let module R = Linform_reference in
      let ra = R.of_form a and rb = R.of_form b in
      let shifted rf = { rf with R.r_nominal = rf.R.r_nominal +. c } in
      exactly (Linform.add a b) (R.add ra rb)
      && exactly (Linform.sub a b) (R.sub ra rb)
      && exactly (Linform.axpy k a b) (R.axpy k ra rb)
      && exactly (Linform.axpy_shift k a b c) (shifted (R.axpy k ra rb))
      && exactly (Linform.mul_first_order a b) (R.mul_first_order ra rb)
      && exactly (Linform.stat_min a b) (R.stat_min ra rb))

(* The property above is only as strong as its cancellations: a
   fixed-seed sample of its generator must often drop a zero strictly
   between two surviving entries. *)
let test_dyadic_gen_cancels_inside () =
  let rand = Random.State.make [| 14 |] in
  let inside = ref 0 in
  for _ = 1 to 500 do
    let k, _, a, b = dyadic_gen rand in
    let ids f = Array.map fst (Linform.sensitivities f) in
    let union =
      List.sort_uniq compare (Array.to_list (ids a) @ Array.to_list (ids b))
    in
    let cancels_inside r =
      let kept = ids r in
      let n = Array.length kept in
      n >= 2
      && List.exists
           (fun i -> i > kept.(0) && i < kept.(n - 1) && not (Array.mem i kept))
           union
    in
    if
      List.exists cancels_inside
        [ Linform.add a b; Linform.sub a b; Linform.axpy k a b ]
    then incr inside
  done;
  Alcotest.(check bool)
    (Printf.sprintf "%d of 500 pairs cancel inside the arrays" !inside)
    true (!inside >= 100)

(* ---------- allocation ---------- *)

(* Minor words per call, after one warm-up call (which may grow the
   merge scratch). *)
let minor_words_per_call f =
  let reps = 1000 in
  ignore (Sys.opaque_identity (f ()));
  let w0 = Gc.minor_words () in
  for _ = 1 to reps do
    ignore (Sys.opaque_identity (f ()))
  done;
  (Gc.minor_words () -. w0) /. float_of_int reps

(* The result's record and boxed floats: an upper bound on what a
   kernel may allocate beyond the result's two arrays. *)
let alloc_slack = 16.0

let test_kernels_allocate_only_result () =
  List.iter
    (fun n ->
      (* Supports [0, 2n/3) and [n/3, n) overlap, so the walk takes all
         three branches; no coefficient cancels, so the sum has n terms. *)
      let ranged lo hi =
        Linform.make ~nominal:1.0
          ~sens:
            (List.init (hi - lo) (fun i -> (lo + i, 0.25 +. float_of_int i)))
      in
      let a = ranged 0 (2 * n / 3) and b = ranged (n / 3) n in
      Alcotest.(check int) "result size" n
        (Linform.support_size (Linform.add a b));
      let words = minor_words_per_call (fun () -> Linform.add a b) in
      let bound = (2.0 *. float_of_int (n + 1)) +. alloc_slack in
      Alcotest.(check bool)
        (Printf.sprintf "add, %d-term result: %.1f words <= %.0f" n words bound)
        true (words <= bound))
    [ 10; 60; 200 ];
  let x = Linform.const 2.0 in
  let y =
    Linform.make ~nominal:1.0
      ~sens:(List.init 40 (fun i -> (i, 0.5 +. float_of_int i)))
  in
  let words = minor_words_per_call (fun () -> Linform.axpy 3.0 x y) in
  Alcotest.(check bool)
    (Printf.sprintf "axpy, empty x shares y's arrays: %.1f words <= %.0f" words
       alloc_slack)
    true (words <= alloc_slack)

let qcheck = QCheck_alcotest.to_alcotest

let suite =
  [
    Alcotest.test_case "make merges duplicates" `Quick test_make_merges_duplicates;
    Alcotest.test_case "make drops zeros" `Quick test_make_drops_zeros;
    Alcotest.test_case "const" `Quick test_const;
    Alcotest.test_case "add / sub" `Quick test_add_sub;
    Alcotest.test_case "scale / shift / neg" `Quick test_scale_shift_neg;
    qcheck prop_axpy_matches_scale_add;
    Alcotest.test_case "mul_first_order" `Quick test_mul_first_order;
    Alcotest.test_case "variance / covariance" `Quick test_variance_covariance;
    Alcotest.test_case "std_diff" `Quick test_std_diff;
    qcheck prop_std_diff_matches_sub;
    qcheck prop_cauchy_schwarz;
    Alcotest.test_case "prob_greater deterministic" `Quick
      test_prob_greater_deterministic;
    Alcotest.test_case "prob_greater Eq. 8" `Quick test_prob_greater_eq8;
    qcheck prop_prob_greater_complement;
    qcheck prop_lemma4_mean_order;
    qcheck prop_theorem2_transitivity;
    Alcotest.test_case "percentile" `Quick test_percentile;
    Alcotest.test_case "stat_min deterministic" `Quick test_stat_min_deterministic;
    Alcotest.test_case "stat_min identical" `Quick test_stat_min_identical;
    Alcotest.test_case "stat_min clear dominance" `Quick
      test_stat_min_clear_dominance;
    Alcotest.test_case "stat_min symmetric Clark penalty" `Quick
      test_stat_min_symmetric_penalty;
    qcheck prop_stat_min_bounds;
    qcheck prop_stat_min_vs_monte_carlo;
    Alcotest.test_case "eval" `Quick test_eval;
    Alcotest.test_case "map_sens" `Quick test_map_sens;
    qcheck prop_eval_linear;
    Alcotest.test_case "prob_greater identical" `Quick
      test_prob_greater_identical_forms;
    qcheck prop_percentile_monotone;
    qcheck prop_sensitivities_canonical;
    qcheck prop_oracle_linear_ops;
    qcheck prop_oracle_second_order;
    qcheck prop_oracle_stat_min;
    qcheck prop_oracle_roundtrip;
    qcheck prop_axpy_shift_fused;
    qcheck prop_oracle_dyadic_exact;
    Alcotest.test_case "dyadic oracle cancels inside the arrays" `Quick
      test_dyadic_gen_cancels_inside;
    Alcotest.test_case "kernels allocate only their result" `Quick
      test_kernels_allocate_only_result;
  ]
