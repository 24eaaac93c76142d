type t =
  | Deterministic
  | Two_param of { p_l : float; p_t : float }
  | One_param of { alpha : float }
  | Four_param of { alpha_l : float; alpha_u : float; beta_l : float; beta_u : float }

let deterministic = Deterministic

let two_param ?(p_l = 0.5) ?(p_t = 0.5) () =
  if not (0.5 <= p_l && p_l <= 1.0 && 0.5 <= p_t && p_t <= 1.0) then
    invalid_arg "Prune.two_param: parameters must lie in [0.5, 1]";
  Two_param { p_l; p_t }

let one_param ~alpha =
  if not (0.0 < alpha && alpha < 1.0) then
    invalid_arg "Prune.one_param: alpha must lie in (0, 1)";
  One_param { alpha }

let four_param ?(alpha_l = 0.45) ?(alpha_u = 0.55) ?(beta_l = 0.45) ?(beta_u = 0.55) () =
  if not (0.0 <= alpha_l && alpha_l < alpha_u && alpha_u <= 1.0) then
    invalid_arg "Prune.four_param: need 0 <= alpha_l < alpha_u <= 1";
  if not (0.0 <= beta_l && beta_l < beta_u && beta_u <= 1.0) then
    invalid_arg "Prune.four_param: need 0 <= beta_l < beta_u <= 1";
  Four_param { alpha_l; alpha_u; beta_l; beta_u }

let name = function
  | Deterministic -> "det"
  | Two_param { p_l; p_t } -> Printf.sprintf "2P(%.2f,%.2f)" p_l p_t
  | One_param { alpha } -> Printf.sprintf "1P(%.2f)" alpha
  | Four_param { alpha_l; alpha_u; beta_l; beta_u } ->
    Printf.sprintf "4P(%.2f,%.2f;%.2f,%.2f)" alpha_l alpha_u beta_l beta_u

let is_linear = function
  | Deterministic | Two_param _ | One_param _ -> true
  | Four_param _ -> false

(* Rules whose dominance test is a pure comparison of the two mean
   keys: the deterministic rule and 2P at the Lemma-4 point
   p̄_L = p̄_T = 0.5 (where the probabilistic tests reduce to mean
   comparison and [load_key]/[rat_key] are the means).  For these
   rules, among same-load candidates only the max-mean-RAT one can
   survive pruning, which licenses the convex per-type pre-selection
   in the insert-site step. *)
let mean_exact = function
  | Deterministic -> true
  | Two_param { p_l; p_t } -> p_l = 0.5 && p_t = 0.5
  | One_param _ | Four_param _ -> false

(* A percentile of 1 - p would hit Normal.quantile's domain edge; the
   constructors above exclude p outside (0,1) except for 4P's closed
   bounds, which we nudge inward. *)
let safe_percentile form p =
  let p = Float.max 1e-9 (Float.min (1.0 -. 1e-9) p) in
  Linform.percentile form p

let duplicate (a : Sol.t) (b : Sol.t) =
  Sol.mean_load a = Sol.mean_load b
  && Sol.mean_rat a = Sol.mean_rat b
  && Linform.variance a.Sol.load = Linform.variance b.Sol.load
  && Linform.variance a.Sol.rat = Linform.variance b.Sol.rat

let dominates rule (a : Sol.t) (b : Sol.t) =
  match rule with
  | Deterministic ->
    Sol.mean_load a <= Sol.mean_load b && Sol.mean_rat a >= Sol.mean_rat b
  | Two_param { p_l; p_t } ->
    (* Lemma 4: at p = 0.5 the probabilistic test is exactly a mean
       comparison, taken non-strictly so duplicates collapse. *)
    let load_ok =
      if p_l = 0.5 then Sol.mean_load a <= Sol.mean_load b
      else Linform.prob_greater b.Sol.load a.Sol.load > p_l
    in
    let rat_ok =
      if p_t = 0.5 then Sol.mean_rat a >= Sol.mean_rat b
      else Linform.prob_greater a.Sol.rat b.Sol.rat > p_t
    in
    (load_ok && rat_ok) || duplicate a b
  | One_param { alpha } ->
    safe_percentile a.Sol.load alpha <= safe_percentile b.Sol.load alpha
    && safe_percentile a.Sol.rat alpha >= safe_percentile b.Sol.rat alpha
  | Four_param { alpha_l; alpha_u; beta_l; beta_u } ->
    (safe_percentile a.Sol.load alpha_u < safe_percentile b.Sol.load alpha_l
    && safe_percentile a.Sol.rat beta_l > safe_percentile b.Sol.rat beta_u)
    || duplicate a b

(* Sort key along the load axis for the linear rules.  The sweep's
   correctness relies on this key being consistent with [dominates]'s
   load test (total order + transitivity, cf. Theorem 2). *)
let load_key rule (s : Sol.t) =
  match rule with
  | Deterministic | Two_param _ | Four_param _ -> Sol.mean_load s
  | One_param { alpha } -> safe_percentile s.Sol.load alpha

let rat_key rule (s : Sol.t) =
  match rule with
  | Deterministic | Two_param _ | Four_param _ -> Sol.mean_rat s
  | One_param { alpha } -> safe_percentile s.Sol.rat alpha

(* The one sorted sweep every array frontier shares: cache the keys
   once per candidate, stable-sort an index permutation (stability
   preserves which of several exact duplicates survives, hence the
   choice trail), sweep in load order, copy the survivors out.  The
   scratch (key caches, permutation, kept set, sort temp) comes from
   the calling domain's {!Arena}; only the pruned frontier is fresh.
   [n] is the prefix of [sols] holding candidates — staging buffers
   hand over capacity, not exact length. *)
let sorted_sweep ~keys ?power ~dominates ~scan sols n =
  if n <= 1 then Array.sub sols 0 n
  else begin
    let arena = Arena.get () in
    let kl = Arena.load_keys arena n and kr = Arena.rat_keys arena n in
    keys kl kr;
    let tie =
      Option.map
        (fun power ->
          let pw = Arena.power_keys arena n in
          for i = 0 to n - 1 do
            pw.(i) <- power sols.(i)
          done;
          pw)
        power
    in
    let idx = Arena.perm arena n in
    for i = 0 to n - 1 do
      idx.(i) <- i
    done;
    Arena.sort_prefix arena ~key:kl ~desc:kr ?tie idx n;
    let kept = Arena.kept arena n in
    let nkept =
      Dominance.sweep ~order:idx ~n ~rat_keys:kr
        ~dominates:(fun k i -> dominates sols.(k) sols.(i))
        ~scan ~kept
    in
    Array.init nkept (fun k -> sols.(kept.(k)))
  end

(* Every clause of [dominates rule k s] — the deterministic and 1P key
   comparisons, the strict probabilistic 2P RAT test, its p = 0.5 mean
   reduction, and the duplicate collapse — implies the RAT-key ordering
   rat_key k >= rat_key s (Lemma 4: P(K > S) > ½ iff μ_K > μ_S), and
   conjoining the power test only makes dominance rarer.  So the
   [Rat_filtered] sweep applies: a candidate above the running maximum
   of kept RAT keys extends the frontier with no pairwise test, and
   otherwise only kept candidates passing the key filter meet the
   (erfc-based, for 2P with p̄ > 0.5) comparator.  Under the scalar
   total orders that is at most one call, against the last kept
   candidate.  Theorem 2's transitivity makes any kept dominator
   sufficient grounds to drop.

   With [eps] the kept set is the (load, RAT, power) Pareto frontier:
   the dominator must also cost no more energy under
   {!Dominance.power_le}, and raw power ascending breaks sort ties — an
   ε-independent order, so the greedy kept-only scan equals the
   quadratic "dominated by any earlier candidate" reference at every ε,
   and growing ε can only merge buckets.  Without [eps] no tie-break is
   added: it would move which exact duplicate survives. *)
let prune_linear rule ?eps sols n =
  let keys kl kr =
    for i = 0 to n - 1 do
      kl.(i) <- load_key rule sols.(i);
      kr.(i) <- rat_key rule sols.(i)
    done
  in
  match eps with
  | None ->
    sorted_sweep ~keys ~dominates:(dominates rule) ~scan:Dominance.Rat_filtered
      sols n
  | Some eps ->
    sorted_sweep ~keys
      ~power:(fun (s : Sol.t) -> s.power)
      ~dominates:(fun (a : Sol.t) (b : Sol.t) ->
        dominates rule a b && Dominance.power_le ~eps a.power b.power)
      ~scan:Dominance.Rat_filtered sols n

(* Exact 4P pruning in O(N log N).  4P dominance is transitive (the
   percentile intervals chain), so a candidate may be discarded as soon
   as ANY other candidate interval-dominates it, even a discarded one.
   Sweep candidates by ascending lower load percentile; a two-pointer
   walk over the ascending upper load percentiles maintains the best
   lower RAT percentile among all candidates whose load interval lies
   strictly below the current one's. *)
(* Near-duplicate granularity for the 4P baseline.  Reference [7]
   represents solutions by numerical JPDFs, where two solutions whose
   distributions agree at grid resolution are indistinguishable and
   collapse; without this, interval dominance (which needs strictly
   separated percentile intervals) keeps every near-identical cross
   product combination and the candidate population explodes on even
   toy trees.  0.01 (ps / fF) is far below any meaningful design
   difference. *)
let quantum_4p = 0.01

let prune_4p ~alpha_l ~alpha_u ~beta_l ~beta_u sols =
  (* Collapse near-duplicates first (symmetric trees and cross-product
     merges breed them and they never interval-dominate each other). *)
  let q x = Float.round (x /. quantum_4p) in
  let seen = Hashtbl.create 64 in
  let deduped =
    List.filter
      (fun (s : Sol.t) ->
        let key =
          ( q (Sol.mean_load s),
            q (Sol.mean_rat s),
            q (Linform.std s.Sol.load),
            q (Linform.std s.Sol.rat) )
        in
        if Hashtbl.mem seen key then false
        else begin
          Hashtbl.add seen key ();
          true
        end)
      sols
  in
  (* Candidates with the same load distribution (e.g. every candidate
     buffered with the same type at the same site) can never separate
     their load intervals, so the literal Eq. (2) test keeps all of
     them forever.  Like the deterministic rule's non-strict load
     comparison, identical-load candidates are pruned against each
     other on the RAT intervals alone. *)
  let within_groups =
    let groups = Hashtbl.create 16 in
    List.iter
      (fun (s : Sol.t) ->
        let key = (q (Sol.mean_load s), q (Linform.std s.Sol.load)) in
        Hashtbl.replace groups key
          (s :: (Option.value (Hashtbl.find_opt groups key) ~default:[])))
      deduped;
    Hashtbl.fold
      (fun _ group acc ->
        let sorted =
          List.sort (fun a b -> compare (Sol.mean_rat b) (Sol.mean_rat a)) group
        in
        let kept, _ =
          List.fold_left
            (fun (kept, best_rat_lo) s ->
              let hi = safe_percentile s.Sol.rat beta_u in
              if best_rat_lo > hi then (kept, best_rat_lo)
              else
                (s :: kept, Float.max best_rat_lo (safe_percentile s.Sol.rat beta_l)))
            ([], neg_infinity) sorted
        in
        List.rev_append kept acc)
      groups []
  in
  let arr = Array.of_list within_groups in
  let n = Array.length arr in
  let load_lo = Array.map (fun (s : Sol.t) -> safe_percentile s.Sol.load alpha_l) arr in
  let load_hi = Array.map (fun (s : Sol.t) -> safe_percentile s.Sol.load alpha_u) arr in
  let rat_lo = Array.map (fun (s : Sol.t) -> safe_percentile s.Sol.rat beta_l) arr in
  let rat_hi = Array.map (fun (s : Sol.t) -> safe_percentile s.Sol.rat beta_u) arr in
  let by_lo = Array.init n Fun.id in
  let by_hi = Array.init n Fun.id in
  Array.sort (fun a b -> compare load_lo.(a) load_lo.(b)) by_lo;
  Array.sort (fun a b -> compare load_hi.(a) load_hi.(b)) by_hi;
  let kept = ref [] in
  let j = ref 0 in
  let best_rat_lo = ref neg_infinity in
  Array.iter
    (fun i ->
      while !j < n && load_hi.(by_hi.(!j)) < load_lo.(i) do
        if rat_lo.(by_hi.(!j)) > !best_rat_lo then best_rat_lo := rat_lo.(by_hi.(!j));
        incr j
      done;
      if not (!best_rat_lo > rat_hi.(i)) then kept := arr.(i) :: !kept)
    by_lo;
  List.rev !kept

let prefix_list sols n =
  let rec go i acc = if i < 0 then acc else go (i - 1) (sols.(i) :: acc) in
  go (n - 1) []

let prune_dispatch rule ?eps sols n =
  match rule with
  | Deterministic | Two_param _ | One_param _ -> prune_linear rule ?eps sols n
  | Four_param _ when eps <> None ->
    invalid_arg "Prune.prune_sub: the 4P rule has no power axis"
  | Four_param { alpha_l; alpha_u; beta_l; beta_u } ->
    if n <= 1 then Array.sub sols 0 n
    else
      (* The 4P baseline stays list-based internally: it is the
         deliberately quadratic reference [7] behaviour that Table 2
         measures, not a kernel worth optimising. *)
      Array.of_list (prune_4p ~alpha_l ~alpha_u ~beta_l ~beta_u (prefix_list sols n))

(* Per-rule candidate accounting.  Counter handles are resolved once
   at module initialisation (handle lookup locks the registry, and
   [Lazy] is not domain-safe), indexed by the rule's constructor; the
   invariant pruned = generated - kept holds at every call, hence
   cumulatively at any snapshot. *)
let obs_tags = [| "det"; "2p"; "1p"; "4p" |]

let obs_tag_index = function
  | Deterministic -> 0
  | Two_param _ -> 1
  | One_param _ -> 2
  | Four_param _ -> 3

let obs_handle stem =
  Array.map
    (fun tag -> Obs.Counters.counter Obs.Counters.global (stem ^ "." ^ tag))
    obs_tags

let obs_generated = obs_handle "dp.generated"
let obs_kept = obs_handle "dp.kept"
let obs_pruned = obs_handle "dp.pruned"
let obs_span_names = Array.map (fun tag -> "prune." ^ tag) obs_tags

let prune_sub rule ?eps sols n =
  if not (Obs.Control.on ()) then prune_dispatch rule ?eps sols n
  else begin
    let t0 = Obs.Span.now_ns () in
    let out = prune_dispatch rule ?eps sols n in
    let i = obs_tag_index rule in
    Obs.Counters.incr obs_generated.(i) n;
    Obs.Counters.incr obs_kept.(i) (Array.length out);
    Obs.Counters.incr obs_pruned.(i) (n - Array.length out);
    Obs.Span.record ~name:obs_span_names.(i) ~cat:"dp" ~t0_ns:t0;
    out
  end

let prune rule sols =
  if Array.length sols <= 1 then sols
  else prune_sub rule sols (Array.length sols)
