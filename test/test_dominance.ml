(* qcheck oracles for the shared dominance sweep (`Bufins.Dominance`).

   Every transitive flavour must produce a kept set identical to the
   naive O(n²) reference "drop i iff some point earlier in the sort
   order dominates it" — that equivalence (greedy kept-only scan =
   any-earlier scan) is exactly what transitivity buys, and it is what
   lets each engine scan only its kept frontier.  The per-sample
   flavour at need < K is *not* transitive, so its reference is the
   greedy-over-kept definition itself, which still pins the RAT-key
   filter and scan shapes against a straightforward
   reimplementation.

   Values are drawn on coarse grids (halves, eighths) so ties — the
   place sort stability and tie-break bugs live — are common, and so
   the ε-monotonicity property can use exactly representable dyadic
   powers and ε steps. *)

let qcheck = QCheck_alcotest.to_alcotest

type pt = { load : float; rat : float; power : float }

(* Dyadic grids: powers are multiples of 0.125, so ε ∈ {0.25, 0.5, 1,
   2} quantise them exactly and bucket nesting is exact in floats. *)
let pt_gen =
  QCheck.Gen.(
    let* l = int_range 0 7 and* r = int_range 0 7 and* p = int_range 0 31 in
    return
      {
        load = 0.5 *. float_of_int l;
        rat = 0.5 *. float_of_int r;
        power = 0.125 *. float_of_int p;
      })

let pts_gen = QCheck.Gen.(array_size (int_range 1 40) pt_gen)

let print_pts pts =
  String.concat ";"
    (Array.to_list
       (Array.map
          (fun p -> Printf.sprintf "(%g,%g,%g)" p.load p.rat p.power)
          pts))

let arb_pts = QCheck.make pts_gen ~print:print_pts

(* Sort + sweep under a flavour, returning the kept index set. *)
let run_sweep ~cmp ~dominates ~scan ~rat_keys pts =
  let n = Array.length pts in
  let order = Array.init n (fun i -> i) in
  Array.stable_sort cmp order;
  let kept = Array.make n 0 in
  let nkept =
    Bufins.Dominance.sweep ~order ~n ~rat_keys ~dominates ~scan ~kept
  in
  Array.sub kept 0 nkept

let rats pts = Array.map (fun p -> p.rat) pts

(* O(n²) reference for transitive flavours: i survives iff no point
   strictly earlier in the sort order dominates it. *)
let naive_reference ~cmp ~dominates pts =
  let n = Array.length pts in
  let order = Array.init n (fun i -> i) in
  Array.stable_sort cmp order;
  let pos = Array.make n 0 in
  Array.iteri (fun s i -> pos.(i) <- s) order;
  Array.to_list order
  |> List.filter (fun i ->
         not
           (Array.exists
              (fun j -> pos.(j) < pos.(i) && dominates j i)
              (Array.init n Fun.id)))

let sets_equal a b =
  List.sort compare (Array.to_list a) = List.sort compare b

(* ---------- total-order flavour (the canonical scalar rules) ---------- *)

let total_cmp pts a b =
  let c = Float.compare pts.(a).load pts.(b).load in
  if c <> 0 then c else Float.compare pts.(b).rat pts.(a).rat

let total_dom pts j i = pts.(j).load <= pts.(i).load && pts.(j).rat >= pts.(i).rat

(* On a total order the newest kept point holds the running-max RAT,
   so the filtered sweep tests at most that one point per candidate:
   the comparator sees a subsequence of the calls a last-kept-only
   sweep would make, and the kept set is the naive reference's.  The
   kept buffer starts at -1 and only grows, so its last written slot is
   the newest kept point at any call. *)
let prop_total_order =
  QCheck.Test.make
    ~name:"total-order flavour: Rat_filtered tests only the last kept"
    ~count:500 arb_pts (fun pts ->
      let cmp = total_cmp pts in
      let n = Array.length pts in
      let order = Array.init n Fun.id in
      Array.stable_sort cmp order;
      let kept = Array.make n (-1) in
      let newest () =
        let k = ref (n - 1) in
        while !k >= 0 && kept.(!k) < 0 do
          decr k
        done;
        if !k < 0 then -1 else kept.(!k)
      in
      let ok = ref true and tested = Array.make n false in
      let dominates j i =
        if tested.(i) || j <> newest () then ok := false;
        tested.(i) <- true;
        total_dom pts j i
      in
      let nkept =
        Bufins.Dominance.sweep ~order ~n ~rat_keys:(rats pts) ~dominates
          ~scan:Bufins.Dominance.Rat_filtered ~kept
      in
      !ok
      && sets_equal (Array.sub kept 0 nkept)
           (naive_reference ~cmp ~dominates:(total_dom pts) pts))

(* ---------- power flavour: (load, RAT, power) Pareto frontier ---------- *)

let power_cmp pts a b =
  let c = Float.compare pts.(a).load pts.(b).load in
  if c <> 0 then c
  else
    let c = Float.compare pts.(b).rat pts.(a).rat in
    (* Raw power ascending — ε-independent, per the module contract. *)
    if c <> 0 then c else Float.compare pts.(a).power pts.(b).power

let power_dom ~eps pts j i =
  pts.(j).load <= pts.(i).load
  && pts.(j).rat >= pts.(i).rat
  && Bufins.Dominance.power_le ~eps pts.(j).power pts.(i).power

let eps_gen = QCheck.Gen.oneofl [ 0.0; 0.25; 0.5; 1.0; 2.0 ]

let arb_pts_eps =
  QCheck.make
    QCheck.Gen.(pair pts_gen eps_gen)
    ~print:(fun (pts, eps) -> Printf.sprintf "eps=%g %s" eps (print_pts pts))

let power_kept ~eps pts =
  run_sweep ~cmp:(power_cmp pts)
    ~dominates:(power_dom ~eps pts)
    ~scan:Bufins.Dominance.Rat_filtered ~rat_keys:(rats pts) pts

let prop_power_pareto =
  QCheck.Test.make
    ~name:"power flavour: Rat_filtered sweep = naive Pareto reference"
    ~count:500 arb_pts_eps (fun (pts, eps) ->
      sets_equal (power_kept ~eps pts)
        (naive_reference ~cmp:(power_cmp pts)
           ~dominates:(power_dom ~eps pts)
           pts))

let prop_eps_soundness =
  QCheck.Test.make
    ~name:"eps-dominance soundness: every dropped point is dominated by a kept one"
    ~count:500 arb_pts_eps (fun (pts, eps) ->
      let kept = power_kept ~eps pts in
      let kept_l = Array.to_list kept in
      let dropped =
        List.filter
          (fun i -> not (List.mem i kept_l))
          (List.init (Array.length pts) Fun.id)
      in
      List.for_all
        (fun i -> List.exists (fun j -> power_dom ~eps pts j i) kept_l)
        dropped)

let prop_eps_monotone =
  QCheck.Test.make
    ~name:"eps-dominance: frontier size is non-increasing in eps" ~count:500
    arb_pts (fun pts ->
      let sizes =
        List.map
          (fun eps -> Array.length (power_kept ~eps pts))
          [ 0.0; 0.25; 0.5; 1.0; 2.0 ]
      in
      let rec non_incr = function
        | a :: (b :: _ as rest) -> a >= b && non_incr rest
        | _ -> true
      in
      non_incr sizes)

(* ---------- staircase: the power sweep over one load class ---------- *)

(* [Dominance.staircase] walks the rows once in power-bucket order; it
   must keep exactly the rows the power sweep keeps when every row has
   the same load (one buffer type at one site), whatever the order
   within a bucket, and with every power equal it is the earliest
   max-RAT row.  The coarse grids make RAT ties within a bucket common,
   which is where the tie-breaks (raw power, then index) matter. *)
let prop_staircase =
  QCheck.Test.make
    ~name:"staircase flavour: one walk = power sweep over one load"
    ~count:1000 arb_pts_eps (fun (pts, eps) ->
      let pts = Array.map (fun p -> { p with load = 0.0 }) pts in
      let n = Array.length pts in
      let walk pts order =
        let kept = Array.make n 0 in
        let nkept =
          Bufins.Dominance.staircase ~eps ~order ~n
            ~rat:(Array.map (fun p -> p.rat) pts)
            ~power:(Array.map (fun p -> p.power) pts)
            ~kept
        in
        Array.sub kept 0 nkept
      in
      let bucket i = Bufins.Dominance.power_bucket ~eps pts.(i).power in
      let by_power = Array.init n Fun.id in
      Array.stable_sort
        (fun a b -> Float.compare pts.(a).power pts.(b).power)
        by_power;
      (* Buckets ascending, index descending within one. *)
      let reversed = Array.init n Fun.id in
      Array.sort
        (fun a b ->
          let c = Float.compare (bucket a) (bucket b) in
          if c <> 0 then c else compare b a)
        reversed;
      let sweep = Array.to_list (power_kept ~eps pts) in
      let flat = Array.map (fun p -> { p with power = 0.0 }) pts in
      let earliest_max =
        Array.fold_left
          (fun best i -> if flat.(i).rat > flat.(best).rat then i else best)
          0 (Array.init n Fun.id)
      in
      sets_equal (walk pts by_power) sweep
      && sets_equal (walk pts reversed) sweep
      && walk flat (Array.init n Fun.id) = [| earliest_max |])

(* ---------- b-type flavour: equal-load groups keep earliest max-RAT ---------- *)

let btype_dom pts j i = pts.(j).load = pts.(i).load && pts.(j).rat >= pts.(i).rat

let prop_btype_groups =
  QCheck.Test.make
    ~name:"b-type flavour: equal-load groups keep the earliest max-RAT point"
    ~count:500 arb_pts (fun pts ->
      let cmp = total_cmp pts and dominates = btype_dom pts in
      let kept =
        run_sweep ~cmp ~dominates ~scan:Bufins.Dominance.Rat_filtered
          ~rat_keys:(rats pts) pts
      in
      (* Oracle: per distinct load, the lowest-index point among those
         with the maximal RAT. *)
      let loads =
        List.sort_uniq compare (Array.to_list (Array.map (fun p -> p.load) pts))
      in
      let expect =
        List.map
          (fun l ->
            let best = ref (-1) in
            Array.iteri
              (fun i p ->
                if p.load = l
                   && (!best < 0 || p.rat > pts.(!best).rat)
                then best := i)
              pts;
            !best)
          loads
      in
      sets_equal kept expect)

(* ---------- per-sample flavour (the sampling engine) ---------- *)

type spt = { sload : float array; srat : float array; spower : float }

let spt_gen k =
  QCheck.Gen.(
    let* ls = array_repeat k (int_range 0 3)
    and* rs = array_repeat k (int_range 0 3)
    and* p = int_range 0 15 in
    return
      {
        sload = Array.map (fun v -> 0.5 *. float_of_int v) ls;
        srat = Array.map (fun v -> 0.5 *. float_of_int v) rs;
        spower = 0.125 *. float_of_int p;
      })

let spts_gen =
  QCheck.Gen.(
    let* k = int_range 2 4 in
    let* pts = array_size (int_range 1 30) (spt_gen k) in
    let* need = int_range 1 k in
    return (k, need, pts))

let arb_spts =
  QCheck.make spts_gen ~print:(fun (k, need, pts) ->
      Printf.sprintf "k=%d need=%d n=%d" k need (Array.length pts))

let mean a = Array.fold_left ( +. ) 0.0 a /. float_of_int (Array.length a)

let sample_dom ~need pts j i =
  let k = Array.length pts.(j).sload in
  let count = ref 0 in
  for t = 0 to k - 1 do
    if
      pts.(j).sload.(t) <= pts.(i).sload.(t)
      && pts.(j).srat.(t) >= pts.(i).srat.(t)
    then incr count
  done;
  !count >= need

let sample_cmp pts a b =
  let c = Float.compare (mean pts.(a).sload) (mean pts.(b).sload) in
  if c <> 0 then c
  else Float.compare (mean pts.(b).srat) (mean pts.(a).srat)

let run_sample_sweep ~dominates ~scan pts =
  let n = Array.length pts in
  let order = Array.init n (fun i -> i) in
  Array.stable_sort (sample_cmp pts) order;
  let kept = Array.make n 0 in
  let nkept =
    Bufins.Dominance.sweep ~order ~n
      ~rat_keys:(Array.map (fun p -> mean p.srat) pts)
      ~dominates ~scan ~kept
  in
  Array.sub kept 0 nkept

(* Greedy-over-kept reference — the definition the engine implements.
   At need < K per-sample dominance is not transitive, so the
   any-earlier reference would be wrong; this one is valid at every
   need and doubles as the transitive oracle at need = K. *)
let greedy_reference ~dominates pts =
  let n = Array.length pts in
  let order = Array.init n (fun i -> i) in
  Array.stable_sort (sample_cmp pts) order;
  let kept = ref [] in
  Array.iter
    (fun i ->
      if not (List.exists (fun j -> dominates j i) !kept) then
        kept := !kept @ [ i ])
    order;
  !kept

let prop_sample_exact =
  QCheck.Test.make
    ~name:"per-sample flavour, need = K: mean-RAT prefilter = naive reference"
    ~count:300 arb_spts (fun (k, _, pts) ->
      (* Full dominance is transitive and implies the mean-RAT order,
         so the engine's Rat_filtered shape must equal both
         references. *)
      let dominates = sample_dom ~need:k pts in
      let swept =
        run_sample_sweep ~dominates ~scan:Bufins.Dominance.Rat_filtered pts
      in
      sets_equal swept (greedy_reference ~dominates pts)
      && sets_equal swept
           (naive_reference ~cmp:(sample_cmp pts) ~dominates pts))

let prop_sample_relaxed =
  QCheck.Test.make
    ~name:"per-sample flavour, need < K: Scan_kept = greedy-over-kept reference"
    ~count:300 arb_spts (fun (_, need, pts) ->
      let dominates = sample_dom ~need pts in
      sets_equal
        (run_sample_sweep ~dominates ~scan:Bufins.Dominance.Scan_kept pts)
        (greedy_reference ~dominates pts))

(* Conjoining the power axis must leave the prefilter sound: the
   prefiltered sweep equals the greedy reference at every [need].  At
   need = K dominance is transitive and only gets rarer with the power
   conjunct, so every candidate the plain sweep keeps survives the
   power-aware one too.  At need < K per-sample dominance is not
   transitive, so no such containment (nor even a size bound) holds:
   a plain-kept candidate can be dropped by one the plain sweep had
   already discarded. *)
let prop_sample_power =
  QCheck.Test.make
    ~name:"per-sample + power conjunct: prefiltered sweep = greedy reference"
    ~count:300
    (QCheck.make
       QCheck.Gen.(pair spts_gen eps_gen)
       ~print:(fun ((k, need, pts), eps) ->
         Printf.sprintf "k=%d need=%d n=%d eps=%g" k need (Array.length pts)
           eps))
    (fun ((k, need, pts), eps) ->
      let dominates j i =
        Bufins.Dominance.power_le ~eps pts.(j).spower pts.(i).spower
        && sample_dom ~need pts j i
      in
      let scan =
        if need >= k then Bufins.Dominance.Rat_filtered
        else Bufins.Dominance.Scan_kept
      in
      let swept = run_sample_sweep ~dominates ~scan pts in
      sets_equal swept (greedy_reference ~dominates pts)
      && (need < k
         ||
         let plain =
           run_sample_sweep ~dominates:(sample_dom ~need pts) ~scan pts
         in
         Array.for_all (fun i -> Array.mem i swept) plain))

(* ---------- Rat_filtered: the 2P engine's per-kept RAT filter ---------- *)

let prop_rat_filtered =
  QCheck.Test.make
    ~name:"Rat_filtered flavour: per-kept RAT filter = naive reference"
    ~count:500 arb_pts (fun pts ->
      (* The filter requires dominance to imply the RAT-key ordering.
         A RAT margin models 2P with p̄ > 0.5, where points with close
         means are incomparable: still transitive (margins add up, and
         exact duplicates collapse), but the newest kept point need not
         dominate what an older one does. *)
      let cmp = total_cmp pts in
      let dominates j i =
        (pts.(j).load <= pts.(i).load && pts.(j).rat >= pts.(i).rat +. 1.0)
        || (pts.(j).load = pts.(i).load && pts.(j).rat = pts.(i).rat)
      in
      let kept =
        run_sweep ~cmp ~dominates ~scan:Bufins.Dominance.Rat_filtered
          ~rat_keys:(rats pts) pts
      in
      sets_equal kept (naive_reference ~cmp ~dominates pts))

(* ---------- root pick: Dominance.pick = a stable sort by key ---------- *)

(* Scores and powers on coarse grids, so ties on every key are common;
   a target above every score makes every candidate infeasible. *)
let pick_gen =
  QCheck.Gen.(
    let* n = int_range 1 24 in
    let* scores = array_repeat n (map (fun i -> 0.5 *. float_of_int i) (int_range (-6) 6)) in
    let* powers = array_repeat n (map (fun i -> 0.25 *. float_of_int i) (int_range 0 7)) in
    let* w = oneofl [ 0.0; 0.5; 1.0; 3.0 ] in
    let* t = map (fun i -> 0.5 *. float_of_int i) (int_range (-7) 7) in
    return (scores, powers, w, t))

let print_pick (scores, powers, w, t) =
  Printf.sprintf "scores=[%s] powers=[%s] w=%g t=%g"
    (String.concat ";" (Array.to_list (Array.map string_of_float scores)))
    (String.concat ";" (Array.to_list (Array.map string_of_float powers)))
    w t

(* The reference: the first index of a stable sort by the objective's
   key, so among equal keys the earliest candidate. *)
let reference_pick objective scores powers =
  let n = Array.length scores in
  let cmp =
    match objective with
    | Bufins.Dominance.Max_yield ->
      fun i j -> Float.compare scores.(j) scores.(i)
    | Bufins.Dominance.Weighted w ->
      let v i = scores.(i) -. (w *. powers.(i)) in
      fun i j -> Float.compare (v j) (v i)
    | Bufins.Dominance.Min_power t ->
      fun i j ->
        let fi = scores.(i) >= t and fj = scores.(j) >= t in
        if fi <> fj then if fi then -1 else 1
        else if fi && powers.(i) <> powers.(j) then
          Float.compare powers.(i) powers.(j)
        else Float.compare scores.(j) scores.(i)
  in
  let order = Array.init n (fun i -> i) in
  Array.stable_sort cmp order;
  order.(0)

let prop_pick =
  QCheck.Test.make ~name:"Dominance.pick = stable sort by the objective's key"
    ~count:1000
    (QCheck.make pick_gen ~print:print_pick)
    (fun (scores, powers, w, t) ->
      let top = Array.fold_left Float.max neg_infinity scores in
      List.for_all
        (fun objective ->
          Bufins.Dominance.pick objective ~n:(Array.length scores)
            ~score:(Array.get scores) ~power:(Array.get powers)
          = reference_pick objective scores powers)
        [
          Bufins.Dominance.Max_yield;
          Bufins.Dominance.Weighted w;
          Bufins.Dominance.Min_power t;
          (* no candidate feasible: the best score *)
          Bufins.Dominance.Min_power (top +. 1.0);
        ])

(* ---------- objective spellings round-trip ---------- *)

let test_objective_strings () =
  List.iter
    (fun o ->
      Alcotest.(check bool)
        (Bufins.Dominance.to_string o ^ " round-trips")
        true
        (Bufins.Dominance.of_string (Bufins.Dominance.to_string o) = o))
    [
      Bufins.Dominance.Max_yield;
      Bufins.Dominance.Min_power (-2600.25);
      Bufins.Dominance.Weighted 0.5;
    ];
  Alcotest.(check bool)
    "'=' accepted" true
    (Bufins.Dominance.of_string "weighted=2.5" = Bufins.Dominance.Weighted 2.5);
  List.iter
    (fun s ->
      match Bufins.Dominance.of_string s with
      | _ -> Alcotest.failf "accepted %S" s
      | exception Failure _ -> ())
    [ ""; "min_power"; "weighted nan"; "power 3" ]

let suite =
  [
    qcheck prop_total_order;
    qcheck prop_power_pareto;
    qcheck prop_eps_soundness;
    qcheck prop_eps_monotone;
    qcheck prop_staircase;
    qcheck prop_btype_groups;
    qcheck prop_sample_exact;
    qcheck prop_sample_relaxed;
    qcheck prop_sample_power;
    qcheck prop_rat_filtered;
    Alcotest.test_case "objective spellings round-trip" `Quick
      test_objective_strings;
    qcheck prop_pick;
  ]
