type heuristic =
  | Mean_dominance
  | Percentile_dominance of float
  | Stochastic_dominance

let heuristic_name = function
  | Mean_dominance -> "mean"
  | Percentile_dominance p -> Printf.sprintf "pctl(%.2f)" p
  | Stochastic_dominance -> "stochastic"

type config = {
  tech : Device.Tech.t;
  library : Device.Buffer.t array;
  heuristic : heuristic;
  length_frac : float;
  budget : Engine.budget;
}

let default_config ?(heuristic = Stochastic_dominance) ?(length_frac = 0.05) () =
  {
    tech = Device.Tech.default_65nm;
    library = Device.Buffer.default_library;
    heuristic;
    length_frac;
    budget = Engine.no_budget;
  }

(* Discretisation points of each wire-length PMF. *)
let pmf_points = 5

type sol = { load : Numeric.Pmf.t; rat : Numeric.Pmf.t; choice : Sol.choice }

type result = {
  rat_mean : float;
  rat_std : float;
  rat_p05 : float;
  buffers : (int * Device.Buffer.t) list;
  peak_candidates : int;
  runtime_s : float;
}

let dominates heuristic a b =
  match heuristic with
  | Mean_dominance ->
    Numeric.Pmf.mean a.load <= Numeric.Pmf.mean b.load
    && Numeric.Pmf.mean a.rat >= Numeric.Pmf.mean b.rat
  | Percentile_dominance p ->
    Numeric.Pmf.percentile a.load p <= Numeric.Pmf.percentile b.load p
    && Numeric.Pmf.percentile a.rat p >= Numeric.Pmf.percentile b.rat p
  | Stochastic_dominance ->
    (* b's load must dominate a's (a is smaller) and a's rat must
       dominate b's (a is larger). *)
    Numeric.Pmf.stochastically_dominates b.load a.load
    && Numeric.Pmf.stochastically_dominates a.rat b.rat

(* Mean and percentile dominance are total orders on the cached keys,
   so dominance implies the RAT-key order and the [Rat_filtered] sweep
   tests at most the last kept candidate; stochastic dominance is
   partial, so candidates are tested against every kept solution (the
   unbounded-complexity behaviour [6] was criticised for).  The RAT-key
   filter would not be exact there: [Pmf.stochastically_dominates]
   admits a small CDF tolerance, so a dominating PMF's mean may sit
   fractionally below the dominated one's.  Keys are computed once per
   candidate and the sort is stable, so which duplicate survives (and
   hence the choice trail) is unchanged from the list implementation. *)
let prune_impl config (sols : sol array) =
  let heuristic = config.heuristic in
  let n = Array.length sols in
  let keys kl kr =
    match heuristic with
    | Percentile_dominance p ->
      for i = 0 to n - 1 do
        kl.(i) <- Numeric.Pmf.percentile sols.(i).load p;
        kr.(i) <- Numeric.Pmf.percentile sols.(i).rat p
      done
    | Mean_dominance | Stochastic_dominance ->
      for i = 0 to n - 1 do
        kl.(i) <- Numeric.Pmf.mean sols.(i).load;
        kr.(i) <- Numeric.Pmf.mean sols.(i).rat
      done
  in
  let scan =
    match heuristic with
    | Stochastic_dominance -> Dominance.Scan_kept
    | Mean_dominance | Percentile_dominance _ -> Dominance.Rat_filtered
  in
  Prune.sorted_sweep ~keys ~dominates:(dominates heuristic) ~scan sols n

(* Handles resolved once at module initialisation (handle lookup locks
   the registry); bumped only when observability is enabled. *)
let obs_generated = Obs.Counters.counter Obs.Counters.global "prob.generated"
let obs_kept = Obs.Counters.counter Obs.Counters.global "prob.kept"
let obs_pruned = Obs.Counters.counter Obs.Counters.global "prob.pruned"
let obs_nodes = Obs.Counters.counter Obs.Counters.global "prob.nodes"
let obs_merged = Obs.Counters.counter Obs.Counters.global "prob.merged"

let prune config sols =
  if not (Obs.Control.on ()) then prune_impl config sols
  else begin
    let t0 = Obs.Span.now_ns () in
    let out = prune_impl config sols in
    Obs.Counters.incr obs_generated (Array.length sols);
    Obs.Counters.incr obs_kept (Array.length out);
    Obs.Counters.incr obs_pruned (Array.length sols - Array.length out);
    Obs.Span.record ~name:"prune.prob" ~cat:"dp" ~t0_ns:t0;
    out
  end

(* Lift a child frontier through the edge above it.  Model-free: the
   PMFs derive from the edge length and the technology constants
   alone.

   Each output parity side takes its own wired candidates plus
   buffered variants: same-parity (non-inverting) types over its own
   wired rows and parity-flipping (inverting) types over the opposite
   side's. *)
let lift_edge config ~same_types ~flip_types ~child ~length
    (f : sol Driver.polar) =
  let tech = config.tech in
  (* The manufactured length of each segment: drawn length times
     (1 + delta), delta discretised from N(0, length_frac^2). *)
  let l_pmf =
    Numeric.Pmf.of_normal ~points:pmf_points ~mu:length
      ~sigma:(config.length_frac *. length)
      ()
  in
  let wire s =
    (* Independence everywhere, as in [6]: wire cap and wire delay are
       derived from the length PMF against the load's mean. *)
    let load_mean = Numeric.Pmf.mean s.load in
    let added_cap = Numeric.Pmf.scale tech.Device.Tech.wire_c l_pmf in
    let delay_pmf =
      Numeric.Pmf.map
        (fun l ->
          let r = tech.Device.Tech.wire_r *. l in
          (r *. load_mean) +. (0.5 *. r *. tech.Device.Tech.wire_c *. l))
        l_pmf
    in
    {
      load = Numeric.Pmf.add s.load added_cap;
      rat = Numeric.Pmf.sub s.rat delay_pmf;
      choice = Sol.Wire { node = child; width = 0; from = s.choice };
    }
  in
  let wired_ev = Array.map wire f.ev in
  let wired_od = Array.map wire f.od in
  let od_out = Array.length flip_types > 0 || Array.length wired_od > 0 in
  let buffered ws bi =
    let b = config.library.(bi) in
    let gate_delay =
      Numeric.Pmf.map
        (fun load ->
          b.Device.Buffer.delay_ps +. (b.Device.Buffer.res_kohm *. load))
        ws.load
    in
    {
      load = Numeric.Pmf.constant b.Device.Buffer.cap_ff;
      rat = Numeric.Pmf.sub ws.rat gate_delay;
      choice = Sol.Buffered { node = child; buffer = bi; from = ws.choice };
    }
  in
  (* Reversed wired candidates first, then the buffered variants in
     generation order (wired-major, library-order within) — the same
     sequence [List.rev_append] fed the pruner, kept so the stable
     sort sees identical input. *)
  let build_side (own : sol array) (cross : sol array) =
    let nw = Array.length own and nx = Array.length cross in
    let ncand =
      nw + (nw * Array.length same_types) + (nx * Array.length flip_types)
    in
    if ncand = 0 then [||]
    else begin
      let dummy = if nw > 0 then own.(0) else cross.(0) in
      let cand = Array.make ncand dummy in
      for i = 0 to nw - 1 do
        cand.(nw - 1 - i) <- own.(i)
      done;
      let k = ref nw in
      let emit src types =
        Array.iter
          (fun s ->
            Array.iter
              (fun bi ->
                cand.(!k) <- buffered s bi;
                incr k)
              types)
          src
      in
      emit own same_types;
      emit cross flip_types;
      let out = prune config cand in
      if Obs.Control.on () then
        Driver.count_types ~prefix:"prob" config.library ~child
          ~generated:(fun i -> cand.(i).choice)
          ~lo:nw ~hi:ncand
          ~kept:(fun i -> out.(i).choice)
          ~nkept:(Array.length out);
      out
    end
  in
  let ev = build_side wired_ev wired_od in
  let od = if not od_out then [||] else build_side wired_od wired_ev in
  { Driver.ev; od }

(* The full cross-product merge of [6] (independence between
   solutions), with the in-loop deadline check, followed by a prune.
   A side with an empty operand merges to empty: a merged candidate
   needs both subtrees at the same parity. *)
let merge_node config ~node ~check_time ~check_count a b =
  let na = Array.length a and nb = Array.length b in
  if na = 0 || nb = 0 then [||]
  else begin
    let combine sa sb =
      {
        load = Numeric.Pmf.add sa.load sb.load;
        rat = Numeric.Pmf.min2 sa.rat sb.rat;
        choice = Sol.Merged { node; left = sa.choice; right = sb.choice };
      }
    in
    let merged = Array.make (na * nb) (combine a.(0) b.(0)) in
    for i = 0 to na - 1 do
      for j = 0 to nb - 1 do
        let k = (i * nb) + j in
        (* The cross product is quadratic: check the deadline inside the
           loop, not only per node, so one pathological merge cannot
           overshoot the budget by its whole runtime. *)
        if k land 1023 = 0 then check_time ();
        merged.(k) <- combine a.(i) b.(j)
      done
    done;
    check_count (Array.length merged);
    if Obs.Control.on () then Obs.Counters.incr obs_merged (Array.length merged);
    prune config merged
  end

(* Pick the root candidate with the best mean driver-input RAT and
   assemble the result record. *)
let finish config ~t_start ~peak root_sols =
  let tech = config.tech in
  let q s =
    Numeric.Pmf.mean s.rat
    -. (tech.Device.Tech.driver_r *. Numeric.Pmf.mean s.load)
  in
  let best =
    root_sols.(Dominance.pick Dominance.Max_yield
                 ~n:(Array.length root_sols)
                 ~score:(fun i -> q root_sols.(i))
                 ~power:(fun _ -> 0.0))
  in
  let rat =
    Numeric.Pmf.sub best.rat
      (Numeric.Pmf.scale tech.Device.Tech.driver_r best.load)
  in
  let buffers, _ =
    Driver.assignment ~library:config.library ~wires:[||] best.choice
  in
  {
    rat_mean = Numeric.Pmf.mean rat;
    rat_std = Numeric.Pmf.std rat;
    rat_p05 = Numeric.Pmf.percentile rat 0.05;
    buffers;
    peak_candidates = peak;
    runtime_s = Unix.gettimeofday () -. t_start;
  }

let run_tape ?pool ?grain config tape =
  (* Wall-clock, not [Sys.time]: CPU time sums over domains, so both
     the budget and the reported runtime would over-count as soon as
     anything else runs in parallel with this DP (exactly the bug the
     engine fixed; [Exec.run_trials] routinely wraps this module). *)
  let t_start = Unix.gettimeofday () in
  let same_types, flip_types =
    Device.Buffer.partition_indices config.library
  in
  (* This DP consumes no shared mutable state at all (no device-id
     counter), so it needs no binding. *)
  let out =
    Driver.run ?pool ?grain ~budget:config.budget ~t_start
      {
        Driver.sink =
          (fun ~node ~cap ~rat ->
            {
              load = Numeric.Pmf.constant cap;
              rat = Numeric.Pmf.constant rat;
              choice = Sol.At_sink node;
            });
        lift =
          (fun ~child ~edge:_ ~length f ->
            lift_edge config ~same_types ~flip_types ~child ~length f);
        merge = merge_node config;
        nodes = obs_nodes;
        cat = "dp";
      }
      tape
  in
  finish config ~t_start ~peak:out.Driver.peak out.Driver.root

let run ?pool ?grain config tree =
  run_tape ?pool ?grain config (Compile.Tape.compile tree)
