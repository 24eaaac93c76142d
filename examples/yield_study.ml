(* Yield study: what does ignoring process variation cost?

   Optimises one benchmark with NOM (variation-oblivious), D2D (random +
   inter-die aware) and WID (fully variation-aware), evaluates all three
   buffered trees under the full variation model — analytically and by
   Monte Carlo — and prints the paper's two figures of merit.

   Run with:  dune exec examples/yield_study.exe -- [bench] [budget%]
   (defaults: r1, 5). *)

let () =
  let bench = if Array.length Sys.argv > 1 then Sys.argv.(1) else "r1" in
  let budget_pct =
    if Array.length Sys.argv > 2 then
      match float_of_string_opt Sys.argv.(2) with
      | Some b when b > 0.0 && b <= 50.0 -> b
      | _ ->
        prerr_endline "usage: yield_study [bench] [budget%% in (0,50]]";
        exit 1
    else 5.0
  in
  let info =
    try Rctree.Benchmarks.find bench
    with Not_found ->
      Format.eprintf "unknown benchmark %s (known: %s)@." bench
        (String.concat ", " Rctree.Benchmarks.names);
      exit 1
  in
  let frac = budget_pct /. 100.0 in
  let setup =
    {
      Experiments.Common.default_setup with
      Experiments.Common.budget =
        { Varmodel.Model.random_frac = frac; inter_die_frac = frac; spatial_frac = frac };
      mc_trials = 1000;
    }
  in
  let tree = Rctree.Benchmarks.load info in
  let grid = Experiments.Common.grid ~die_um:info.Rctree.Benchmarks.die_um in
  let spatial = Varmodel.Model.default_heterogeneous in
  Format.printf
    "benchmark %s (%d sinks), %.0f%%/%.0f%%/%.0f%% variation budget, heterogeneous@."
    bench (Rctree.Tree.sink_count tree) budget_pct budget_pct budget_pct;

  let results =
    List.map
      (fun algo ->
        let r = Experiments.Common.run_algo setup ~spatial ~grid algo tree in
        let inst =
          Experiments.Common.instance_for setup ~spatial ~grid tree
            r.Bufins.Engine.buffers
        in
        let form = Sta.Buffered.canonical_rat inst in
        let rng = Numeric.Rng.create ~seed:123 in
        let samples =
          Sta.Buffered.monte_carlo inst ~rng ~trials:setup.Experiments.Common.mc_trials
        in
        (algo, r, form, samples))
      [ Experiments.Common.Nom; Experiments.Common.D2d; Experiments.Common.Wid ]
  in
  (* Common target: WID mean RAT degraded 10% (the paper's §5.3 rule). *)
  let wid_form =
    match List.rev results with (_, _, f, _) :: _ -> f | [] -> assert false
  in
  let target = Linform.mean wid_form *. 1.10 in
  Format.printf "common RAT target: %.1f ps (WID mean - 10%%)@.@." target;
  Format.printf "%5s %9s %12s %12s %10s %10s %9s@." "algo" "buffers" "mean(ps)"
    "y95 RAT" "yield" "MC yield" "sigma";
  List.iter
    (fun (algo, r, form, samples) ->
      Format.printf "%5s %9d %12.1f %12.1f %9.1f%% %9.1f%% %9.1f@."
        (Experiments.Common.algo_name algo)
        (List.length r.Bufins.Engine.buffers)
        (Linform.mean form)
        (Sta.Yield.rat_at_yield form ~yield:0.95)
        (100.0 *. Sta.Yield.timing_yield form ~target)
        (100.0 *. Sta.Yield.mc_timing_yield samples ~target)
        (Linform.std form))
    results
