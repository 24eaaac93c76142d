type result = {
  bench : string;
  model_mu : float;
  model_sigma : float;
  mc_mu : float;
  mc_sigma : float;
  pdf_series : (float * float * float) list;
}

let compute setup ?(bench = "r5") ?(seed = 7) () =
  let info = Rctree.Benchmarks.find bench in
  let tree = Rctree.Benchmarks.load info in
  let grid = Common.grid ~die_um:info.Rctree.Benchmarks.die_um in
  let spatial = Varmodel.Model.default_heterogeneous in
  let wid = Common.run_algo setup ~spatial ~grid Common.Wid tree in
  let inst = Common.instance_for setup ~spatial ~grid tree wid.Bufins.Engine.buffers in
  let form = Sta.Buffered.canonical_rat inst in
  let samples =
    Sta.Buffered.monte_carlo ?pool:setup.Common.pool inst
      ~rng:(Numeric.Rng.create ~seed) ~trials:setup.Common.mc_trials
  in
  let s = Numeric.Stats.summarize samples in
  let hist = Numeric.Histogram.of_samples ~bins:40 samples in
  let mu = Linform.mean form and sigma = Linform.std form in
  let pdf_series =
    Array.to_list (Numeric.Histogram.density_series hist)
    |> List.map (fun (x, d) ->
           (x, d, Numeric.Normal.pdf_mu_sigma ~mu ~sigma x))
  in
  {
    bench;
    model_mu = mu;
    model_sigma = sigma;
    mc_mu = s.Numeric.Stats.mean;
    mc_sigma = s.Numeric.Stats.std;
    pdf_series;
  }

let run ppf setup =
  let r = compute setup () in
  Format.fprintf ppf
    "== Fig 6: RAT at the root, model vs Monte Carlo (%s, %d trials) ==@." r.bench
    setup.Common.mc_trials;
  Format.fprintf ppf "model: mu=%.1f ps sigma=%.1f ps | MC: mu=%.1f ps sigma=%.1f ps@."
    r.model_mu r.model_sigma r.mc_mu r.mc_sigma;
  Common.pp_row ppf [ "RAT(ps)"; "MC pdf"; "model pdf" ];
  List.iteri
    (fun i (x, d, f) ->
      if i mod 4 = 0 then
        Common.pp_row ppf
          [ Printf.sprintf "%.0f" x; Printf.sprintf "%.5f" d; Printf.sprintf "%.5f" f ])
    r.pdf_series
