type row = {
  spatial : string;
  levels : int;
  sinks : int;
  buffers : int;
  nominal_skew : float;
  canonical_mean : float;
  mc_mean : float;
  mc_p95 : float;
}

let compute setup ?(levels = 4) () =
  let die_um = 16000.0 in
  let sink_params =
    { Rctree.Generate.cap_lo = 8.0; cap_hi = 8.0; rat = 0.0; rat_spread = 0.0 }
  in
  let tree = Rctree.Generate.h_tree ~sink_params ~levels ~die_um () in
  let grid = Common.grid ~die_um in
  List.map
    (fun (name, spatial) ->
      let r = Common.run_algo setup ~spatial ~grid Common.Wid tree in
      let inst =
        Common.instance_for setup ~spatial ~grid tree r.Bufins.Engine.buffers
      in
      let nominal_skew = Sta.Skew.sample_skew inst ~lookup:(fun _ -> 0.0) in
      let canonical = Sta.Skew.canonical_skew inst in
      let rng = Numeric.Rng.create ~seed:55 in
      let trials = max 200 (setup.Common.mc_trials / 4) in
      let skews = Sta.Skew.monte_carlo inst ~rng ~trials in
      {
        spatial = name;
        levels;
        sinks = Rctree.Tree.sink_count tree;
        buffers = List.length r.Bufins.Engine.buffers;
        nominal_skew;
        canonical_mean = Linform.mean canonical;
        mc_mean = Numeric.Stats.mean skews;
        mc_p95 = Numeric.Stats.percentile skews 0.95;
      })
    [
      ("homogeneous", Varmodel.Model.Homogeneous);
      ("heterogeneous", Varmodel.Model.default_heterogeneous);
    ]

let run ppf setup =
  Format.fprintf ppf
    "== Extension (§6 future work): clock skew of a buffered H-tree ==@.";
  let rows = compute setup () in
  (match rows with
  | r :: _ ->
    Format.fprintf ppf "H-tree: %d levels, %d sinks, %d buffers (WID, 2P)@."
      r.levels r.sinks r.buffers
  | [] -> ());
  Common.pp_row ppf
    [ "Spatial"; "nom skew"; "model mean"; "MC mean"; "MC p95" ];
  List.iter
    (fun r ->
      Common.pp_row ppf
        [
          r.spatial;
          Printf.sprintf "%.2f" r.nominal_skew;
          Printf.sprintf "%.1f" r.canonical_mean;
          Printf.sprintf "%.1f" r.mc_mean;
          Printf.sprintf "%.1f" r.mc_p95;
        ])
    rows
