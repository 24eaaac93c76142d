type point = {
  bench : string;
  sinks : int;
  seconds : float;
}

type result = {
  points : point list;
  slope_ms_per_sink : float;
  r_squared : float;
}

let compute setup ?(benches = Rctree.Benchmarks.names) () =
  let spatial = Varmodel.Model.default_heterogeneous in
  let points =
    List.map
      (fun bname ->
        let info = Rctree.Benchmarks.find bname in
        let tree = Rctree.Benchmarks.load info in
        let grid = Common.grid ~die_um:info.Rctree.Benchmarks.die_um in
        let r = Common.run_algo setup ~spatial ~grid Common.Wid tree in
        {
          bench = bname;
          sinks = Rctree.Tree.sink_count tree;
          seconds = r.Bufins.Engine.stats.Bufins.Engine.runtime_s;
        })
      benches
  in
  let pts =
    Array.of_list (List.map (fun p -> (float_of_int p.sinks, p.seconds)) points)
  in
  let intercept, slope = Numeric.Linalg.fit_line pts in
  let mean_y = Numeric.Stats.mean (Array.map snd pts) in
  let ss_tot, ss_res =
    Array.fold_left
      (fun (st, sr) (x, y) ->
        let pred = intercept +. (slope *. x) in
        (st +. ((y -. mean_y) ** 2.0), sr +. ((y -. pred) ** 2.0)))
      (0.0, 0.0) pts
  in
  let r_squared = if ss_tot > 0.0 then 1.0 -. (ss_res /. ss_tot) else 1.0 in
  { points; slope_ms_per_sink = slope *. 1000.0; r_squared }

let run ppf setup =
  Format.fprintf ppf "== Fig 5: 2P runtime versus total number of sinks ==@.";
  let r = compute setup () in
  Common.pp_row ppf [ "Bench"; "Sinks"; "Seconds" ];
  List.iter
    (fun p ->
      Common.pp_row ppf
        [ p.bench; string_of_int p.sinks; Printf.sprintf "%.2f" p.seconds ])
    r.points;
  Format.fprintf ppf "linear fit: %.3f ms/sink, R^2 = %.3f@." r.slope_ms_per_sink
    r.r_squared
