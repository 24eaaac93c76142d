type row = {
  p : float;
  rat_y95 : float;
  peak_candidates : int;
  seconds : float;
}

type result = {
  rows : row list;
  max_deviation_pct : float;
}

let compute setup ?(sinks = 64) ?(seed = 77)
    ?(ps = [ 0.5; 0.6; 0.7; 0.8; 0.9 ]) () =
  let die_um = Common.die_for_sinks sinks in
  let tree = Rctree.Generate.random_steiner ~seed ~sinks ~die_um () in
  let grid = Common.grid ~die_um in
  let spatial = Varmodel.Model.default_heterogeneous in
  let rows =
    Common.map_cells setup
      ~f:(fun p ->
        let rule = Bufins.Prune.two_param ~p_l:p ~p_t:p () in
        let r = Common.run_algo setup ~rule ~spatial ~grid Common.Wid tree in
        let form = Common.evaluate setup ~spatial ~grid tree r.Bufins.Engine.buffers in
        {
          p;
          rat_y95 = Sta.Yield.rat_at_yield form ~yield:0.95;
          peak_candidates = r.Bufins.Engine.stats.Bufins.Engine.peak_candidates;
          seconds = r.Bufins.Engine.stats.Bufins.Engine.runtime_s;
        })
      ps
  in
  let base = (List.hd rows).rat_y95 in
  let max_deviation_pct =
    List.fold_left
      (fun acc row -> Float.max acc (100.0 *. Float.abs ((row.rat_y95 -. base) /. base)))
      0.0 rows
  in
  { rows; max_deviation_pct }

let run ppf setup =
  Format.fprintf ppf
    "== p-bar sweep: impact of the 2P parameters on the final RAT (64-sink net) ==@.";
  let r = compute setup () in
  Common.pp_row ppf [ "p_bar"; "y95 RAT"; "peak cands"; "seconds" ];
  List.iter
    (fun row ->
      Common.pp_row ppf
        [
          Printf.sprintf "%.2f" row.p;
          Printf.sprintf "%.1f" row.rat_y95;
          string_of_int row.peak_candidates;
          Printf.sprintf "%.2f" row.seconds;
        ])
    r.rows;
  Format.fprintf ppf "max deviation from p=0.5: %.3f%%@." r.max_deviation_pct
