type row = {
  pitch_um : float;
  range_um : float;
  sigma : float;
  rat_y95 : float;
  sources : int;
}

let variants =
  [
    (250.0, 2000.0);
    (500.0, 2000.0);  (* the paper's setting *)
    (1000.0, 2000.0);
    (500.0, 1000.0);
    (500.0, 4000.0);
  ]

let compute setup ?(bench = "r1") () =
  let info = Rctree.Benchmarks.find bench in
  let tree = Rctree.Benchmarks.load info in
  let die = info.Rctree.Benchmarks.die_um in
  let spatial = Varmodel.Model.default_heterogeneous in
  (* Optimise once under the paper's grid... *)
  let base_grid = Common.grid ~die_um:die in
  let solution = Common.run_algo setup ~spatial ~grid:base_grid Common.Wid tree in
  (* ...then re-evaluate the same buffering under each grid variant. *)
  List.map
    (fun (pitch_um, range_um) ->
      let grid =
        Varmodel.Grid.create ~width_um:die ~height_um:die ~pitch_um ~range_um
      in
      let form =
        Common.evaluate setup ~spatial ~grid tree solution.Bufins.Engine.buffers
      in
      {
        pitch_um;
        range_um;
        sigma = Linform.std form;
        rat_y95 = Sta.Yield.rat_at_yield form ~yield:0.95;
        sources = Varmodel.Grid.regions grid;
      })
    variants

let run ppf setup =
  Format.fprintf ppf
    "== Ablation: spatial grid pitch / correlation range (r1, fixed WID buffering) ==@.";
  Common.pp_row ppf [ "Pitch(um)"; "Range(um)"; "sigma(ps)"; "y95 RAT"; "Sources" ];
  List.iter
    (fun r ->
      Common.pp_row ppf
        [
          Printf.sprintf "%.0f" r.pitch_um;
          Printf.sprintf "%.0f" r.range_um;
          Printf.sprintf "%.1f" r.sigma;
          Printf.sprintf "%.1f" r.rat_y95;
          string_of_int r.sources;
        ])
    (compute setup ())
