type row = {
  levels : int;
  sinks : int;
  buffer_positions : int;
  seconds : float;
  peak_candidates : int;
  buffers : int;
}

let compute setup ?(max_levels = 8) () =
  let die_um = 20000.0 in
  let grid = Common.grid ~die_um in
  let spatial = Varmodel.Model.default_heterogeneous in
  List.map
    (fun levels ->
      let tree = Rctree.Generate.h_tree ~levels ~die_um () in
      let r = Common.run_algo setup ~spatial ~grid Common.Wid tree in
      {
        levels;
        sinks = Rctree.Tree.sink_count tree;
        buffer_positions = Rctree.Tree.edge_count tree;
        seconds = r.Bufins.Engine.stats.Bufins.Engine.runtime_s;
        peak_candidates = r.Bufins.Engine.stats.Bufins.Engine.peak_candidates;
        buffers = List.length r.Bufins.Engine.buffers;
      })
    (List.init (max_levels - 3) (fun i -> i + 4))

let run ppf setup =
  Format.fprintf ppf
    "== Capacity (footnote 4): 2P WID on H-tree clock networks ==@.";
  Common.pp_row ppf
    [ "Levels"; "Sinks"; "BufferPos"; "Seconds"; "PeakCand"; "Buffers" ];
  List.iter
    (fun r ->
      Common.pp_row ppf
        [
          string_of_int r.levels;
          string_of_int r.sinks;
          string_of_int r.buffer_positions;
          Printf.sprintf "%.1f" r.seconds;
          string_of_int r.peak_candidates;
          string_of_int r.buffers;
        ])
    (compute setup ())
