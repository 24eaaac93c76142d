type row = {
  b : int;
  buffers : int;
  inverters : int;
  mix : string;
  rat_y95 : float;
  peak_candidates : int;
  runtime_s : float;
}

let bs = [ 1; 2; 4; 8 ]

let compute setup ?(bench = "r1") () =
  let info = Rctree.Benchmarks.find bench in
  let tree = Rctree.Benchmarks.load info in
  let spatial = Varmodel.Model.default_heterogeneous in
  Common.map_cells setup
    ~f:(fun b ->
      let setup =
        { setup with Common.library = Device.Buffer.synth_library ~btypes:b }
      in
      let grid = Common.grid ~die_um:info.Rctree.Benchmarks.die_um in
      let r = Common.run_algo setup ~spatial ~grid Common.Wid tree in
      let form =
        Common.evaluate setup ~spatial ~grid tree r.Bufins.Engine.buffers
      in
      let inverters =
        List.length
          (List.filter
             (fun ((_ : int), d) -> Device.Buffer.is_inverting d)
             r.Bufins.Engine.buffers)
      in
      {
        b = Array.length setup.Common.library;
        buffers = List.length r.Bufins.Engine.buffers;
        inverters;
        mix = Common.mix_string setup r.Bufins.Engine.buffers;
        rat_y95 =
          Sta.Yield.rat_at_yield form ~yield:0.95;
        peak_candidates =
          r.Bufins.Engine.stats.Bufins.Engine.peak_candidates;
        runtime_s = r.Bufins.Engine.stats.Bufins.Engine.runtime_s;
      })
    bs

let run ppf setup =
  Format.fprintf ppf
    "== Buffer-library size: WID type mix vs b (r1, synthetic ladder) ==@.";
  Common.pp_row ppf
    [ "b"; "buffers"; "inv"; "y95 RAT"; "peak"; "time(s)"; "mix" ];
  List.iter
    (fun r ->
      Common.pp_row ppf
        [
          string_of_int r.b;
          string_of_int r.buffers;
          string_of_int r.inverters;
          Printf.sprintf "%.0f" r.rat_y95;
          string_of_int r.peak_candidates;
          Printf.sprintf "%.2f" r.runtime_s;
          r.mix;
        ])
    (compute setup ())
