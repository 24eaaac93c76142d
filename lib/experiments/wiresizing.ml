type config = Buffer_only | Sized | Sized_cmp

let config_name = function
  | Buffer_only -> "buffers"
  | Sized -> "sized"
  | Sized_cmp -> "sized+cmp"

type row = {
  bench : string;
  config : config;
  y95 : float;
  sigma : float;
  buffers : int;
  sized_wires : int;
  seconds : float;
}

let cmp_frac = 0.05

let compute setup ?(benches = [ "p1"; "r1"; "r2" ]) () =
  let spatial = Varmodel.Model.default_heterogeneous in
  List.concat_map
    (fun bname ->
      let info = Rctree.Benchmarks.find bname in
      let tree = Rctree.Benchmarks.load info in
      let grid = Common.grid ~die_um:info.Rctree.Benchmarks.die_um in
      List.map
        (fun config ->
          let wire_sizing = config <> Buffer_only in
          let wire_frac = if config = Sized_cmp then cmp_frac else 0.0 in
          let mk_model () =
            Varmodel.Model.create ~mode:Varmodel.Model.Wid ~budget:setup.Common.budget
              ~wire_frac ~spatial ~grid ()
          in
          let engine_config =
            {
              (Bufins.Engine.default_config ~wire_sizing ()) with
              Bufins.Engine.tech = Common.tech;
              library = setup.Common.library;
            }
          in
          let r = Bufins.Engine.run engine_config ~model:(mk_model ()) tree in
          let buffered =
            Sta.Buffered.make ~tech:Common.tech
              ~widths:r.Bufins.Engine.widths tree r.Bufins.Engine.buffers
          in
          let form =
            Sta.Buffered.canonical_rat
              (Sta.Buffered.instantiate ~model:(mk_model ()) buffered)
          in
          {
            bench = bname;
            config;
            y95 = Sta.Yield.rat_at_yield form ~yield:0.95;
            sigma = Linform.std form;
            buffers = List.length r.Bufins.Engine.buffers;
            sized_wires = List.length r.Bufins.Engine.widths;
            seconds = r.Bufins.Engine.stats.Bufins.Engine.runtime_s;
          })
        [ Buffer_only; Sized; Sized_cmp ])
    benches

let run ppf setup =
  Format.fprintf ppf
    "== Extension: simultaneous buffer insertion and wire sizing (WID, 2P) ==@.";
  Common.pp_row ppf
    [ "Bench"; "Config"; "y95 RAT"; "sigma"; "Buffers"; "Wides"; "Sec" ];
  List.iter
    (fun r ->
      Common.pp_row ppf
        [
          r.bench;
          config_name r.config;
          Printf.sprintf "%.1f" r.y95;
          Printf.sprintf "%.1f" r.sigma;
          string_of_int r.buffers;
          string_of_int r.sized_wires;
          Printf.sprintf "%.1f" r.seconds;
        ])
    (compute setup ())
