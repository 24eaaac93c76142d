type outcome =
  | Done of { seconds : float; peak : int; rat_mean : float }
  | Dnf of string

type row = {
  sinks : int;
  by_algo : (string * outcome) list;
}

let algos = [ "2P"; "1P"; "4P"; "[6] mean"; "[6] stoch" ]

let default_budget =
  { Bufins.Engine.max_candidates = Some 100_000; max_seconds = Some 30.0 }

let compute setup ?(sizes = [ 64; 128; 256; 512 ]) ?(budget = default_budget) () =
  let spatial = Varmodel.Model.default_heterogeneous in
  List.map
    (fun sinks ->
      let die_um = Common.die_for_sinks sinks in
      let tree = Rctree.Generate.random_steiner ~seed:77 ~sinks ~die_um () in
      let grid = Common.grid ~die_um in
      let canonical rule =
        try
          let r = Common.run_algo setup ~rule ~budget ~spatial ~grid Common.Wid tree in
          Done
            {
              seconds = r.Bufins.Engine.stats.Bufins.Engine.runtime_s;
              peak = r.Bufins.Engine.stats.Bufins.Engine.peak_candidates;
              rat_mean = Linform.mean r.Bufins.Engine.root_rat;
            }
        with Bufins.Engine.Budget_exceeded msg -> Dnf msg
      in
      let probabilistic heuristic =
        let config =
          {
            (Bufins.Probabilistic.default_config ~heuristic ()) with
            Bufins.Probabilistic.tech = Common.tech;
            library = setup.Common.library;
            budget;
          }
        in
        try
          let r = Bufins.Probabilistic.run config tree in
          Done
            {
              seconds = r.Bufins.Probabilistic.runtime_s;
              peak = r.Bufins.Probabilistic.peak_candidates;
              rat_mean = r.Bufins.Probabilistic.rat_mean;
            }
        with Bufins.Engine.Budget_exceeded msg -> Dnf msg
      in
      {
        sinks;
        by_algo =
          [
            ("2P", canonical (Bufins.Prune.two_param ()));
            ("1P", canonical (Bufins.Prune.one_param ~alpha:0.95));
            ("4P", canonical (Bufins.Prune.four_param ()));
            ("[6] mean", probabilistic Bufins.Probabilistic.Mean_dominance);
            ("[6] stoch", probabilistic Bufins.Probabilistic.Stochastic_dominance);
          ];
      })
    sizes

let run ppf setup =
  Format.fprintf ppf
    "== Related-work baselines: capacity under a common budget (WID) ==@.";
  Common.pp_row ppf ("Sinks" :: algos);
  List.iter
    (fun row ->
      Common.pp_row ppf
        (string_of_int row.sinks
        :: List.map
             (fun name ->
               match List.assoc name row.by_algo with
               | Done d -> Printf.sprintf "%.2fs/%d" d.seconds d.peak
               | Dnf _ -> "DNF")
             algos))
    (compute setup ())
