type outcome =
  | Finished of float
  | Dnf of string

type row = {
  bench : string;
  four_p : outcome;
  two_p : float;
  speedup : float option;
}

(* The candidate cap also bounds memory (every cross-product candidate
   holds two canonical forms): 300k candidates is roughly a gigabyte,
   standing in for the paper's 2 GB limit. *)
let default_budget =
  { Bufins.Engine.max_candidates = Some 300_000; max_seconds = Some 120.0 }

let compute setup ?(four_p_budget = default_budget)
    ?(benches = Rctree.Benchmarks.names) () =
  let spatial = Varmodel.Model.default_heterogeneous in
  List.map
    (fun bname ->
      let info = Rctree.Benchmarks.find bname in
      let tree = Rctree.Benchmarks.load info in
      let grid = Common.grid ~die_um:info.Rctree.Benchmarks.die_um in
      let two_p =
        (Common.run_algo setup ~spatial ~grid Common.Wid tree).Bufins.Engine.stats
          .Bufins.Engine.runtime_s
      in
      let four_p =
        try
          let r =
            Common.run_algo setup ~rule:(Bufins.Prune.four_param ())
              ~budget:four_p_budget ~spatial ~grid Common.Wid tree
          in
          Finished r.Bufins.Engine.stats.Bufins.Engine.runtime_s
        with Bufins.Engine.Budget_exceeded msg -> Dnf msg
      in
      let speedup =
        match four_p with Finished t -> Some (t /. two_p) | Dnf _ -> None
      in
      { bench = bname; four_p; two_p; speedup })
    benches

let run ppf setup =
  Format.fprintf ppf "== Table 2: runtime comparison (seconds) ==@.";
  Common.pp_row ppf [ "Bench"; "4P"; "2P"; "Speedup" ];
  List.iter
    (fun r ->
      Common.pp_row ppf
        [
          r.bench;
          (match r.four_p with
          | Finished t -> Printf.sprintf "%.1f" t
          | Dnf _ -> "DNF");
          Printf.sprintf "%.2f" r.two_p;
          (match r.speedup with
          | Some s -> Printf.sprintf "%.1fx" s
          | None -> "-");
        ])
    (compute setup ())
