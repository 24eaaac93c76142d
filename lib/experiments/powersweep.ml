(* Yield-vs-power Pareto curves on the Table-1 nets, traced with the
   weighted scalarisation objective.

   For each benchmark the canonical 2P engine runs once per weight w
   under Weighted w: pruning keeps the (load, RAT, power) Pareto
   frontier — the same frontier for every w, since only power-awareness
   (not the weight) enters the comparator — and the root picks the
   candidate maximising y95(RAT) − w·energy.  Scanning w therefore
   walks the root frontier's convex hull from timing-optimal (w = 0)
   towards power-optimal (w large): by the standard exchange argument
   on a fixed candidate set, the chosen energy is non-increasing and
   the chosen yield-RAT non-decreasing in cost as w grows.  The [mono]
   column asserts exactly that, net by net — a non-monotone curve
   would mean the frontier or the scalarisation is broken. *)

type point = {
  w : float;  (** scalarisation weight, ps per fJ *)
  y95 : float;  (** 95%-yield driver RAT of the chosen assignment, ps *)
  power_fj : float;  (** accumulated buffer energy *)
  buffers : int;
}

type row = {
  bench : string;
  points : point list;  (** one per weight, ascending w *)
  monotone : bool;
      (** energy non-increasing and yield-RAT non-increasing along the
          sweep — the Pareto-curve property *)
}

let default_weights = [ 0.0; 0.5; 1.0; 2.0; 5.0; 10.0 ]

let compute_one setup ?(weights = default_weights) bname =
  let spatial = Varmodel.Model.default_heterogeneous in
  let info = Rctree.Benchmarks.find bname in
  let tree = Rctree.Benchmarks.load info in
  let grid = Common.grid ~die_um:info.Rctree.Benchmarks.die_um in
  let points =
    List.map
      (fun w ->
        let r =
          Common.run_algo setup ~rule:(Bufins.Prune.two_param ())
            ~objective:(Bufins.Dominance.Weighted w) ~spatial ~grid Common.Wid
            tree
        in
        {
          w;
          y95 = Sta.Yield.rat_at_yield r.Bufins.Engine.root_rat ~yield:0.95;
          power_fj = r.Bufins.Engine.best.Bufins.Sol.power;
          buffers = List.length r.Bufins.Engine.buffers;
        })
      (List.sort_uniq compare weights)
  in
  let rec mono = function
    | a :: (b :: _ as rest) ->
      b.power_fj <= a.power_fj && b.y95 <= a.y95 && mono rest
    | _ -> true
  in
  { bench = bname; points; monotone = mono points }

let compute setup ?(benches = [ "r1"; "r2"; "r3"; "r4"; "r5" ])
    ?(weights = default_weights) () =
  List.map (fun b -> compute_one setup ~weights b) benches

let pp_row ppf r =
  List.iter
    (fun p ->
      Common.pp_row ppf
        [
          r.bench;
          Printf.sprintf "%.1f" p.w;
          Printf.sprintf "%.1f" p.y95;
          Printf.sprintf "%.1f" p.power_fj;
          string_of_int p.buffers;
          (if r.monotone then "yes" else "NO");
        ])
    r.points

let run ppf setup =
  Format.fprintf ppf
    "== Extension: yield-vs-power Pareto curve (WID, 2P, weighted \
     scalarisation) ==@.";
  Common.pp_row ppf [ "Bench"; "w"; "y95 RAT"; "Power fJ"; "Buf"; "Mono" ];
  List.iter
    (fun b ->
      pp_row ppf (compute_one setup b);
      Format.pp_print_flush ppf ())
    [ "r1"; "r2"; "r3"; "r4"; "r5" ]
