(* Multi-type buffer library tests: the canonical engine's convex
   insertion step must be an optimisation, never a semantics change
   (Convex_auto ≡ Exhaustive byte-for-byte wherever it engages, across
   job counts and obs), and the dual-polarity frontiers of every
   engine must only ever choose assignments whose inverter chains
   restore sink polarity. *)

let qcheck = QCheck_alcotest.to_alcotest
let tech = Device.Tech.default_65nm

let grid die =
  Varmodel.Grid.create ~width_um:die ~height_um:die ~pitch_um:500.0
    ~range_um:2000.0

let model ?(mode = Varmodel.Model.Wid) die =
  Varmodel.Model.create ~mode ~spatial:Varmodel.Model.default_heterogeneous
    ~grid:(grid die) ()

let with_pool jobs f =
  let pool = Exec.Pool.create ~jobs () in
  Fun.protect ~finally:(fun () -> Exec.Pool.shutdown pool) (fun () -> f pool)

let with_obs enabled f =
  let was = Obs.Control.on () in
  if enabled then Obs.Control.enable () else Obs.Control.disable ();
  Fun.protect f ~finally:(fun () ->
      if was then Obs.Control.enable () else Obs.Control.disable ())

let config ?(rule = Bufins.Prune.two_param ()) ?(library = Device.Buffer.default_library)
    ?(insertion = Bufins.Engine.Convex_auto) ?(wire_sizing = false) () =
  {
    (Bufins.Engine.default_config ~rule ~wire_sizing ()) with
    Bufins.Engine.tech;
    library;
    insertion;
  }

let strip_result (r : Bufins.Engine.result) =
  ( r.Bufins.Engine.root_rat,
    r.Bufins.Engine.best,
    r.Bufins.Engine.buffers,
    r.Bufins.Engine.widths,
    r.Bufins.Engine.load_limit_met,
    r.Bufins.Engine.stats.Bufins.Engine.peak_candidates,
    r.Bufins.Engine.stats.Bufins.Engine.total_candidates )

(* ---------- the library itself ---------- *)

let test_synth_library () =
  (* b <= 1 is the historical 3-repeater library: byte-compatible
     behaviour for every caller that never asks for types. *)
  Alcotest.(check bool) "b=1 is the default library" true
    (Device.Buffer.synth_library ~btypes:1 = Device.Buffer.default_library);
  List.iter
    (fun b ->
      let lib = Device.Buffer.synth_library ~btypes:b in
      Alcotest.(check int) (Printf.sprintf "b=%d size" b) b (Array.length lib);
      Alcotest.(check bool) (Printf.sprintf "b=%d has inverters" b) (b >= 2)
        (Device.Buffer.has_inverter lib);
      Alcotest.(check bool) (Printf.sprintf "b=%d caps distinct" b) true
        (Device.Buffer.caps_distinct lib);
      let ni, inv = Device.Buffer.partition_indices lib in
      Alcotest.(check int) (Printf.sprintf "b=%d partition covers" b) b
        (Array.length ni + Array.length inv);
      Array.iter
        (fun i ->
          Alcotest.(check bool) "inv slot inverts" true
            (Device.Buffer.is_inverting lib.(i)))
        inv)
    [ 2; 3; 4; 8; 16 ]

let test_library_parser () =
  let text =
    "# a two-type library\n\
     bufA 8.0 120.0 2.0\n\
     invA 8.0 72.0 2.0 inv\n\
     \n\
     bufB 24.0 140.0 0.8 buf\n"
  in
  let lib = Device.Buffer.of_string text in
  Alcotest.(check int) "three entries" 3 (Array.length lib);
  Alcotest.(check bool) "invA inverts" true
    (Device.Buffer.is_inverting (Device.Buffer.find lib "invA"));
  Alcotest.(check bool) "bufB does not" false
    (Device.Buffer.is_inverting (Device.Buffer.find lib "bufB"));
  let ni, inv = Device.Buffer.partition_indices lib in
  Alcotest.(check (list int)) "partition order" [ 0; 2 ] (Array.to_list ni);
  Alcotest.(check (list int)) "inverter slots" [ 1 ] (Array.to_list inv);
  Alcotest.(check bool) "duplicate caps detected" false
    (Device.Buffer.caps_distinct lib)

(* ---------- canonical engine: convex ≡ exhaustive ---------- *)

let rules =
  [
    Bufins.Prune.deterministic;
    Bufins.Prune.two_param ();  (* 2P(0.5,0.5): convex engages *)
    Bufins.Prune.two_param ~p_l:0.9 ~p_t:0.9 ();  (* falls back *)
    Bufins.Prune.one_param ~alpha:0.95;
    Bufins.Prune.four_param ();
  ]

let libraries =
  [
    ("b=1", Device.Buffer.default_library);
    ("b=2", Device.Buffer.synth_library ~btypes:2);
    ("b=5", Device.Buffer.synth_library ~btypes:5);
  ]

(* Each power-aware objective at eps_power 0 and 1e-2: under a
   mean-exact rule the insert step then builds only each type's
   (RAT, power) staircase. *)
let power_objectives =
  List.concat_map
    (fun o -> [ (o, 0.0); (o, 1e-2) ])
    Bufins.Dominance.[ Weighted 1.0; Weighted 50.0; Min_power (-1500.0) ]

let test_convex_equals_exhaustive () =
  let die = 4000.0 in
  let check ?(wire_sizing = false) ?load_limit ~rule ~library:(lbl, library)
      (objective, eps) (seed, sinks) =
    let tree = Rctree.Generate.random_steiner ~seed ~sinks ~die_um:die () in
    let run insertion =
      strip_result
        (Bufins.Engine.run
           {
             (config ~rule ~library ~insertion ~wire_sizing ()) with
             Bufins.Engine.load_limit;
             power_objective = objective;
             eps_power = eps;
           }
           ~model:(model die) tree)
    in
    Alcotest.(check bool)
      (Printf.sprintf "%s %s %s eps=%g%s%s seed=%d convex=exhaustive"
         (Bufins.Prune.name rule) lbl
         (Bufins.Dominance.to_string objective)
         eps
         (if wire_sizing then " wire-sizing" else "")
         (match load_limit with
          | Some l -> Printf.sprintf " load-limit=%g" l
          | None -> "")
         seed)
      true
      (run Bufins.Engine.Convex_auto = run Bufins.Engine.Exhaustive)
  in
  List.iter
    (fun rule ->
      (* The power-aware objectives run on the small net only where
         the rule falls back to exhaustive insertion (their frontiers
         grow large under 2P(0.9, 0.9)), and not at all under 4P,
         which refuses them. *)
      let max_yield_cases, power_cases =
        if not (Bufins.Prune.is_linear rule) then ([ (211, 6) ], [])
        else if Bufins.Prune.mean_exact rule then
          ([ (211, 12); (97, 25) ], [ (211, 12); (97, 25) ])
        else ([ (211, 12); (97, 25) ], [ (211, 6) ])
      in
      List.iter
        (fun library ->
          List.iter
            (check ~rule ~library (Bufins.Dominance.Max_yield, 0.0))
            max_yield_cases;
          List.iter
            (fun objective -> List.iter (check ~rule ~library objective) power_cases)
            power_objectives)
        libraries)
    rules;
  (* A load limit and wire sizing both reshape the wired rows the
     staircase scans. *)
  let library = List.nth libraries 2
  and weighted = (Bufins.Dominance.Weighted 1.0, 1e-2) in
  List.iter
    (fun rule ->
      check ~load_limit:60.0 ~rule ~library weighted (97, 25);
      check ~wire_sizing:true ~rule ~library weighted (211, 12))
    [ Bufins.Prune.deterministic; Bufins.Prune.two_param () ]

let test_convex_tape_jobs_obs () =
  (* One mean-exact rule on an inverter-bearing library: the sequential
     run, jobs 1/2/4 and obs on/off must all land on the same bytes, in
     both insertion modes (test_golden pins those bytes). *)
  let die = 4000.0 in
  let library = Device.Buffer.synth_library ~btypes:4 in
  let tree = Rctree.Generate.random_steiner ~seed:311 ~sinks:22 ~die_um:die () in
  let tape = Compile.Tape.compile tree in
  List.iter
    (fun insertion ->
      let cfg = config ~library ~insertion () in
      let seq =
        with_obs false (fun () ->
            strip_result (Bufins.Engine.run_tape cfg ~model:(model die) tape))
      in
      List.iter
        (fun obs ->
          with_obs obs (fun () ->
              Alcotest.(check bool)
                (Printf.sprintf "run tree = sequential obs=%b" obs)
                true
                (strip_result (Bufins.Engine.run cfg ~model:(model die) tree)
                = seq);
              List.iter
                (fun jobs ->
                  with_pool jobs (fun pool ->
                      Alcotest.(check bool)
                        (Printf.sprintf "jobs=%d obs=%b" jobs obs)
                        true
                        (strip_result
                           (Bufins.Engine.run_tape ~pool ~grain:2 cfg
                              ~model:(model die) tape)
                        = seq)))
                [ 1; 2; 4 ]))
        [ false; true ])
    [ Bufins.Engine.Convex_auto; Bufins.Engine.Exhaustive ]

(* ---------- Table-1 nets ---------- *)

let table1_net name =
  let info = Rctree.Benchmarks.find name in
  let grid = Job.grid ~die_um:info.Rctree.Benchmarks.die_um in
  ( Rctree.Benchmarks.load info,
    fun () ->
      Varmodel.Model.create ~mode:Varmodel.Model.Wid
        ~spatial:Varmodel.Model.default_heterogeneous ~grid () )

(* With every type's energy zero the power axis is constant, so at
   eps_power 0 the Pareto prune is the total order and [Weighted 0]
   picks what [Max_yield] picks: the power-aware run, through the
   staircase insert step, must land on the default run's bytes.  Both
   sides carry the zero energies, since the default engine still
   accumulates (never compares) them. *)
let test_zero_energy_weighted () =
  let tree, model = table1_net "r1" in
  let config = Bufins.Engine.default_config () in
  let config =
    {
      config with
      Bufins.Engine.energies =
        Some (Array.make (Array.length config.Bufins.Engine.library) 0.0);
    }
  in
  let run config = strip_result (Bufins.Engine.run config ~model:(model ()) tree) in
  Alcotest.(check bool) "r1 weighted 0 = max_yield" true
    (run
       {
         config with
         Bufins.Engine.power_objective = Bufins.Dominance.Weighted 0.0;
         eps_power = 0.0;
       }
    = run config)

(* The O(bn²) claim's empirical form: candidate generation is linear
   in b and the pruned frontier nearly flat, so the WID/2P peak
   frontier at b = 8 stays under four times the b = 1 peak. *)
let test_peak_b8_under_4x () =
  List.iter
    (fun name ->
      let tree, model = table1_net name in
      let peak b =
        (Bufins.Engine.run
           (config ~library:(Device.Buffer.synth_library ~btypes:b) ())
           ~model:(model ()) tree)
          .Bufins.Engine.stats.Bufins.Engine.peak_candidates
      in
      let p1 = peak 1 and p8 = peak 8 in
      Alcotest.(check bool)
        (Printf.sprintf "%s peak b=8 (%d) < 4 x peak b=1 (%d)" name p8 p1)
        true (p8 < 4 * p1))
    [ "r1"; "r2" ]

(* ---------- polarity invariant ---------- *)

(* Parity of inverters on the root→sink path; a buffer at node v sits
   on the edge above v, so v's subtree sees it. *)
let check_sink_parity tree buffers =
  let inverts v =
    match List.assoc_opt v buffers with
    | Some b -> Device.Buffer.is_inverting b
    | None -> false
  in
  let ok = ref true in
  let rec go v parity =
    let parity = if inverts v then not parity else parity in
    match Rctree.Tree.children tree v with
    | [] -> if parity then ok := false
    | kids -> List.iter (fun (k, _) -> go k parity) kids
  in
  go (Rctree.Tree.root tree) false;
  !ok

let prop_inverter_chains_restore_polarity =
  QCheck.Test.make ~count:40
    ~name:"chosen assignments have even inverter count on every root-sink path"
    QCheck.(triple (int_range 2 30) (int_range 0 10_000) (int_range 2 6))
    (fun (sinks, seed, b) ->
      let die = 4000.0 in
      let tree = Rctree.Generate.random_steiner ~seed ~sinks ~die_um:die () in
      let library = Device.Buffer.synth_library ~btypes:b in
      let r =
        Bufins.Engine.run (config ~library ()) ~model:(model die) tree
      in
      check_sink_parity tree r.Bufins.Engine.buffers)

let prop_sample_polarity =
  QCheck.Test.make ~count:15
    ~name:"sampling engine keeps sink polarity with inverter libraries"
    QCheck.(pair (int_range 2 16) (int_range 0 1000))
    (fun (sinks, seed) ->
      let die = 4000.0 in
      let tree = Rctree.Generate.random_steiner ~seed ~sinks ~die_um:die () in
      let library = Device.Buffer.synth_library ~btypes:4 in
      let cfg =
        { (Sample.Engine.default_config ~samples:32 ~seed:3 ()) with tech; library }
      in
      let r = Sample.Engine.run cfg ~model:(model die) tree in
      check_sink_parity tree r.Sample.Engine.buffers)

(* ---------- sampling engine: exact pruning ≡ brute force ---------- *)

(* Full per-sample dominance (relax 1) may only drop candidates that
   lose or tie in every sample, so the root frontier's per-sample best
   must equal the unpruned run's (relax > 1) bit for bit.  test_sample
   holds this on the default library; here the inverting types add the
   second parity frontier.  Unpruned frontiers grow exponentially,
   hence the tiny trees. *)
let test_sample_exact_matches_unpruned () =
  let die = 4000.0 in
  let bits a = Array.map Int64.bits_of_float a in
  List.iter
    (fun (lbl, library) ->
      List.iter
        (fun (seed, sinks) ->
          let tree = Rctree.Generate.random_steiner ~seed ~sinks ~die_um:die () in
          let best relax =
            let cfg =
              {
                (Sample.Engine.default_config ~samples:48 ~seed:5 ~relax ()) with
                tech;
                library;
              }
            in
            bits
              (Sample.Engine.run cfg ~model:(model die) tree)
                .Sample.Engine.root_best_per_sample
          in
          Alcotest.(check bool)
            (Printf.sprintf "%s seed=%d relax 1 = unpruned" lbl seed)
            true
            (best 1.0 = best 1.5))
        [ (41, 3); (42, 4) ])
    (List.filter (fun (_, lib) -> Device.Buffer.has_inverter lib) libraries)

(* ---------- probabilistic DP: polarity ---------- *)

let prop_probabilistic_polarity =
  QCheck.Test.make ~count:10
    ~name:"[6] engine keeps sink polarity with inverter libraries"
    QCheck.(pair (int_range 2 12) (int_range 0 1000))
    (fun (sinks, seed) ->
      let tree =
        Rctree.Generate.random_steiner ~seed ~sinks ~die_um:4000.0 ()
      in
      List.for_all
        (fun ((_, library), heuristic) ->
          let cfg =
            {
              (Bufins.Probabilistic.default_config ~heuristic ()) with
              Bufins.Probabilistic.library;
            }
          in
          check_sink_parity tree
            (Bufins.Probabilistic.run cfg tree).Bufins.Probabilistic.buffers)
        (List.concat_map
           (fun lib ->
             [
               (lib, Bufins.Probabilistic.Mean_dominance);
               (lib, Bufins.Probabilistic.Stochastic_dominance);
             ])
           (List.filter (fun (_, lib) -> Device.Buffer.has_inverter lib) libraries)))

let suite =
  [
    Alcotest.test_case "synthetic ladder library" `Quick test_synth_library;
    Alcotest.test_case "library file parser" `Quick test_library_parser;
    Alcotest.test_case "canonical convex = exhaustive (rules x libraries)"
      `Quick test_convex_equals_exhaustive;
    Alcotest.test_case "convex identity across tape/jobs/obs" `Quick
      test_convex_tape_jobs_obs;
    Alcotest.test_case "zero-energy weighted 0 = max_yield on r1" `Quick
      test_zero_energy_weighted;
    Alcotest.test_case "peak frontier at b=8 under 4x b=1 on r1, r2" `Quick
      test_peak_b8_under_4x;
    qcheck prop_inverter_chains_restore_polarity;
    qcheck prop_sample_polarity;
    Alcotest.test_case "sample exact prune = unpruned per-sample best (inverters)"
      `Quick test_sample_exact_matches_unpruned;
    qcheck prop_probabilistic_polarity;
  ]
