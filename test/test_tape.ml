(* Tests for lib/compile and the DP driver that runs it.

   The contract under test is byte-identity: for every pruning rule
   (det/2P/1P/4P), the sampling engine and the probabilistic DP, the
   task-parallel schedule at any job count must produce exactly the
   sequential result — same assignment, same stats, same candidate
   counts — with observability on or off.  test_golden pins the
   sequential bytes themselves. *)

let qcheck = QCheck_alcotest.to_alcotest
let tech = Device.Tech.default_65nm
let library = Device.Buffer.default_library

let grid die =
  Varmodel.Grid.create ~width_um:die ~height_um:die ~pitch_um:500.0
    ~range_um:2000.0

let model ?(mode = Varmodel.Model.Wid) die =
  Varmodel.Model.create ~mode ~spatial:Varmodel.Model.default_heterogeneous
    ~grid:(grid die) ()

let config ?(rule = Bufins.Prune.two_param ()) () =
  {
    (Bufins.Engine.default_config ~rule ()) with
    Bufins.Engine.tech;
    library;
  }

let with_pool jobs f =
  let pool = Exec.Pool.create ~jobs () in
  Fun.protect ~finally:(fun () -> Exec.Pool.shutdown pool) (fun () -> f pool)

let with_obs enabled f =
  let was = Obs.Control.on () in
  if enabled then Obs.Control.enable () else Obs.Control.disable ();
  Fun.protect f ~finally:(fun () ->
      if was then Obs.Control.enable () else Obs.Control.disable ())

let strip_result (r : Bufins.Engine.result) =
  ( r.Bufins.Engine.root_rat,
    r.Bufins.Engine.best,
    r.Bufins.Engine.buffers,
    r.Bufins.Engine.widths,
    r.Bufins.Engine.load_limit_met,
    r.Bufins.Engine.stats.Bufins.Engine.peak_candidates,
    r.Bufins.Engine.stats.Bufins.Engine.total_candidates )

let par_rules =
  [
    Bufins.Prune.deterministic;
    Bufins.Prune.two_param ~p_l:0.9 ~p_t:0.9 ();
    Bufins.Prune.one_param ~alpha:0.95;
    Bufins.Prune.four_param ();
  ]

(* ---------- tape structure ---------- *)

let test_compile_shape () =
  let tree = Rctree.Generate.random_steiner ~seed:11 ~sinks:30 ~die_um:4000.0 () in
  let tape = Compile.Tape.compile tree in
  let n = Compile.Tape.node_count tape in
  Alcotest.(check int) "nodes" (Rctree.Tree.node_count tree) n;
  Alcotest.(check int) "edges" (Rctree.Tree.edge_count tree)
    (Compile.Tape.edge_count tape);
  Alcotest.(check int) "root" (Rctree.Tree.root tree) (Compile.Tape.root tape);
  Alcotest.(check int) "root subtree" n tape.Compile.Tape.size.(Compile.Tape.root tape);
  (* Child links, sink data and edge numbering: edges are numbered in
     postorder over parent nodes, child edges in list order — the
     order binding consumes device ids in. *)
  let next_edge = ref 0 in
  Array.iter
    (fun id ->
      let kids = Rctree.Tree.children tree id in
      let link i = match List.nth_opt kids i with Some (c, _) -> c | None -> -1 in
      Alcotest.(check int) "left" (link 0) tape.Compile.Tape.left.(id);
      Alcotest.(check int) "right" (link 1) tape.Compile.Tape.right.(id);
      (match Rctree.Tree.sink tree id with
      | Some s ->
        Alcotest.(check (float 0.0)) "sink cap" s.Rctree.Tree.sink_cap
          tape.Compile.Tape.sink_cap.(id);
        Alcotest.(check (float 0.0)) "sink rat" s.Rctree.Tree.sink_rat
          tape.Compile.Tape.sink_rat.(id)
      | None -> ());
      List.iter
        (fun (c, length) ->
          let e = tape.Compile.Tape.edge_above.(c) in
          Alcotest.(check int) "edge order" !next_edge e;
          incr next_edge;
          Alcotest.(check int) "edge site" id tape.Compile.Tape.edge_site.(e);
          Alcotest.(check (float 0.0)) "edge length" length
            tape.Compile.Tape.edge_length.(e))
        kids)
    (Rctree.Tree.postorder tree);
  Alcotest.(check int) "root has no edge" (-1)
    tape.Compile.Tape.edge_above.(Compile.Tape.root tape)

(* ---------- canonical engine identity ---------- *)

(* The model consumes device ids as the DP runs, so every run gets a
   fresh model; identity across job counts is exactly the claim under
   test. *)
let test_tape_identity_rules () =
  let die = 4000.0 in
  List.iter
    (fun rule ->
      let cases =
        if Bufins.Prune.is_linear rule then [ (211, 12); (212, 30) ]
        else [ (211, 8) ]
      in
      List.iter
        (fun (seed, sinks) ->
          let tree = Rctree.Generate.random_steiner ~seed ~sinks ~die_um:die () in
          let tape = Compile.Tape.compile tree in
          let cfg = config ~rule () in
          let seq =
            strip_result (Bufins.Engine.run_tape cfg ~model:(model die) tape)
          in
          Alcotest.(check bool)
            (Printf.sprintf "%s seed=%d run tree = run_tape" (Bufins.Prune.name rule) seed)
            true
            (strip_result (Bufins.Engine.run cfg ~model:(model die) tree) = seq);
          List.iter
            (fun jobs ->
              with_pool jobs (fun pool ->
                  let r =
                    Bufins.Engine.run_tape ~pool ~grain:2 cfg ~model:(model die)
                      tape
                  in
                  Alcotest.(check bool)
                    (Printf.sprintf "%s seed=%d jobs=%d = sequential"
                       (Bufins.Prune.name rule) seed jobs)
                    true
                    (strip_result r = seq)))
            [ 1; 2; 4 ])
        cases)
    par_rules

let test_tape_identity_obs () =
  let tree = Rctree.Generate.random_steiner ~seed:213 ~sinks:20 ~die_um:4000.0 () in
  let tape = Compile.Tape.compile tree in
  let cfg = config () in
  let base =
    with_obs false (fun () ->
        strip_result (Bufins.Engine.run_tape cfg ~model:(model 4000.0) tape))
  in
  List.iter
    (fun obs ->
      with_obs obs (fun () ->
          List.iter
            (fun jobs ->
              let run pool =
                Bufins.Engine.run_tape ?pool ~grain:2 cfg ~model:(model 4000.0)
                  tape
              in
              let r =
                match jobs with
                | None -> run None
                | Some jobs -> with_pool jobs (fun pool -> run (Some pool))
              in
              Alcotest.(check bool)
                (Printf.sprintf "obs=%b jobs=%s = sequential obs off" obs
                   (match jobs with None -> "seq" | Some j -> string_of_int j))
                true
                (strip_result r = base))
            [ None; Some 2 ]))
    [ false; true ]

let prop_jobs_match_sequential =
  QCheck.Test.make
    ~name:"jobs 1/2/4 = sequential DP (random trees, all rules, obs on/off)"
    ~count:10
    QCheck.(
      pair
        (quad (int_range 2 20) (int_range 0 1000) (int_range 0 3) (int_range 0 2))
        bool)
    (fun ((sinks, seed, rule_idx, jobs_idx), obs) ->
      let rule = List.nth par_rules rule_idx in
      let sinks = if Bufins.Prune.is_linear rule then sinks else min sinks 8 in
      let jobs = List.nth [ 1; 2; 4 ] jobs_idx in
      let die = 4000.0 in
      let tree = Rctree.Generate.random_steiner ~seed ~sinks ~die_um:die () in
      let tape = Compile.Tape.compile tree in
      let cfg = config ~rule () in
      let seq = strip_result (Bufins.Engine.run_tape cfg ~model:(model die) tape) in
      with_obs obs (fun () ->
          with_pool jobs (fun pool ->
              strip_result
                (Bufins.Engine.run_tape ~pool ~grain:2 cfg ~model:(model die)
                   tape)
              = seq)))

(* ---------- sampling engine identity ---------- *)

let strip_sample (r : Sample.Engine.result) =
  ( r.Sample.Engine.best.Sample.Engine.load,
    r.Sample.Engine.best.Sample.Engine.rat,
    r.Sample.Engine.root_rat,
    r.Sample.Engine.root_best_per_sample,
    r.Sample.Engine.buffers,
    r.Sample.Engine.widths,
    r.Sample.Engine.sampled_mean,
    r.Sample.Engine.sampled_std,
    r.Sample.Engine.rat_at_yield,
    r.Sample.Engine.load_limit_met,
    r.Sample.Engine.stats.Bufins.Engine.peak_candidates,
    r.Sample.Engine.stats.Bufins.Engine.total_candidates )

let test_tape_identity_sample () =
  let die = 4000.0 in
  let tree = Rctree.Generate.random_steiner ~seed:7 ~sinks:24 ~die_um:die () in
  let tape = Compile.Tape.compile tree in
  let cfg =
    { (Sample.Engine.default_config ~samples:64 ~seed:1 ()) with tech; library }
  in
  let seq = strip_sample (Sample.Engine.run_tape cfg ~model:(model die) tape) in
  Alcotest.(check bool) "sample run tree = run_tape" true
    (strip_sample (Sample.Engine.run cfg ~model:(model die) tree) = seq);
  List.iter
    (fun (jobs, obs) ->
      with_obs obs (fun () ->
          with_pool jobs (fun pool ->
              let r =
                Sample.Engine.run_tape ~pool ~grain:2 cfg ~model:(model die) tape
              in
              Alcotest.(check bool)
                (Printf.sprintf "sample jobs=%d obs=%b = sequential" jobs obs)
                true
                (strip_sample r = seq))))
    [ (1, false); (2, true); (4, false) ]

let prop_jobs_match_sequential_sample =
  QCheck.Test.make
    ~name:"sample jobs 1/2/4 = sequential DP (random trees, obs on/off)"
    ~count:6
    QCheck.(quad (int_range 2 14) (int_range 0 1000) (int_range 0 2) bool)
    (fun (sinks, seed, jobs_idx, obs) ->
      let jobs = List.nth [ 1; 2; 4 ] jobs_idx in
      let die = 4000.0 in
      let tree = Rctree.Generate.random_steiner ~seed ~sinks ~die_um:die () in
      let tape = Compile.Tape.compile tree in
      let cfg =
        {
          (Sample.Engine.default_config ~samples:32 ~seed:3 ()) with
          tech;
          library;
        }
      in
      let seq =
        strip_sample (Sample.Engine.run_tape cfg ~model:(model die) tape)
      in
      with_obs obs (fun () ->
          with_pool jobs (fun pool ->
              strip_sample
                (Sample.Engine.run_tape ~pool ~grain:2 cfg ~model:(model die)
                   tape)
              = seq)))

(* ---------- probabilistic DP identity ---------- *)

let strip_prob (r : Bufins.Probabilistic.result) =
  (r.rat_mean, r.rat_std, r.rat_p05, r.buffers, r.peak_candidates)

let test_tape_identity_probabilistic () =
  List.iter
    (fun (heuristic, sinks, seed) ->
      let tree = Rctree.Generate.random_steiner ~seed ~sinks ~die_um:4000.0 () in
      let tape = Compile.Tape.compile tree in
      let cfg = Bufins.Probabilistic.default_config ~heuristic () in
      let seq = strip_prob (Bufins.Probabilistic.run_tape cfg tape) in
      Alcotest.(check bool)
        (Printf.sprintf "%s run tree = run_tape"
           (Bufins.Probabilistic.heuristic_name heuristic))
        true
        (strip_prob (Bufins.Probabilistic.run cfg tree) = seq);
      List.iter
        (fun (jobs, obs) ->
          with_obs obs (fun () ->
              with_pool jobs (fun pool ->
                  let r =
                    Bufins.Probabilistic.run_tape ~pool ~grain:2 cfg tape
                  in
                  Alcotest.(check bool)
                    (Printf.sprintf "%s jobs=%d obs=%b = sequential"
                       (Bufins.Probabilistic.heuristic_name heuristic) jobs obs)
                    true
                    (strip_prob r = seq))))
        [ (2, true); (4, false) ])
    [
      (Bufins.Probabilistic.Mean_dominance, 20, 305);
      (Bufins.Probabilistic.Stochastic_dominance, 10, 306);
    ]

let suite =
  [
    Alcotest.test_case "compile shape" `Quick test_compile_shape;
    Alcotest.test_case "tape identity (all rules, jobs)" `Quick
      test_tape_identity_rules;
    Alcotest.test_case "tape identity (obs on/off)" `Quick
      test_tape_identity_obs;
    Alcotest.test_case "tape identity (sample engine)" `Quick
      test_tape_identity_sample;
    Alcotest.test_case "tape identity (probabilistic)" `Quick
      test_tape_identity_probabilistic;
    qcheck prop_jobs_match_sequential;
    qcheck prop_jobs_match_sequential_sample;
  ]
