(* Golden byte-identity regression.

   New machinery must not move a byte of historical output; this
   suite pins that contract inside [dune runtest]: every rule x engine
   x sequential/jobs 1/2/4 x obs on/off run must reproduce the
   captured fingerprints exactly — %.17g floats, full assignment,
   candidate counts.  The first thirteen were captured before the shared
   dominance sweep (commit 620e644); the next eleven pin the cases the
   tape identity suites once compared against the recursive tree walk,
   captured from that walk before it was replaced by the one tape
   driver; the next three were captured before the sample engine's
   inner loops were rewritten.  All of those but "sample-16-weighted"
   run the default objective ([max_yield]).  The last twenty-four run
   the canonical engine under the power-aware objectives, captured
   (commit 8afb10f) while its insert step still built every wired x
   type row there.  Any drift in the driver, the [Bufins.Dominance]
   sweep, the power threading, the convex gating, the staircase
   selection or the sample kernels shows up here as a fingerprint
   mismatch. *)

let tech = Device.Tech.default_65nm

let grid die =
  Varmodel.Grid.create ~width_um:die ~height_um:die ~pitch_um:500.0
    ~range_um:2000.0

let model die =
  Varmodel.Model.create ~mode:Varmodel.Model.Wid
    ~spatial:Varmodel.Model.default_heterogeneous ~grid:(grid die) ()

let with_pool jobs f =
  let pool = Exec.Pool.create ~jobs () in
  Fun.protect ~finally:(fun () -> Exec.Pool.shutdown pool) (fun () -> f pool)

let with_obs enabled f =
  let was = Obs.Control.on () in
  if enabled then Obs.Control.enable () else Obs.Control.disable ();
  Fun.protect f ~finally:(fun () ->
      if was then Obs.Control.enable () else Obs.Control.disable ())

type mode = { jobs : int option; obs : bool }

(* jobs 1/2/4 and the pool-less sequential path, each with obs on and
   off. *)
let variants =
  List.concat_map
    (fun jobs -> [ { jobs; obs = false }; { jobs; obs = true } ])
    [ None; Some 1; Some 2; Some 4 ]

let variant_name m =
  Printf.sprintf "jobs=%s obs=%b"
    (match m.jobs with None -> "seq" | Some j -> string_of_int j)
    m.obs

let f17 = Printf.sprintf "%.17g"

let fp_buffers bufs =
  String.concat ";"
    (List.map
       (fun (n, b) -> Printf.sprintf "%d:%s" n b.Device.Buffer.name)
       bufs)

let fp_widths ws =
  String.concat ";"
    (List.map (fun (n, w) -> Printf.sprintf "%d:%s" n w.Device.Wire_lib.name) ws)

let fp_canonical (r : Bufins.Engine.result) =
  Printf.sprintf "rat=%s/%s buf=[%s] w=[%s] llm=%b peak=%d total=%d"
    (f17 (Linform.mean r.Bufins.Engine.root_rat))
    (f17 (Linform.std r.Bufins.Engine.root_rat))
    (fp_buffers r.Bufins.Engine.buffers)
    (fp_widths r.Bufins.Engine.widths)
    r.Bufins.Engine.load_limit_met
    r.Bufins.Engine.stats.Bufins.Engine.peak_candidates
    r.Bufins.Engine.stats.Bufins.Engine.total_candidates

let fp_sample (r : Sample.Engine.result) =
  Printf.sprintf "rat=%s/%s y=%s buf=[%s] w=[%s] llm=%b peak=%d total=%d"
    (f17 r.Sample.Engine.sampled_mean)
    (f17 r.Sample.Engine.sampled_std)
    (f17 r.Sample.Engine.rat_at_yield)
    (fp_buffers r.Sample.Engine.buffers)
    (fp_widths r.Sample.Engine.widths)
    r.Sample.Engine.load_limit_met
    r.Sample.Engine.stats.Bufins.Engine.peak_candidates
    r.Sample.Engine.stats.Bufins.Engine.total_candidates

let fp_prob (r : Bufins.Probabilistic.result) =
  Printf.sprintf "rat=%s/%s p05=%s buf=[%s] peak=%d"
    (f17 r.Bufins.Probabilistic.rat_mean)
    (f17 r.Bufins.Probabilistic.rat_std)
    (f17 r.Bufins.Probabilistic.rat_p05)
    (fp_buffers r.Bufins.Probabilistic.buffers)
    r.Bufins.Probabilistic.peak_candidates

(* Each case maps a run mode to its fingerprint; the contract is that
   the fingerprint does not depend on the mode. *)

(* A power-aware run's fingerprint also carries the chosen root
   candidate's energy, which only those objectives read. *)
let power_run ~objective ~eps ~insertion ~rule ~library ~sinks ~seed m =
  let die = 4000.0 in
  let tree = Rctree.Generate.random_steiner ~seed ~sinks ~die_um:die () in
  let cfg =
    {
      (Bufins.Engine.default_config ~rule ()) with
      Bufins.Engine.tech;
      library;
      insertion;
      power_objective = objective;
      eps_power = eps;
    }
  in
  let run pool = Bufins.Engine.run ?pool ~grain:2 cfg ~model:(model die) tree in
  let r =
    match m.jobs with
    | None -> run None
    | Some jobs -> with_pool jobs (fun pool -> run (Some pool))
  in
  if Bufins.Dominance.power_aware objective then
    fp_canonical r ^ " power=" ^ f17 r.Bufins.Engine.best.Bufins.Sol.power
  else fp_canonical r

let canonical_run = power_run ~objective:Bufins.Dominance.default ~eps:0.0
let canonical_case = canonical_run ~insertion:Bufins.Engine.Convex_auto
let power_case = power_run ~insertion:Bufins.Engine.Convex_auto

let sample_run ~objective ~samples ~mseed ~relax ~library ~sinks ~seed m =
  let die = 4000.0 in
  let tree = Rctree.Generate.random_steiner ~seed ~sinks ~die_um:die () in
  let cfg =
    {
      (Sample.Engine.default_config ~samples ~seed:mseed ~relax ()) with
      Sample.Engine.tech;
      library;
      power_objective = objective;
    }
  in
  let run pool = Sample.Engine.run ?pool ~grain:2 cfg ~model:(model die) tree in
  let r =
    match m.jobs with
    | None -> run None
    | Some jobs -> with_pool jobs (fun pool -> run (Some pool))
  in
  fp_sample r

let sample_case = sample_run ~objective:Bufins.Dominance.default

let prob_case ~heuristic ~sinks ~seed m =
  let die = 4000.0 in
  let tree = Rctree.Generate.random_steiner ~seed ~sinks ~die_um:die () in
  let cfg = Bufins.Probabilistic.default_config ~heuristic () in
  let run pool = Bufins.Probabilistic.run ?pool ~grain:2 cfg tree in
  let r =
    match m.jobs with
    | None -> run None
    | Some jobs -> with_pool jobs (fun pool -> run (Some pool))
  in
  fp_prob r

(* The canonical engine under the power-aware objectives: five
   objectives on the default and a four-type library, each at
   eps_power 0 and 1e-2, under 2P(0.5, 0.5); weighted 1 under det,
   1P(0.95) and 2P(0.9, 0.9) on a 10-sink net (2P(0.9, 0.9) keeps
   over a thousand candidates on the 20-sink one); and one
   exhaustive-insertion twin. *)
let power_cases =
  let on_library (tag, library, sinks, seed) =
    List.concat_map
      (fun (oname, objective) ->
        List.map
          (fun (etag, eps) ->
            ( Printf.sprintf "2p%s-%s%s" tag oname etag,
              power_case ~objective ~eps
                ~rule:(Bufins.Prune.two_param ())
                ~library ~sinks ~seed ))
          [ ("", 0.0); ("-eps", 1e-2) ])
      [
        ("weighted-0.5", Bufins.Dominance.Weighted 0.5);
        ("weighted-1", Bufins.Dominance.Weighted 1.0);
        ("weighted-50", Bufins.Dominance.Weighted 50.0);
        ("min-power", Bufins.Dominance.Min_power (-1500.0));
        ("min-power-fallback", Bufins.Dominance.Min_power 1e9);
      ]
  in
  let weighted_1 = Bufins.Dominance.Weighted 1.0 in
  List.concat_map on_library
    [
      ("", Device.Buffer.default_library, 20, 211);
      ("-b4", Device.Buffer.synth_library ~btypes:4, 22, 311);
    ]
  @ List.map
      (fun (name, rule) ->
        ( name ^ "-weighted-1",
          power_case ~objective:weighted_1 ~eps:0.0 ~rule
            ~library:Device.Buffer.default_library ~sinks:10 ~seed:211 ))
      [
        ("det", Bufins.Prune.deterministic);
        ("1p-95", Bufins.Prune.one_param ~alpha:0.95);
        ("2p-9", Bufins.Prune.two_param ~p_l:0.9 ~p_t:0.9 ());
      ]
  @ [
      ( "2p-b4-weighted-1-exhaustive",
        power_run ~insertion:Bufins.Engine.Exhaustive ~objective:weighted_1
          ~eps:0.0 ~rule:(Bufins.Prune.two_param ())
          ~library:(Device.Buffer.synth_library ~btypes:4)
          ~sinks:22 ~seed:311 );
    ]

let cases =
  [
    ( "det",
      canonical_case ~rule:Bufins.Prune.deterministic
        ~library:Device.Buffer.default_library ~sinks:20 ~seed:211 );
    ( "2p",
      canonical_case
        ~rule:(Bufins.Prune.two_param ())
        ~library:Device.Buffer.default_library ~sinks:20 ~seed:211 );
    ( "2p-hi",
      canonical_case
        ~rule:(Bufins.Prune.two_param ~p_l:0.7 ~p_t:0.9 ())
        ~library:Device.Buffer.default_library ~sinks:20 ~seed:211 );
    ( "1p",
      canonical_case
        ~rule:(Bufins.Prune.one_param ~alpha:0.9)
        ~library:Device.Buffer.default_library ~sinks:20 ~seed:211 );
    ( "4p",
      canonical_case
        ~rule:(Bufins.Prune.four_param ())
        ~library:Device.Buffer.default_library ~sinks:8 ~seed:211 );
    ( "det-b5",
      canonical_case ~rule:Bufins.Prune.deterministic
        ~library:(Device.Buffer.synth_library ~btypes:5)
        ~sinks:16 ~seed:212 );
    ( "2p-b5",
      canonical_case
        ~rule:(Bufins.Prune.two_param ())
        ~library:(Device.Buffer.synth_library ~btypes:5)
        ~sinks:16 ~seed:212 );
    ( "sample-64",
      sample_case ~samples:64 ~mseed:1 ~relax:1.0
        ~library:Device.Buffer.default_library ~sinks:16 ~seed:7 );
    ( "sample-64-relax",
      sample_case ~samples:64 ~mseed:1 ~relax:0.9
        ~library:Device.Buffer.default_library ~sinks:16 ~seed:7 );
    ( "sample-32-b4",
      sample_case ~samples:32 ~mseed:3 ~relax:1.0
        ~library:(Device.Buffer.synth_library ~btypes:4)
        ~sinks:12 ~seed:8 );
    ("prob-mean", prob_case ~heuristic:Bufins.Probabilistic.Mean_dominance ~sinks:16 ~seed:305);
    ( "prob-pct",
      prob_case
        ~heuristic:(Bufins.Probabilistic.Percentile_dominance 0.9)
        ~sinks:12 ~seed:305 );
    ( "prob-stoch",
      prob_case ~heuristic:Bufins.Probabilistic.Stochastic_dominance ~sinks:10
        ~seed:306 );
    (* The cases the tape identity suites compared against the tree
       walk, pinned so the walk's bytes outlive it.  "4p" and
       "prob-stoch" above already cover the 4P and stochastic ones. *)
    ( "det-12",
      canonical_case ~rule:Bufins.Prune.deterministic
        ~library:Device.Buffer.default_library ~sinks:12 ~seed:211 );
    ( "det-30",
      canonical_case ~rule:Bufins.Prune.deterministic
        ~library:Device.Buffer.default_library ~sinks:30 ~seed:212 );
    ( "2p-9-12",
      canonical_case
        ~rule:(Bufins.Prune.two_param ~p_l:0.9 ~p_t:0.9 ())
        ~library:Device.Buffer.default_library ~sinks:12 ~seed:211 );
    ( "2p-9-30",
      canonical_case
        ~rule:(Bufins.Prune.two_param ~p_l:0.9 ~p_t:0.9 ())
        ~library:Device.Buffer.default_library ~sinks:30 ~seed:212 );
    ( "1p-95-12",
      canonical_case
        ~rule:(Bufins.Prune.one_param ~alpha:0.95)
        ~library:Device.Buffer.default_library ~sinks:12 ~seed:211 );
    ( "1p-95-30",
      canonical_case
        ~rule:(Bufins.Prune.one_param ~alpha:0.95)
        ~library:Device.Buffer.default_library ~sinks:30 ~seed:212 );
    ( "2p-20",
      canonical_case
        ~rule:(Bufins.Prune.two_param ())
        ~library:Device.Buffer.default_library ~sinks:20 ~seed:213 );
    ( "2p-b4-convex",
      canonical_case
        ~rule:(Bufins.Prune.two_param ())
        ~library:(Device.Buffer.synth_library ~btypes:4)
        ~sinks:22 ~seed:311 );
    ( "2p-b4-exhaustive",
      canonical_run ~insertion:Bufins.Engine.Exhaustive
        ~rule:(Bufins.Prune.two_param ())
        ~library:(Device.Buffer.synth_library ~btypes:4)
        ~sinks:22 ~seed:311 );
    ( "sample-64-24",
      sample_case ~samples:64 ~mseed:1 ~relax:1.0
        ~library:Device.Buffer.default_library ~sinks:24 ~seed:7 );
    ( "prob-mean-20",
      prob_case ~heuristic:Bufins.Probabilistic.Mean_dominance ~sinks:20
        ~seed:305 );
    (* Sample-engine shapes the cases above leave out, captured before
       the engine's kernels were rewritten: a K that is not a multiple
       of four (the four-wide loops' scalar tails), K = 5 with
       inverters at relax 0.6 (the odd-parity side), and a power-aware
       objective (the power conjunct and the power sort key). *)
    ( "sample-37-relax",
      sample_case ~samples:37 ~mseed:1 ~relax:0.8
        ~library:Device.Buffer.default_library ~sinks:16 ~seed:7 );
    ( "sample-5-b4",
      sample_case ~samples:5 ~mseed:3 ~relax:0.6
        ~library:(Device.Buffer.synth_library ~btypes:4)
        ~sinks:12 ~seed:8 );
    ( "sample-16-weighted",
      sample_run ~objective:(Bufins.Dominance.Weighted 1.0) ~samples:16
        ~mseed:1 ~relax:1.0 ~library:Device.Buffer.default_library ~sinks:10
        ~seed:7 );
  ]
  @ power_cases

(* Captured from the sequential tree walk with obs off; see the capture
   note at the top.  Empty while capturing. *)
let expected : (string * string) list =
  [
    ( "det",
      "rat=-1238.0967525690464/35.200153625159352 buf=[37:x16;36:x4;33:x16;31:x16;28:x16;27:x4;24:x16;22:x4;18:x4;13:x16;9:x16;4:x16;2:x16] w=[] llm=true peak=18 total=225" );
    ( "2p",
      "rat=-1238.0967525690464/35.200153625159352 buf=[37:x16;36:x4;33:x16;31:x16;28:x16;27:x4;24:x16;22:x4;18:x4;13:x16;9:x16;4:x16;2:x16] w=[] llm=true peak=18 total=225" );
    ( "2p-hi",
      "rat=-1237.870419532348/33.567917227452007 buf=[37:x16;36:x4;33:x16;31:x16;28:x16;27:x4;24:x16;22:x4;18:x4;13:x16;9:x4;4:x16;2:x16] w=[] llm=true peak=699 total=1773" );
    ( "1p",
      "rat=-1245.0879812171065/42.884580975062001 buf=[37:x16;36:x4;33:x16;31:x16;28:x16;27:x4;24:x16;22:x4;18:x16;17:x4;14:x16;12:x16;9:x16;8:x4;5:x16;3:x16;2:x16] w=[] llm=true peak=17 total=226" );
    ( "4p",
      "rat=-1033.9176178252599/32.848687673171113 buf=[15:x4;14:x4;10:x16;9:x16;6:x16;3:x16;2:x16] w=[] llm=true peak=35 total=141" );
    ( "det-b5",
      "rat=-1119.6810911441805/33.596737109835779 buf=[29:buf2;28:inv3;27:inv3;26:inv3;25:inv3;24:inv3;23:inv3;22:inv3;21:inv3;20:inv3;19:inv3;18:inv3;17:inv3;16:inv3;15:inv3;14:inv3;13:inv3;12:inv3;11:inv3;10:inv3;9:inv3;8:inv3;7:inv3;6:inv3;5:inv3;4:inv3;3:inv3;2:inv3] w=[] llm=true peak=47 total=359" );
    ( "2p-b5",
      "rat=-1119.6810911441805/33.596737109835779 buf=[29:buf2;28:inv3;27:inv3;26:inv3;25:inv3;24:inv3;23:inv3;22:inv3;21:inv3;20:inv3;19:inv3;18:inv3;17:inv3;16:inv3;15:inv3;14:inv3;13:inv3;12:inv3;11:inv3;10:inv3;9:inv3;8:inv3;7:inv3;6:inv3;5:inv3;4:inv3;3:inv3;2:inv3] w=[] llm=true peak=47 total=359" );
    ( "sample-64",
      "rat=-1283.4716148669841/46.757429375160669 y=-1352.4464944835011 buf=[29:x4;26:x16;25:x16;18:x16;17:x16;14:x16;11:x16;10:x16;9:x16;8:x16;4:x4;3:x16;2:x16] w=[] llm=true peak=81 total=486" );
    ( "sample-64-relax",
      "rat=-1283.4716148669841/46.757429375160669 y=-1352.4464944835011 buf=[29:x4;26:x16;25:x16;18:x16;17:x16;14:x16;11:x16;10:x16;9:x16;8:x16;4:x4;3:x16;2:x16] w=[] llm=true peak=31 total=270" );
    ( "sample-32-b4",
      "rat=-1009.4223765267278/19.990306450845544 y=-1040.3915805160871 buf=[23:inv1;20:inv3;14:inv3;13:inv3;12:inv3;11:inv3;10:inv3;8:inv3;7:inv1;6:inv3;5:inv3;3:inv3;2:buf2] w=[] llm=true peak=153 total=492" );
    ( "prob-mean",
      "rat=-1500.7756637541468/13.176016412529139 p05=-1522.4622960273625 buf=[29:x4;26:x16;25:x16;22:x4;19:x16;18:x16;17:x4;14:x4;11:x16;10:x16;7:x4;6:x16;5:x16;4:x16;2:x16] peak=15" );
    ( "prob-pct",
      "rat=-1450.8649185676918/19.184301023853052 p05=-1484.0980454681317 buf=[23:x4;20:x16;19:x4;18:x16;17:x16;16:x16;14:x16;13:x4;12:x4;9:x16;8:x16;7:x16;4:x16;2:x16] peak=17" );
    ( "prob-stoch",
      "rat=-1144.3141084189654/12.333056771832965 p05=-1165.158440286154 buf=[17:x16;12:x16;11:x16;8:x16;7:x16;6:x16;5:x16;2:x16] peak=25" );
    ( "det-12",
      "rat=-1140.7406383033897/31.015081546345115 buf=[23:x4;20:x16;19:x4;18:x4;15:x16;14:x4;8:x16;3:x16;2:x16] w=[] llm=true peak=15 total=135" );
    ( "det-30",
      "rat=-1419.4700949679627/46.365375121390628 buf=[55:x16;52:x4;49:x16;47:x16;44:x16;41:x16;37:x16;34:x4;32:x16;31:x16;26:x16;19:x16;18:x16;11:x16;4:x16;3:x16;2:x4] w=[] llm=true peak=18 total=326" );
    ( "2p-9-12",
      "rat=-1140.7406383033897/31.015081546345115 buf=[23:x4;20:x16;19:x4;18:x4;15:x16;14:x4;8:x16;3:x16;2:x16] w=[] llm=true peak=281 total=697" );
    ( "2p-9-30",
      "rat=-1419.4700949679627/46.365375121390628 buf=[55:x16;52:x4;49:x16;47:x16;44:x16;41:x16;37:x16;34:x4;32:x16;31:x16;26:x16;19:x16;18:x16;11:x16;4:x16;3:x16;2:x4] w=[] llm=true peak=770 total=2383" );
    ( "1p-95-12",
      "rat=-1127.2385719403335/47.51524738191597 buf=[23:x16;20:x16;19:x16;18:x4;15:x16;14:x16;13:x16;12:x16;9:x16;8:x16;3:x16;2:x16] w=[] llm=true peak=15 total=136" );
    ( "1p-95-30",
      "rat=-1425.7475206803688/47.046616713204081 buf=[55:x16;52:x4;49:x16;47:x16;44:x16;41:x16;40:x16;39:x4;38:x4;34:x16;33:x16;32:x16;26:x16;19:x16;18:x16;11:x16;4:x16;3:x16;2:x16] w=[] llm=true peak=18 total=315" );
    ( "2p-20",
      "rat=-1233.9999381992577/40.549430735362456 buf=[37:x4;36:x4;33:x16;31:x16;28:x16;23:x16;22:x4;20:x4;19:x4;13:x16;12:x16;9:x16;8:x4;5:x16;3:x16;2:x16] w=[] llm=true peak=18 total=232" );
    ( "2p-b4-convex",
      "rat=-1130.772763452921/41.17170390034827 buf=[43:inv3;42:inv3;41:inv3;36:buf2;35:inv3;30:inv3;25:inv3;24:buf2;23:inv3;22:inv3;21:inv3;20:inv3;15:buf2;14:inv3;13:inv3;12:inv3;11:inv3;9:inv3;8:inv3;5:inv3;4:inv3;3:inv3;2:inv3] w=[] llm=true peak=35 total=420" );
    ( "2p-b4-exhaustive",
      "rat=-1130.772763452921/41.17170390034827 buf=[43:inv3;42:inv3;41:inv3;36:buf2;35:inv3;30:inv3;25:inv3;24:buf2;23:inv3;22:inv3;21:inv3;20:inv3;15:buf2;14:inv3;13:inv3;12:inv3;11:inv3;9:inv3;8:inv3;5:inv3;4:inv3;3:inv3;2:inv3] w=[] llm=true peak=35 total=420" );
    ( "sample-64-24",
      "rat=-1319.2735407182959/39.934737825461994 y=-1375.5080277805421 buf=[47:x4;44:x16;38:x16;37:x16;36:x1;33:x16;27:x16;26:x16;25:x16;20:x16;15:x16;14:x16;13:x16;10:x16;4:x16;3:x16;2:x16] w=[] llm=true peak=350 total=1442" );
    ( "prob-mean-20",
      "rat=-1700.8488631150738/17.022944986808724 p05=-1730.320804368471 buf=[37:x4;32:x16;31:x16;28:x16;27:x4;24:x16;22:x16;21:x4;18:x4;13:x16;12:x4;9:x16;8:x4;5:x16;3:x16] peak=17" );
    ( "sample-37-relax",
      "rat=-1289.1553611198485/42.434062208560121 y=-1348.7259093222458 buf=[29:x4;26:x16;25:x16;22:x4;19:x16;18:x4;17:x16;14:x16;11:x16;10:x16;9:x16;8:x16;4:x4;3:x16;2:x16] w=[] llm=true peak=26 total=241" );
    ( "sample-5-b4",
      "rat=-1012.3562818924644/20.812866334868975 y=-1037.51771033145 buf=[23:inv1;20:inv3;14:inv3;13:inv3;12:inv3;11:inv3;10:inv3;8:inv3;7:inv1;6:inv3;5:inv3;3:inv3;2:buf2] w=[] llm=true peak=35 total=201" );
    ( "sample-16-weighted",
      "rat=-1345.7191284608546/26.662660781089691 y=-1377.9978416719121 buf=[17:x4;16:x1;15:x1;14:x1;11:x16;8:x16;7:x4;4:x4;2:x16] w=[] llm=true peak=929 total=2224" );
    ( "2p-weighted-0.5",
      "rat=-1237.870419532348/33.567917227452007 buf=[37:x16;36:x4;33:x16;31:x16;28:x16;27:x4;24:x16;22:x4;18:x4;13:x16;9:x4;4:x16;2:x16] w=[] llm=true peak=88 total=533 power=332.91666666666669" );
    ( "2p-weighted-0.5-eps",
      "rat=-1237.870419532348/33.567917227452007 buf=[37:x16;36:x4;33:x16;31:x16;28:x16;27:x4;24:x16;22:x4;18:x4;13:x16;9:x4;4:x16;2:x16] w=[] llm=true peak=88 total=533 power=332.91666666666669" );
    ( "2p-weighted-1",
      "rat=-1237.870419532348/33.567917227452007 buf=[37:x16;36:x4;33:x16;31:x16;28:x16;27:x4;24:x16;22:x4;18:x4;13:x16;9:x4;4:x16;2:x16] w=[] llm=true peak=88 total=533 power=332.91666666666669" );
    ( "2p-weighted-1-eps",
      "rat=-1237.870419532348/33.567917227452007 buf=[37:x16;36:x4;33:x16;31:x16;28:x16;27:x4;24:x16;22:x4;18:x4;13:x16;9:x4;4:x16;2:x16] w=[] llm=true peak=88 total=533 power=332.91666666666669" );
    ( "2p-weighted-50",
      "rat=-1852.350173035027/19.458115997655632 buf=[37:x16;36:x4;33:x16;31:x16;28:x16;27:x4;24:x16;22:x4;2:x16] w=[] llm=true peak=88 total=533 power=239.75000000000003" );
    ( "2p-weighted-50-eps",
      "rat=-1852.350173035027/19.458115997655632 buf=[37:x16;36:x4;33:x16;31:x16;28:x16;27:x4;24:x16;22:x4;2:x16] w=[] llm=true peak=88 total=533 power=239.75000000000003" );
    ( "2p-min-power",
      "rat=-1402.5446617016944/30.603285419046209 buf=[37:x16;36:x4;33:x16;31:x16;28:x16;27:x4;24:x16;22:x4;18:x4;13:x4;12:x1;9:x4;4:x16;3:x4] w=[] llm=true peak=88 total=533 power=297.25" );
    ( "2p-min-power-eps",
      "rat=-1402.5446617016944/30.603285419046209 buf=[37:x16;36:x4;33:x16;31:x16;28:x16;27:x4;24:x16;22:x4;18:x4;13:x4;12:x1;9:x4;4:x16;3:x4] w=[] llm=true peak=88 total=533 power=297.25" );
    ( "2p-min-power-fallback",
      "rat=-1237.870419532348/33.567917227452007 buf=[37:x16;36:x4;33:x16;31:x16;28:x16;27:x4;24:x16;22:x4;18:x4;13:x16;9:x4;4:x16;2:x16] w=[] llm=true peak=88 total=533 power=332.91666666666669" );
    ( "2p-min-power-fallback-eps",
      "rat=-1237.870419532348/33.567917227452007 buf=[37:x16;36:x4;33:x16;31:x16;28:x16;27:x4;24:x16;22:x4;18:x4;13:x16;9:x4;4:x16;2:x16] w=[] llm=true peak=88 total=533 power=332.91666666666669" );
    ( "2p-b4-weighted-0.5",
      "rat=-1130.772763452921/41.17170390034827 buf=[43:inv3;42:inv3;41:inv3;36:buf2;35:inv3;30:inv3;25:inv3;24:buf2;23:inv3;22:inv3;21:inv3;20:inv3;15:buf2;14:inv3;13:inv3;12:inv3;11:inv3;9:inv3;8:inv3;5:inv3;4:inv3;3:inv3;2:inv3] w=[] llm=true peak=271 total=1158 power=597.95852545619289" );
    ( "2p-b4-weighted-0.5-eps",
      "rat=-1130.772763452921/41.17170390034827 buf=[43:inv3;42:inv3;41:inv3;36:buf2;35:inv3;30:inv3;25:inv3;24:buf2;23:inv3;22:inv3;21:inv3;20:inv3;15:buf2;14:inv3;13:inv3;12:inv3;11:inv3;9:inv3;8:inv3;5:inv3;4:inv3;3:inv3;2:inv3] w=[] llm=true peak=269 total=1152 power=597.95852545619289" );
    ( "2p-b4-weighted-1",
      "rat=-1359.8994113866261/25.544391397541659 buf=[43:inv3;42:inv3;41:inv3;36:buf2;35:buf2;30:inv3;25:inv3;24:inv1;22:inv3;21:inv3;20:inv3;15:buf2;14:buf2;13:inv1;10:inv3;4:inv3;3:inv3] w=[] llm=true peak=271 total=1158 power=383.46546022887077" );
    ( "2p-b4-weighted-1-eps",
      "rat=-1359.8994113866261/25.544391397541659 buf=[43:inv3;42:inv3;41:inv3;36:buf2;35:buf2;30:inv3;25:inv3;24:inv1;22:inv3;21:inv3;20:inv3;15:buf2;14:buf2;13:inv1;10:inv3;4:inv3;3:inv3] w=[] llm=true peak=269 total=1152 power=383.46546022887077" );
    ( "2p-b4-weighted-50",
      "rat=-1926.5367307703714/16.70895585880367 buf=[43:inv3;42:inv3;41:inv3;36:buf2;35:buf2;30:inv3;25:inv3;24:inv1;14:buf2;13:inv1;10:inv3;9:inv1;8:inv3;5:inv3;4:inv1] w=[] llm=true peak=271 total=1158 power=298.77782247519781" );
    ( "2p-b4-weighted-50-eps",
      "rat=-1926.5367307703714/16.70895585880367 buf=[43:inv3;42:inv3;41:inv3;36:buf2;35:buf2;30:inv3;25:inv3;24:inv1;14:buf2;13:inv1;10:inv3;9:inv1;8:inv3;5:inv3;4:inv1] w=[] llm=true peak=269 total=1152 power=298.77782247519781" );
    ( "2p-b4-min-power",
      "rat=-1389.5155743355108/21.717088791815286 buf=[43:inv3;42:inv3;41:inv3;36:buf2;35:buf2;30:inv3;25:inv3;24:inv1;22:inv3;21:inv3;20:inv3;15:buf2;14:buf2;13:inv1;10:inv3;8:inv1;5:inv1;3:inv3] w=[] llm=true peak=271 total=1158 power=370.54177540503986" );
    ( "2p-b4-min-power-eps",
      "rat=-1389.5155743355108/21.717088791815286 buf=[43:inv3;42:inv3;41:inv3;36:buf2;35:buf2;30:inv3;25:inv3;24:inv1;22:inv3;21:inv3;20:inv3;15:buf2;14:buf2;13:inv1;10:inv3;8:inv1;5:inv1;3:inv3] w=[] llm=true peak=269 total=1152 power=370.54177540503986" );
    ( "2p-b4-min-power-fallback",
      "rat=-1130.772763452921/41.17170390034827 buf=[43:inv3;42:inv3;41:inv3;36:buf2;35:inv3;30:inv3;25:inv3;24:buf2;23:inv3;22:inv3;21:inv3;20:inv3;15:buf2;14:inv3;13:inv3;12:inv3;11:inv3;9:inv3;8:inv3;5:inv3;4:inv3;3:inv3;2:inv3] w=[] llm=true peak=271 total=1158 power=597.95852545619289" );
    ( "2p-b4-min-power-fallback-eps",
      "rat=-1130.772763452921/41.17170390034827 buf=[43:inv3;42:inv3;41:inv3;36:buf2;35:inv3;30:inv3;25:inv3;24:buf2;23:inv3;22:inv3;21:inv3;20:inv3;15:buf2;14:inv3;13:inv3;12:inv3;11:inv3;9:inv3;8:inv3;5:inv3;4:inv3;3:inv3;2:inv3] w=[] llm=true peak=269 total=1152 power=597.95852545619289" );
    ( "det-weighted-1",
      "rat=-1077.6437665356655/37.444316891859174 buf=[17:x16;16:x4;13:x16;11:x16;8:x16;7:x4;4:x16;2:x16] w=[] llm=true peak=64 total=244 power=226.5" );
    ( "1p-95-weighted-1",
      "rat=-1077.6437665356655/37.444316891859174 buf=[17:x16;16:x4;13:x16;11:x16;8:x16;7:x4;4:x16;2:x16] w=[] llm=true peak=67 total=255 power=226.5" );
    ( "2p-9-weighted-1",
      "rat=-1077.6437665356655/37.444316891859174 buf=[17:x16;16:x4;13:x16;11:x16;8:x16;7:x4;4:x16;2:x16] w=[] llm=true peak=470 total=977 power=226.5" );
    ( "2p-b4-weighted-1-exhaustive",
      "rat=-1359.8994113866261/25.544391397541659 buf=[43:inv3;42:inv3;41:inv3;36:buf2;35:buf2;30:inv3;25:inv3;24:inv1;22:inv3;21:inv3;20:inv3;15:buf2;14:buf2;13:inv1;10:inv3;4:inv3;3:inv3] w=[] llm=true peak=271 total=1158 power=383.46546022887077" );
  ]

(* Capture helper: VARBUF_GOLDEN_DUMP=FILE writes the baseline
   fingerprints of every case, one "name<TAB>fingerprint" line each,
   using the sequential variant with obs off. *)
let () =
  match Sys.getenv_opt "VARBUF_GOLDEN_DUMP" with
  | None -> ()
  | Some file ->
    let oc = open_out file in
    List.iter
      (fun (name, case) ->
        Printf.fprintf oc "%s\t%s\n" name
          (case { jobs = None; obs = false }))
      cases;
    close_out oc

let test_case_fingerprint name case () =
  match List.assoc_opt name expected with
  | None ->
    if expected <> [] then Alcotest.failf "no golden fingerprint for %s" name
  | Some want ->
    List.iter
      (fun m ->
        let got = if m.obs then with_obs true (fun () -> case m) else case m in
        Alcotest.(check string)
          (Printf.sprintf "%s %s" name (variant_name m))
          want got)
      variants

let suite =
  List.map
    (fun (name, case) ->
      Alcotest.test_case
        (Printf.sprintf "golden %s" name)
        `Quick
        (test_case_fingerprint name case))
    cases
