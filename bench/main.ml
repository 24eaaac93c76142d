(* Benchmark harness for the engines, run in process.

   The default pass runs a DP allocation probe, the task-parallel DP,
   the buffer-library size sweep, the power-aware Pareto sweep, the
   sample engine, and last Bechamel micro-benchmarks of the operations
   whose complexity the paper argues about (2P pruning/merging, which
   is linear, against the quadratic-ish 4P baseline, the canonical-form
   kernels, and end-to-end DP runs per benchmark size class).  The
   par_dp, sample and obs sections compare two paths, gate on their
   identity and exit 1 on a mismatch; the library-size and Pareto
   sweeps only measure (their correctness checks are test_btypes').
   The figures go to BENCH.json (override with --bench-json PATH),
   schema varbuf-bench/2: an env block records the core count (nproc),
   Domain.recommended_domain_count, the OCaml version, the git rev, the
   smoke flag and --jobs, and the par_dp row is marked oversubscribed
   when its jobs exceed the cores.

   --smoke runs a reduced pass with tight iteration budgets (the CI
   smoke bench); --jobs N (default: VARBUF_JOBS or the recommended
   domain count) sizes the parallel sections' pool; --obs adds the obs
   identity check and the counter/phase section, and --trace PATH also
   writes a Chrome trace.  An unknown flag exits 2 with the usage
   line.

   Served requests are measured end to end by bench/e2e. *)

open Bechamel
open Toolkit

(* ---------- fixtures ---------- *)

let fixture_sols n ~sigma =
  (* A synthetic pruned-frontier-like candidate frontier: loads and
     rats increasing, each with a couple of shared plus one private
     variation source. *)
  Array.init n (fun i ->
      let fi = float_of_int i in
      let load =
        Linform.make ~nominal:(20.0 +. (3.0 *. fi))
          ~sens:[ (0, sigma); (1000 + i, sigma *. 0.5) ]
      in
      let rat =
        Linform.make ~nominal:(100.0 +. (7.0 *. fi))
          ~sens:[ (1, 4.0 *. sigma); (2000 + i, sigma) ]
      in
      { Bufins.Sol.load; rat; power = 0.0; choice = Bufins.Sol.At_sink i })

let shuffled sols =
  (* Deterministic interleave so pruning has work to do. *)
  let n = Array.length sols in
  Array.init n (fun i -> sols.((i * 7919) mod n))

let bench_prune rule n =
  let sols = shuffled (fixture_sols n ~sigma:1.0) in
  Staged.stage (fun () -> ignore (Bufins.Prune.prune rule sols))

let bench_merge n =
  let a = fixture_sols n ~sigma:1.0 in
  let b = fixture_sols n ~sigma:1.2 in
  Staged.stage (fun () -> ignore (Bufins.Engine.merge_frontiers ~node:0 a b))

(* Canonical forms shaped like the DP's: a handful of sources each,
   with partial overlap (the shared inter-die/spatial ids) so the merge
   walk exercises all three branches. *)
let fixture_form ?(shared = 4) ~offset k =
  Linform.make ~nominal:(100.0 +. float_of_int offset)
    ~sens:
      (List.init k (fun i ->
           if i < shared then (i, 0.5 +. (0.1 *. float_of_int i))
           else (100 + (2 * i) + offset, 0.3 +. (0.05 *. float_of_int i))))

let kernel_tests =
  let a = fixture_form ~offset:0 12 and b = fixture_form ~offset:1 12 in
  Test.make_grouped ~name:"kernel"
    [
      Test.make ~name:"add/soa" (Staged.stage (fun () -> ignore (Linform.add a b)));
      Test.make ~name:"axpy_shift/soa"
        (Staged.stage (fun () -> ignore (Linform.axpy_shift (-0.7) a b 3.5)));
      Test.make ~name:"axpy_shift/unfused"
        (Staged.stage (fun () ->
             ignore (Linform.shift 3.5 (Linform.axpy (-0.7) a b))));
      Test.make ~name:"stat_min/soa"
        (Staged.stage (fun () -> ignore (Linform.stat_min a b)));
      Test.make ~name:"mul_first_order/soa"
        (Staged.stage (fun () -> ignore (Linform.mul_first_order a b)));
      Test.make ~name:"covariance/soa"
        (Staged.stage (fun () -> ignore (Linform.covariance a b)));
    ]

(* The DP's own merges are larger: on the served-request benchmark
   they average 79 input terms (repeat_mixed) and 55 (small_distinct).
   These rows use 40-term operands sharing half their ids. *)
let kernel_dp_shaped_tests =
  let a = fixture_form ~shared:20 ~offset:0 40
  and b = fixture_form ~shared:20 ~offset:1 40 in
  Test.make_grouped ~name:"kernel/n=40"
    [
      Test.make ~name:"add/soa" (Staged.stage (fun () -> ignore (Linform.add a b)));
      Test.make ~name:"axpy_shift/soa"
        (Staged.stage (fun () -> ignore (Linform.axpy_shift (-0.7) a b 3.5)));
      Test.make ~name:"stat_min/soa"
        (Staged.stage (fun () -> ignore (Linform.stat_min a b)));
    ]

let bench_dp bench_name =
  let info = Rctree.Benchmarks.find bench_name in
  let tree = Rctree.Benchmarks.load info in
  let setup = Job.default_setup in
  let grid = Job.grid ~die_um:info.Rctree.Benchmarks.die_um in
  Staged.stage (fun () ->
      ignore
        (Job.run_algo setup ~spatial:Varmodel.Model.default_heterogeneous
           ~grid Job.Wid tree))

let micro_tests ~smoke =
  Test.make_grouped ~name:"varbuf"
    ([
       kernel_tests;
       kernel_dp_shaped_tests;
       (* Table 2 / Fig 5: the pruning rules' costs *)
       Test.make ~name:"prune/2P/n=100" (bench_prune (Bufins.Prune.two_param ()) 100);
       Test.make ~name:"prune/2P/n=1000"
         (bench_prune (Bufins.Prune.two_param ()) 1000);
       Test.make ~name:"prune/2P(0.9)/n=1000"
         (bench_prune (Bufins.Prune.two_param ~p_l:0.9 ~p_t:0.9 ()) 1000);
       Test.make ~name:"prune/4P/n=100" (bench_prune (Bufins.Prune.four_param ()) 100);
       (* Fig 1: linear merge *)
       Test.make ~name:"merge/2P/n=100" (bench_merge 100);
     ]
    @
    if smoke then []
    else
      [
        Test.make ~name:"prune/2P/n=10000"
          (bench_prune (Bufins.Prune.two_param ()) 10000);
        Test.make ~name:"prune/4P/n=1000"
          (bench_prune (Bufins.Prune.four_param ()) 1000);
        Test.make ~name:"prune/1P/n=1000"
          (bench_prune (Bufins.Prune.one_param ~alpha:0.95) 1000);
        Test.make ~name:"merge/2P/n=1000" (bench_merge 1000);
        (* end-to-end DP, one per benchmark size class (Table 2 rows) *)
        Test.make ~name:"dp/2P/p1" (bench_dp "p1");
        Test.make ~name:"dp/2P/r1" (bench_dp "r1");
      ])

(* Runs the micro suite and returns [(name, ns_per_run)] rows for the
   JSON report. *)
let run_micro ~smoke () =
  let instance = Instance.monotonic_clock in
  let cfg =
    if smoke then Benchmark.cfg ~limit:50 ~quota:(Time.second 0.05) ()
    else Benchmark.cfg ~limit:1000 ~quota:(Time.second 0.5) ~kde:(Some 100) ()
  in
  let raw = Benchmark.all cfg [ instance ] (micro_tests ~smoke) in
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |]
  in
  let results = Analyze.all ols instance raw in
  print_endline "== Micro-benchmarks (bechamel, monotonic clock) ==";
  Printf.printf "%-34s %16s %8s\n" "benchmark" "ns/run" "r^2";
  let rows = Hashtbl.fold (fun k v acc -> (k, v) :: acc) results [] in
  let json_rows = ref [] in
  List.iter
    (fun (name, result) ->
      match Analyze.OLS.estimates result with
      | Some [ est ] ->
        json_rows := (name, est) :: !json_rows;
        Printf.printf "%-34s %16.1f %8s\n" name est
          (match Analyze.OLS.r_square result with
          | Some r2 -> Printf.sprintf "%.3f" r2
          | None -> "-")
      | _ -> Printf.printf "%-34s %16s\n" name "n/a")
    (List.sort compare rows);
  print_newline ();
  List.rev !json_rows

(* ---------- DP allocation probe ---------- *)

type dp_probe = {
  probe_sinks : int;
  allocated_bytes : float;
  peak_candidates : int;
  total_candidates : int;
  dp_runtime_s : float;
}

(* One full WID DP on the largest generated tree of the suite, with the
   allocation delta measured by [Gc.allocated_bytes]: the figure the
   SoA/array-frontier work is meant to push down, tracked per run in
   BENCH.json. *)
let run_dp_probe ~smoke () =
  let sinks = if smoke then 100 else 300 in
  let die = 8000.0 in
  let tree = Rctree.Generate.random_steiner ~seed:7 ~sinks ~die_um:die () in
  let grid = Job.grid ~die_um:die in
  let model =
    Varmodel.Model.create ~mode:Varmodel.Model.Wid
      ~spatial:Varmodel.Model.default_heterogeneous ~grid ()
  in
  let config = Bufins.Engine.default_config () in
  let before = Gc.allocated_bytes () in
  let r = Bufins.Engine.run config ~model tree in
  let allocated = Gc.allocated_bytes () -. before in
  let s = r.Bufins.Engine.stats in
  Printf.printf
    "== DP allocation probe (%d sinks, WID) ==\n\
     allocated %.1f MB, peak %d candidates, total %d, %.3fs\n\n"
    sinks
    (allocated /. 1e6)
    s.Bufins.Engine.peak_candidates s.Bufins.Engine.total_candidates
    s.Bufins.Engine.runtime_s;
  {
    probe_sinks = sinks;
    allocated_bytes = allocated;
    peak_candidates = s.Bufins.Engine.peak_candidates;
    total_candidates = s.Bufins.Engine.total_candidates;
    dp_runtime_s = s.Bufins.Engine.runtime_s;
  }

(* ---------- parallel-DP scaling + arena probe ---------- *)

type par_dp = {
  par_sinks : int;
  par_jobs : int;
  par_grain : int;
  seq_s : float;
  par_s : float;
  par_identical : bool;
}

let strip_result (r : Bufins.Engine.result) =
  ( r.Bufins.Engine.root_rat,
    r.Bufins.Engine.best,
    r.Bufins.Engine.buffers,
    r.Bufins.Engine.widths,
    r.Bufins.Engine.stats.Bufins.Engine.peak_candidates,
    r.Bufins.Engine.stats.Bufins.Engine.total_candidates )

(* The task-parallel DP on the suite's largest synthetic net: wall
   clock at jobs=1 vs jobs=N (best of a few runs — the DP is short
   enough to jitter) and a structural identity check between the two.
   The model is consumed by a run (device-id counter), so every run
   gets a fresh one. *)
let run_par_dp ~smoke ~jobs () =
  let sinks = if smoke then 100 else 300 in
  let die = 8000.0 in
  let tree = Rctree.Generate.random_steiner ~seed:7 ~sinks ~die_um:die () in
  let grid = Job.grid ~die_um:die in
  let model () =
    Varmodel.Model.create ~mode:Varmodel.Model.Wid
      ~spatial:Varmodel.Model.default_heterogeneous ~grid ()
  in
  let config = Bufins.Engine.default_config () in
  let grain = Bufins.Engine.default_grain in
  let repeats = if smoke then 1 else 3 in
  let timed ?pool () =
    let t0 = Unix.gettimeofday () in
    let r = Bufins.Engine.run ?pool ~grain config ~model:(model ()) tree in
    (Unix.gettimeofday () -. t0, r)
  in
  let best f =
    let acc = ref None in
    for _ = 1 to repeats do
      let t, r = f () in
      match !acc with
      | Some (bt, _) when bt <= t -> ()
      | _ -> acc := Some (t, r)
    done;
    Option.get !acc
  in
  let seq_s, seq_r = best (fun () -> timed ()) in
  let pool = Exec.Pool.create ~jobs () in
  let par_s, par_r =
    Fun.protect
      ~finally:(fun () -> Exec.Pool.shutdown pool)
      (fun () -> best (fun () -> timed ~pool ()))
  in
  let par_identical = strip_result par_r = strip_result seq_r in
  Printf.printf
    "== parallel DP (%d sinks, WID, grain %d) ==\n\
     jobs=1 %.3fs, jobs=%d %.3fs, speedup %.2fx, identical %b\n\n"
    sinks grain seq_s jobs par_s
    (seq_s /. Float.max par_s 1e-9)
    par_identical;
  if not par_identical then begin
    prerr_endline "FATAL: parallel DP diverged from sequential";
    exit 1
  end;
  {
    par_sinks = sinks;
    par_jobs = jobs;
    par_grain = grain;
    seq_s;
    par_s;
    par_identical;
  }

(* ---------- sample engine: ns/op and frontier size vs K ---------- *)

type sample_row = {
  sm_sinks : int;
  sm_k : int;
  sm_relax : float;
  sm_ns_per_op : float;
  sm_peak : int;
  sm_total : int;
}

type sample_report = {
  sm_rows : sample_row list;
  sm_jobs_identical : bool;
  sm_obs_identical : bool;
}

let strip_sample (r : Sample.Engine.result) =
  ( r.Sample.Engine.best.Sample.Engine.load,
    r.Sample.Engine.best.Sample.Engine.rat,
    r.Sample.Engine.root_rat,
    r.Sample.Engine.buffers,
    r.Sample.Engine.widths,
    r.Sample.Engine.sampled_mean,
    r.Sample.Engine.sampled_std,
    r.Sample.Engine.rat_at_yield,
    r.Sample.Engine.stats.Bufins.Engine.peak_candidates,
    r.Sample.Engine.stats.Bufins.Engine.total_candidates )

(* The sample-matrix DP on WID nets: K = 64/256/1024 under exact
   dominance (relax 1) on a 30-sink net, plus K = 64 at relax 0.8 — the
   setting served requests use — on 60 sinks outside smoke mode.  Per
   row: best-of-repeats wall clock and frontier size (cost grows
   ~linearly in K; the frontier should grow slowly — per-sample
   dominance keeps pruning).  Exact mode stays on 30 sinks: at 60 its
   K = 256 row took 31 s and K = 1024 ran out of memory.  The same
   determinism contract as the canonical engine is asserted, fatally,
   on the 30-sink net at K = 64: jobs=1 vs jobs=N and obs off vs on
   must agree bit for bit. *)
let run_sample ~smoke ~jobs () =
  let die = 4000.0 in
  let net sinks = Rctree.Generate.random_steiner ~seed:7 ~sinks ~die_um:die () in
  let exact_sinks = 30 and relaxed_sinks = if smoke then 30 else 60 in
  let exact_net = net exact_sinks in
  let relaxed_net = if smoke then exact_net else net relaxed_sinks in
  let grid = Job.grid ~die_um:die in
  let model () =
    Varmodel.Model.create ~mode:Varmodel.Model.Wid
      ~spatial:Varmodel.Model.default_heterogeneous ~grid ()
  in
  let repeats = if smoke then 1 else 3 in
  let timed ?pool ?grain ?(relax = 1.0) tree k =
    let cfg = Sample.Engine.default_config ~samples:k ~relax () in
    let acc = ref None in
    for _ = 1 to repeats do
      let t0 = Unix.gettimeofday () in
      let r = Sample.Engine.run ?pool ?grain cfg ~model:(model ()) tree in
      let t = Unix.gettimeofday () -. t0 in
      match !acc with
      | Some (bt, _) when bt <= t -> ()
      | _ -> acc := Some (t, r)
    done;
    Option.get !acc
  in
  Printf.printf "== sample engine (WID, best of %d) ==\n" repeats;
  let rows =
    List.map
      (fun (sinks, tree, k, relax) ->
        let t, r = timed ~relax tree k in
        let s = r.Sample.Engine.stats in
        Printf.printf
          "%3d sinks K=%-5d relax %-4g %10.1f ms/run  peak %6d candidates  \
           total %8d\n"
          sinks k relax (t *. 1e3) s.Bufins.Engine.peak_candidates
          s.Bufins.Engine.total_candidates;
        {
          sm_sinks = sinks;
          sm_k = k;
          sm_relax = relax;
          sm_ns_per_op = t *. 1e9;
          sm_peak = s.Bufins.Engine.peak_candidates;
          sm_total = s.Bufins.Engine.total_candidates;
        })
      [
        (exact_sinks, exact_net, 64, 1.0);
        (exact_sinks, exact_net, 256, 1.0);
        (exact_sinks, exact_net, 1024, 1.0);
        (relaxed_sinks, relaxed_net, 64, 0.8);
      ]
  in
  let _, seq = timed exact_net 64 in
  let pool = Exec.Pool.create ~jobs () in
  let _, par =
    Fun.protect
      ~finally:(fun () -> Exec.Pool.shutdown pool)
      (fun () -> timed ~pool ~grain:2 exact_net 64)
  in
  let jobs_identical = strip_sample par = strip_sample seq in
  let with_obs enabled f =
    let was = Obs.Control.on () in
    if enabled then Obs.Control.enable () else Obs.Control.disable ();
    Fun.protect f ~finally:(fun () ->
        if was then Obs.Control.enable () else Obs.Control.disable ())
  in
  let off = with_obs false (fun () -> strip_sample (snd (timed exact_net 64))) in
  let on = with_obs true (fun () -> strip_sample (snd (timed exact_net 64))) in
  let obs_identical = off = on in
  Printf.printf "jobs=1 vs jobs=%d identical %b, obs on/off identical %b\n\n"
    jobs jobs_identical obs_identical;
  if not jobs_identical then begin
    prerr_endline "FATAL: parallel sample DP diverged from sequential";
    exit 1
  end;
  if not obs_identical then begin
    prerr_endline "FATAL: observability changed the sample engine's output";
    exit 1
  end;
  { sm_rows = rows; sm_jobs_identical = jobs_identical;
    sm_obs_identical = obs_identical }

(* ---------- observability (--obs / --trace) ---------- *)

type obs_report = {
  obs_identical : bool;
  obs_counters : (string * int) list;
  (* per cat.name span totals: (label, count, total_ms) *)
  obs_phases : (string * int * float) list;
}

(* The observability layer must not change what the engine computes:
   the disabled path is a single branch, and the enabled path only
   reads.  Same tree and config twice, obs off then on; any structural
   difference between the two results is fatal. *)
let run_obs_identity () =
  let die = 4000.0 in
  let tree = Rctree.Generate.random_steiner ~seed:5 ~sinks:60 ~die_um:die () in
  let grid = Job.grid ~die_um:die in
  let model () =
    Varmodel.Model.create ~mode:Varmodel.Model.Wid
      ~spatial:Varmodel.Model.default_heterogeneous ~grid ()
  in
  let config = Bufins.Engine.default_config () in
  let run_with enabled =
    let was = Obs.Control.on () in
    if enabled then Obs.Control.enable () else Obs.Control.disable ();
    Fun.protect
      ~finally:(fun () ->
        if was then Obs.Control.enable () else Obs.Control.disable ())
      (fun () -> Bufins.Engine.run config ~model:(model ()) tree)
  in
  let off = run_with false in
  let on = run_with true in
  let identical = strip_result off = strip_result on in
  Printf.printf "== obs identity check ==\nenabled vs disabled identical: %b\n\n"
    identical;
  if not identical then begin
    prerr_endline "FATAL: enabling observability changed the engine's output";
    exit 1
  end;
  identical

(* Fold the span buffer into per-label (cat.name) phase totals for the
   JSON report. *)
let span_phase_totals () =
  Obs.Span.flush ();
  let tbl = Hashtbl.create 16 in
  List.iter
    (fun (s : Obs.Span.span) ->
      let label = s.Obs.Span.cat ^ "." ^ s.Obs.Span.name in
      let count, total_ns =
        Option.value (Hashtbl.find_opt tbl label) ~default:(0, 0)
      in
      Hashtbl.replace tbl label (count + 1, total_ns + s.Obs.Span.dur_ns))
    (Obs.Span.snapshot ());
  Hashtbl.fold
    (fun label (count, total_ns) acc ->
      (label, count, float_of_int total_ns /. 1e6) :: acc)
    tbl []
  |> List.sort compare

let collect_obs_report () =
  let obs_identical = run_obs_identity () in
  {
    obs_identical;
    obs_counters = Obs.Counters.counter_values Obs.Counters.global;
    obs_phases = span_phase_totals ();
  }

(* ---------- buffer-library size: frontier growth ---------- *)

type btypes_row = {
  bt_b : int;
  bt_net : string;
  bt_ns_per_op : float;
  bt_peak : int;
  bt_total : int;
  bt_buffers : int;
  bt_inverters : int;
}

(* The WID DP across library sizes b = 1..16 on the Table-1 nets:
   ns/op, candidate counts and the chosen type mix. *)
let run_btypes ~smoke () =
  let setup = Job.default_setup in
  let nets = if smoke then [ "r1"; "r2" ] else [ "r1"; "r2"; "r3"; "r4"; "r5" ] in
  let bs = [ 1; 2; 4; 8; 16 ] in
  let reps = if smoke then 1 else 3 in
  let spatial = Varmodel.Model.default_heterogeneous in
  let rows =
    List.concat_map
      (fun net ->
        let info = Rctree.Benchmarks.find net in
        let tree = Rctree.Benchmarks.load info in
        let grid = Job.grid ~die_um:info.Rctree.Benchmarks.die_um in
        List.map
          (fun b ->
            let setup =
              { setup with Job.library = Device.Buffer.synth_library ~btypes:b }
            in
            let best = ref None in
            for _ = 1 to reps do
              let t0 = Unix.gettimeofday () in
              let r = Job.run_algo setup ~spatial ~grid Job.Wid tree in
              let t = Unix.gettimeofday () -. t0 in
              match !best with
              | Some (bt, _) when bt <= t -> ()
              | _ -> best := Some (t, r)
            done;
            let t, r = Option.get !best in
            let s = r.Bufins.Engine.stats in
            {
              bt_b = b;
              bt_net = net;
              bt_ns_per_op = t *. 1e9;
              bt_peak = s.Bufins.Engine.peak_candidates;
              bt_total = s.Bufins.Engine.total_candidates;
              bt_buffers = List.length r.Bufins.Engine.buffers;
              bt_inverters =
                List.length
                  (List.filter
                     (fun (_, d) -> Device.Buffer.is_inverting d)
                     r.Bufins.Engine.buffers);
            })
          bs)
      nets
  in
  Printf.printf "== buffer-library size (WID/2P, best of %d) ==\n" reps;
  Printf.printf "%-4s %4s %12s %8s %10s %8s %5s\n" "net" "b" "ns/op" "peak"
    "total" "buffers" "inv";
  List.iter
    (fun r ->
      Printf.printf "%-4s %4d %12.0f %8d %10d %8d %5d\n" r.bt_net r.bt_b
        r.bt_ns_per_op r.bt_peak r.bt_total r.bt_buffers r.bt_inverters)
    rows;
  print_newline ();
  rows

(* ---------- power-aware Pareto frontier: size and cost vs ε ---------- *)

type pareto_row = {
  pa_net : string;
  pa_eps : float;
  pa_ns_per_op : float;
  pa_peak : int;
  pa_total : int;
  pa_power_fj : float;
}

(* The power-aware (load, RAT, power) Pareto DP across ε ∈ {0, 1e-3,
   1e-2} on the Table-1 nets: ns/op, frontier sizes and the chosen
   tree's buffer energy, under the [Weighted 1.0] objective. *)
let run_pareto ~smoke () =
  let setup = Job.default_setup in
  let nets = if smoke then [ "r1"; "r2" ] else [ "r1"; "r2"; "r3"; "r4"; "r5" ] in
  let epss = [ 0.0; 1e-3; 1e-2 ] in
  let reps = if smoke then 1 else 3 in
  let spatial = Varmodel.Model.default_heterogeneous in
  let rows =
    List.concat_map
      (fun net ->
        let info = Rctree.Benchmarks.find net in
        let tree = Rctree.Benchmarks.load info in
        let grid = Job.grid ~die_um:info.Rctree.Benchmarks.die_um in
        List.map
          (fun eps ->
            let best = ref None in
            for _ = 1 to reps do
              let t0 = Unix.gettimeofday () in
              let r =
                Job.run_algo setup
                  ~objective:(Bufins.Dominance.Weighted 1.0) ~eps_power:eps
                  ~spatial ~grid Job.Wid tree
              in
              let t = Unix.gettimeofday () -. t0 in
              match !best with
              | Some (bt, _) when bt <= t -> ()
              | _ -> best := Some (t, r)
            done;
            let t, r = Option.get !best in
            let s = r.Bufins.Engine.stats in
            {
              pa_net = net;
              pa_eps = eps;
              pa_ns_per_op = t *. 1e9;
              pa_peak = s.Bufins.Engine.peak_candidates;
              pa_total = s.Bufins.Engine.total_candidates;
              pa_power_fj = r.Bufins.Engine.best.Bufins.Sol.power;
            })
          epss)
      nets
  in
  Printf.printf "== power-aware Pareto frontier (WID/2P, weighted=1, best of %d) ==\n"
    reps;
  Printf.printf "%-4s %8s %12s %8s %10s %10s\n" "net" "eps" "ns/op" "peak"
    "total" "power fJ";
  List.iter
    (fun r ->
      Printf.printf "%-4s %8g %12.0f %8d %10d %10.2f\n" r.pa_net r.pa_eps
        r.pa_ns_per_op r.pa_peak r.pa_total r.pa_power_fj)
    rows;
  print_newline ();
  rows

(* ---------- the machine a run measured ---------- *)

(* The first line a shell command prints, or [None] if it fails. *)
let capture cmd =
  match Unix.open_process_in (cmd ^ " 2>/dev/null") with
  | exception Unix.Unix_error _ -> None
  | ic -> (
    let line = try Some (String.trim (input_line ic)) with End_of_file -> None in
    match (Unix.close_process_in ic, line) with
    | Unix.WEXITED 0, Some l when l <> "" -> Some l
    | _ -> None)

type env = { nproc : int; git_rev : string }

let probe_env () =
  {
    nproc =
      Option.value ~default:(Domain.recommended_domain_count ())
        (Option.bind (capture "nproc") int_of_string_opt);
    git_rev =
      Option.value ~default:"unknown" (capture "git rev-parse --short=12 HEAD");
  }

(* ---------- BENCH.json (hand-rolled writer; no JSON dependency) ---------- *)

let json_escape s =
  let buf = Buffer.create (String.length s + 8) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | c when Char.code c < 0x20 ->
        Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

let json_float x =
  (* %.17g roundtrips; JSON has no infinities, clamp defensively. *)
  if Float.is_finite x then Printf.sprintf "%.17g" x else "null"

let add_btypes_section buf rows =
  Buffer.add_string buf ",\n  \"btypes\": {\"rows\": [\n";
  List.iteri
    (fun i r ->
      Buffer.add_string buf
        (Printf.sprintf
           "    {\"net\": \"%s\", \"b\": %d, \"ns_per_op\": %s, \
            \"peak_candidates\": %d, \"total_candidates\": %d, \"buffers\": \
            %d, \"inverters\": %d}%s\n"
           (json_escape r.bt_net) r.bt_b
           (json_float r.bt_ns_per_op)
           r.bt_peak r.bt_total r.bt_buffers r.bt_inverters
           (if i = List.length rows - 1 then "" else ",")))
    rows;
  Buffer.add_string buf "  ]}"

let add_pareto_section buf rows =
  Buffer.add_string buf ",\n  \"pareto\": {\"rows\": [\n";
  List.iteri
    (fun i r ->
      Buffer.add_string buf
        (Printf.sprintf
           "    {\"net\": \"%s\", \"eps\": %s, \"ns_per_op\": %s, \
            \"peak_candidates\": %d, \"total_candidates\": %d, \
            \"power_fj\": %s}%s\n"
           (json_escape r.pa_net) (json_float r.pa_eps)
           (json_float r.pa_ns_per_op)
           r.pa_peak r.pa_total
           (json_float r.pa_power_fj)
           (if i = List.length rows - 1 then "" else ",")))
    rows;
  Buffer.add_string buf "  ]}"

let write_bench_json ~path ~env ~smoke ~jobs ~micro ~probe ~par ~sample
    ~btypes ~pareto ~obs =
  let buf = Buffer.create 4096 in
  Buffer.add_string buf "{\n";
  Buffer.add_string buf "  \"schema\": \"varbuf-bench/2\",\n";
  Buffer.add_string buf
    (Printf.sprintf
       "  \"env\": {\"nproc\": %d, \"recommended_domain_count\": %d, \
        \"ocaml_version\": \"%s\", \"git_rev\": \"%s\", \"smoke\": %b, \
        \"jobs\": %d},\n"
       env.nproc
       (Domain.recommended_domain_count ())
       (json_escape Sys.ocaml_version)
       (json_escape env.git_rev) smoke jobs);
  Buffer.add_string buf "  \"micro\": [\n";
  List.iteri
    (fun i (name, ns) ->
      Buffer.add_string buf
        (Printf.sprintf "    {\"name\": \"%s\", \"ns_per_run\": %s}%s\n"
           (json_escape name) (json_float ns)
           (if i = List.length micro - 1 then "" else ",")))
    micro;
  Buffer.add_string buf "  ],\n";
  Buffer.add_string buf
    (Printf.sprintf
       "  \"dp_probe\": {\"sinks\": %d, \"allocated_bytes\": %s, \
        \"peak_candidates\": %d, \"total_candidates\": %d, \"runtime_s\": \
        %s},\n"
       probe.probe_sinks
       (json_float probe.allocated_bytes)
       probe.peak_candidates probe.total_candidates
       (json_float probe.dp_runtime_s));
  Buffer.add_string buf
    (Printf.sprintf
       "  \"par_dp\": {\"sinks\": %d, \"jobs\": %d, \"grain\": %d, \
        \"seq_ns_per_op\": %s, \"par_ns_per_op\": %s, \"speedup\": %s, \
        \"identical\": %b, \"oversubscribed\": %b}"
       par.par_sinks par.par_jobs par.par_grain
       (json_float (par.seq_s *. 1e9))
       (json_float (par.par_s *. 1e9))
       (json_float (par.seq_s /. Float.max par.par_s 1e-9))
       par.par_identical (par.par_jobs > env.nproc));
  Buffer.add_string buf
    (Printf.sprintf
       ",\n  \"sample\": {\"jobs_identical\": %b, \"obs_identical\": %b, \
        \"rows\": [\n"
       sample.sm_jobs_identical sample.sm_obs_identical);
  List.iteri
    (fun i row ->
      Buffer.add_string buf
        (Printf.sprintf
           "    {\"sinks\": %d, \"k\": %d, \"relax\": %s, \"ns_per_op\": %s, \
            \"peak_candidates\": %d, \"total_candidates\": %d}%s\n"
           row.sm_sinks row.sm_k (json_float row.sm_relax)
           (json_float row.sm_ns_per_op)
           row.sm_peak row.sm_total
           (if i = List.length sample.sm_rows - 1 then "" else ",")))
    sample.sm_rows;
  Buffer.add_string buf "  ]}";
  add_btypes_section buf btypes;
  add_pareto_section buf pareto;
  (match obs with
  | None -> Buffer.add_string buf "\n"
  | Some o ->
    Buffer.add_string buf ",\n  \"obs\": {\n";
    Buffer.add_string buf
      (Printf.sprintf "    \"enabled\": true,\n    \"identical\": %b,\n"
         o.obs_identical);
    Buffer.add_string buf "    \"counters\": [\n";
    List.iteri
      (fun i (name, v) ->
        Buffer.add_string buf
          (Printf.sprintf "      {\"name\": \"%s\", \"value\": %d}%s\n"
             (json_escape name) v
             (if i = List.length o.obs_counters - 1 then "" else ",")))
      o.obs_counters;
    Buffer.add_string buf "    ],\n    \"phases\": [\n";
    List.iteri
      (fun i (label, count, total_ms) ->
        Buffer.add_string buf
          (Printf.sprintf
             "      {\"name\": \"%s\", \"count\": %d, \"total_ms\": %s}%s\n"
             (json_escape label) count (json_float total_ms)
             (if i = List.length o.obs_phases - 1 then "" else ",")))
      o.obs_phases;
    Buffer.add_string buf "    ]\n  }\n");
  Buffer.add_string buf "}\n";
  let oc = open_out path in
  output_string oc (Buffer.contents buf);
  close_out oc;
  Printf.printf "wrote %s\n\n" path

let () =
  let smoke = ref false
  and obs = ref false
  and jobs = ref (Exec.Pool.default_jobs ())
  and json_path = ref "BENCH.json"
  and trace_path = ref None in
  let usage =
    "usage: main.exe [--smoke] [--jobs N] [--bench-json PATH] [--obs] \
     [--trace PATH]"
  in
  Arg.parse
    [
      ("--smoke", Arg.Set smoke, " reduced pass with tight iteration budgets");
      ("--jobs", Arg.Set_int jobs, "N pool size for the parallel sections");
      ("--bench-json", Arg.Set_string json_path, "PATH report path (BENCH.json)");
      ("--obs", Arg.Set obs, " obs identity check and counter/phase section");
      ( "--trace",
        Arg.String (fun p -> trace_path := Some p),
        "PATH also write a Chrome trace (implies --obs)" );
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    usage;
  let smoke = !smoke and jobs = max 1 !jobs and json_path = !json_path in
  let env = probe_env () in
  Printf.printf "env nproc %d domains %d ocaml %s git %s smoke %b jobs %d\n\n%!"
    env.nproc
    (Domain.recommended_domain_count ())
    Sys.ocaml_version env.git_rev smoke jobs;
  let obs_on = !obs || !trace_path <> None in
  if obs_on then Obs.Control.enable ();
  (* The micro and sample sections run last: the sample section's exact
     K = 1024 row grows the heap to about 800 MB, which OCaml 5.1 never
     returns, and after the micro section the library-size sweep alone
     grew past 2 GB of RSS (77 MB when it runs first). *)
  let probe = run_dp_probe ~smoke () in
  let par = run_par_dp ~smoke ~jobs () in
  let btypes = run_btypes ~smoke () in
  let pareto = run_pareto ~smoke () in
  let sample = run_sample ~smoke ~jobs () in
  let micro = run_micro ~smoke () in
  let obs = if obs_on then Some (collect_obs_report ()) else None in
  write_bench_json ~path:json_path ~env ~smoke ~jobs ~micro ~probe ~par ~sample
    ~btypes ~pareto ~obs;
  Option.iter
    (fun path ->
      Obs.Span.flush ();
      Obs.Export.write_chrome ~path (Obs.Span.snapshot ());
      Printf.printf "trace written to %s\n" path)
    !trace_path
