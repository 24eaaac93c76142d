(* Cross-validation of the sampling-based yield engine against the
   canonical 2P prediction, per Table-1 net.

   For each benchmark two optimisers run under the same WID model:

   - the canonical engine with the 2P rule, whose 95%-yield RAT is the
     analytic prediction of the paper's linearised + Clark-merged
     timing model;
   - the sample engine on K shared Monte-Carlo process corners
     (dominance relaxed to an 80 % per-sample count), whose 95%-yield
     RAT is measured: the 5th percentile of the chosen candidate's
     per-sample driver RATs.

   The sampled assignment is then re-evaluated canonically, so the gap
   column isolates the modelling error (linearisation + Clark) on one
   and the same buffering — the paper's Fig. 6 question, answered
   net by net at the yield point. *)

type row = {
  bench : string;
  k : int;
  canonical_y95 : float;  (** 2P assignment, analytic prediction *)
  sampled_y95 : float;  (** sample assignment, measured quantile *)
  sampled_analytic_y95 : float;  (** sample assignment, analytic *)
  gap_pct : float;
      (** |sampled − analytic| on the sample assignment, as a
          percentage of the analytic magnitude *)
  buffers_2p : int;
  buffers_sampled : int;
  seconds : float;  (** sample-engine runtime *)
}

let compute_one setup ?(samples = 1024) bname =
  let spatial = Varmodel.Model.default_heterogeneous in
  let info = Rctree.Benchmarks.find bname in
  let tree = Rctree.Benchmarks.load info in
  let grid = Common.grid ~die_um:info.Rctree.Benchmarks.die_um in
  let canonical =
    Common.run_algo setup ~rule:(Bufins.Prune.two_param ()) ~spatial ~grid
      Common.Wid tree
  in
  let canonical_form =
    Common.evaluate setup ~spatial ~grid tree
      ~widths:canonical.Bufins.Engine.widths canonical.Bufins.Engine.buffers
  in
  (* relax 0.8 kills a candidate dominated in >= 80 % of corners.
     Exact dominance (relax 1.0) is exercised by the tests on small
     nets, but on the Table-1 nets the exact partial order almost
     never fires at K=1024 and the branch-merge cross products blow
     past memory; 0.8 keeps the frontier in the low hundreds and on
     these nets picks the same assignments as 0.9. *)
  let sampled =
    Common.run_sampled setup ~samples ~relax:0.8 ~spatial ~grid Common.Wid
      tree
  in
  let sampled_form =
    Common.evaluate setup ~spatial ~grid tree
      ~widths:sampled.Sample.Engine.widths sampled.Sample.Engine.buffers
  in
  let analytic = Sta.Yield.rat_at_yield sampled_form ~yield:0.95 in
  {
    bench = bname;
    k = samples;
    canonical_y95 = Sta.Yield.rat_at_yield canonical_form ~yield:0.95;
    sampled_y95 = sampled.Sample.Engine.rat_at_yield;
    sampled_analytic_y95 = analytic;
    gap_pct =
      100.0
      *. Float.abs (sampled.Sample.Engine.rat_at_yield -. analytic)
      /. Float.max (Float.abs analytic) 1e-9;
    buffers_2p = List.length canonical.Bufins.Engine.buffers;
    buffers_sampled = List.length sampled.Sample.Engine.buffers;
    seconds = sampled.Sample.Engine.stats.Bufins.Engine.runtime_s;
  }

let compute setup ?(benches = [ "r1"; "r2"; "r3"; "r4"; "r5" ])
    ?(samples = 1024) () =
  List.map (fun b -> compute_one setup ~samples b) benches

let pp_result ppf r =
  Common.pp_row ppf
    [
      r.bench;
      Printf.sprintf "%.1f" r.canonical_y95;
      Printf.sprintf "%.1f" r.sampled_y95;
      Printf.sprintf "%.1f" r.sampled_analytic_y95;
      Printf.sprintf "%.2f" r.gap_pct;
      string_of_int r.buffers_2p;
      string_of_int r.buffers_sampled;
      Printf.sprintf "%.1f" r.seconds;
    ]

(* One net at a time, one row printed (and flushed) per net: the
   sample runs take minutes on the big nets, and a partially complete
   table beats no table when a run is cut short. *)
let run ppf setup =
  Format.fprintf ppf
    "== Extension: sampled vs canonical 95%%-yield RAT (WID, K=1024, relax \
     0.8) ==@.";
  Common.pp_row ppf
    [ "Bench"; "2P y95"; "Smp y95"; "Smp anl"; "Gap%"; "Buf2P"; "BufSmp";
      "Sec" ];
  List.iter
    (fun b ->
      pp_result ppf (compute_one setup b);
      Format.pp_print_flush ppf ())
    [ "r1"; "r2"; "r3"; "r4"; "r5" ]
