(* Standalone statistical timing of a saved buffering solution:
   load a routing tree and a buffering file, re-derive the root-RAT
   distribution under the full variation model (canonical and/or Monte
   Carlo), and optionally the clock-skew distribution. *)

open Cmdliner

let run tree_path buffering_path mc skew report homogeneous budget_pct wire_pct
    seed =
  let tree =
    try Rctree.Io.load tree_path
    with
    | Sys_error msg | Failure msg ->
      prerr_endline ("cannot load tree: " ^ msg);
      exit 1
  in
  let assignment =
    match buffering_path with
    | None -> { Bufins.Assignment.buffers = []; widths = [] }
    | Some path -> (
      try Bufins.Assignment.load path
      with
      | Sys_error msg | Failure msg ->
        prerr_endline ("cannot load buffering: " ^ msg);
        exit 1)
  in
  let die_um = Job.die_of_tree tree in
  let frac = budget_pct /. 100.0 in
  let budget =
    { Varmodel.Model.random_frac = frac; inter_die_frac = frac; spatial_frac = frac }
  in
  let grid = Job.grid ~die_um in
  let spatial =
    if homogeneous then Varmodel.Model.Homogeneous
    else Varmodel.Model.default_heterogeneous
  in
  let model () =
    Varmodel.Model.create ~mode:Varmodel.Model.Wid ~budget
      ~wire_frac:(wire_pct /. 100.0) ~spatial ~grid ()
  in
  let buffered =
    try
      Sta.Buffered.make ~tech:Device.Tech.default_65nm
        ~widths:assignment.Bufins.Assignment.widths tree
        assignment.Bufins.Assignment.buffers
    with Invalid_argument msg ->
      prerr_endline ("buffering does not fit the tree: " ^ msg);
      exit 1
  in
  let inst = Sta.Buffered.instantiate ~model:(model ()) buffered in
  Format.printf "tree: %a; %d buffers, %d sized wires@." Rctree.Tree.pp_stats tree
    (Sta.Buffered.buffer_count buffered)
    (List.length assignment.Bufins.Assignment.widths);
  let form = Sta.Buffered.canonical_rat inst in
  Format.printf "root RAT (canonical): mu=%.1f ps sigma=%.1f ps 95%%-yield=%.1f ps@."
    (Linform.mean form) (Linform.std form)
    (Sta.Yield.rat_at_yield form ~yield:0.95);
  if mc > 0 then begin
    let rng = Numeric.Rng.create ~seed in
    let samples = Sta.Buffered.monte_carlo inst ~rng ~trials:mc in
    let s = Numeric.Stats.summarize samples in
    Format.printf
      "root RAT (Monte Carlo, %d trials): mu=%.1f ps sigma=%.1f ps 95%%-yield=%.1f ps@."
      mc s.Numeric.Stats.mean s.Numeric.Stats.std
      (Sta.Yield.mc_rat_at_yield samples ~yield:0.95)
  end;
  if report > 0 then begin
    let rng = Numeric.Rng.create ~seed:(seed + 2) in
    let r = Sta.Report.compute ~trials:(max 200 mc) ~rng inst in
    Format.printf "most critical sinks:@.";
    Sta.Report.pp ~top:report Format.std_formatter r
  end;
  if skew then begin
    let sform = Sta.Skew.canonical_skew inst in
    Format.printf "clock skew (canonical): mu=%.1f ps sigma=%.1f ps@."
      (Linform.mean sform) (Linform.std sform);
    if mc > 0 then begin
      let rng = Numeric.Rng.create ~seed:(seed + 1) in
      let skews = Sta.Skew.monte_carlo inst ~rng ~trials:mc in
      Format.printf "clock skew (Monte Carlo): mu=%.1f ps p95=%.1f ps@."
        (Numeric.Stats.mean skews)
        (Numeric.Stats.percentile skews 0.95)
    end
  end;
  0

let tree_arg =
  Arg.(required & opt (some string) None & info [ "tree" ] ~docv:"FILE"
         ~doc:"Routing-tree file (varbuf tree format).")

let buffering_arg =
  Arg.(value & opt (some string) None & info [ "buffering" ] ~docv:"FILE"
         ~doc:"Buffering file (varbuf buffering format); empty = unbuffered.")

let mc_arg =
  Arg.(value & opt int 0 & info [ "mc" ] ~docv:"N" ~doc:"Monte-Carlo trials.")

let skew_arg =
  Arg.(value & flag & info [ "skew" ] ~doc:"Also report the clock-skew distribution.")

let report_arg =
  Arg.(value & opt int 0 & info [ "report" ] ~docv:"N"
         ~doc:"Print the N most critical sinks (slack and criticality).")

let homogeneous_arg =
  Arg.(value & flag & info [ "homogeneous" ]
         ~doc:"Homogeneous spatial model (default heterogeneous).")

let budget_arg =
  Arg.(value & opt float 5.0 & info [ "budget" ] ~docv:"PCT"
         ~doc:"Per-category variation budget in percent.")

let wire_arg =
  Arg.(value & opt float 0.0 & info [ "wire-variation" ] ~docv:"PCT"
         ~doc:"CMP wire-variation budget in percent (0 = nominal wires).")

let seed_arg =
  Arg.(value & opt int 1 & info [ "seed" ] ~docv:"SEED" ~doc:"Monte-Carlo seed.")

let cmd =
  let doc = "statistical timing of a saved buffering solution" in
  let info = Cmd.info "varbuf-sta" ~doc in
  Cmd.v info
    Term.(
      const run $ tree_arg $ buffering_arg $ mc_arg $ skew_arg $ report_arg
      $ homogeneous_arg $ budget_arg $ wire_arg $ seed_arg)

let () = exit (Cmd.eval' cmd)
