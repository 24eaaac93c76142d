let die_of_tree = Experiments.Common.die_of_tree

let compute ?pool ?deadline_s (req : Protocol.request) =
  let setup =
    {
      Experiments.Common.default_setup with
      Experiments.Common.mc_trials = req.Protocol.mc_trials;
      library =
        (* btypes = 0 keeps the default library object itself, so
           historical requests run through exactly the historical
           configuration. *)
        (if req.Protocol.btypes > 0 then
           Device.Buffer.synth_library ~btypes:req.Protocol.btypes
         else Experiments.Common.default_setup.Experiments.Common.library);
      pool;
    }
  in
  let tree = req.Protocol.tree in
  let die_um = die_of_tree tree in
  let grid = Experiments.Common.grid_for setup ~die_um in
  let spatial = Varmodel.Model.default_heterogeneous in
  let budget =
    { Bufins.Engine.max_candidates = None; max_seconds = deadline_s }
  in
  (* samples > 0 routes to the sampling-based yield engine; the
     request's [rule] only applies to the canonical path.  Either way
     the response's root_* fields report the canonical evaluation of
     the chosen assignment under the full WID model, so a sampled
     response carries its own canonical-vs-sampled cross-validation. *)
  (* r_power reports the chosen assignment's accumulated buffer energy
     only for power-aware objectives, keeping default responses
     byte-identical to the pre-power protocol. *)
  let power_aware = Bufins.Dominance.power_aware req.Protocol.objective in
  let assignment, stats, sampled, power =
    if req.Protocol.samples > 0 then begin
      let r =
        Experiments.Common.run_sampled setup ~budget
          ~wire_sizing:req.Protocol.wire_sizing ~samples:req.Protocol.samples
          ~relax:req.Protocol.relax ~seed:req.Protocol.seed
          ~objective:req.Protocol.objective ~eps_power:req.Protocol.eps_power
          ~spatial ~grid req.Protocol.mode tree
      in
      ( {
          Bufins.Assignment.buffers = r.Sample.Engine.buffers;
          widths = r.Sample.Engine.widths;
        },
        r.Sample.Engine.stats,
        Some
          {
            Protocol.s_k = req.Protocol.samples;
            s_mean = r.Sample.Engine.sampled_mean;
            s_std = r.Sample.Engine.sampled_std;
            s_rat_at_yield = r.Sample.Engine.rat_at_yield;
          },
        r.Sample.Engine.best.Sample.Engine.power )
    end
    else begin
      let r =
        Experiments.Common.run_algo setup ~rule:req.Protocol.rule ~budget
          ~wire_sizing:req.Protocol.wire_sizing
          ~objective:req.Protocol.objective ~eps_power:req.Protocol.eps_power
          ~spatial ~grid req.Protocol.mode tree
      in
      ( Bufins.Assignment.of_result r,
        r.Bufins.Engine.stats,
        None,
        r.Bufins.Engine.best.Bufins.Sol.power )
    end
  in
  let widths = assignment.Bufins.Assignment.widths in
  let buffers = assignment.Bufins.Assignment.buffers in
  let form = Experiments.Common.evaluate setup ~spatial ~grid tree ~widths buffers in
  let mc =
    if req.Protocol.mc_trials > 0 then begin
      let inst =
        Experiments.Common.instance_for setup ~spatial ~grid tree ~widths buffers
      in
      let samples =
        Experiments.Common.mc_samples setup inst ~seed:req.Protocol.seed
          ~trials:req.Protocol.mc_trials
      in
      let s = Numeric.Stats.summarize samples in
      Some (s.Numeric.Stats.mean, s.Numeric.Stats.std)
    end
    else None
  in
  {
    Protocol.r_id = req.Protocol.id;
    nodes = stats.Bufins.Engine.nodes;
    peak_candidates = stats.Bufins.Engine.peak_candidates;
    total_candidates = stats.Bufins.Engine.total_candidates;
    root_mean = Linform.mean form;
    root_std = Linform.std form;
    root_yield95 = Sta.Yield.rat_at_yield form ~yield:0.95;
    sampled;
    mc;
    r_power = (if power_aware then Some power else None);
    assignment;
  }

let run ?pool ?tapes:_ ?tape_digest:_ ?deadline_s (req : Protocol.request) =
  let deadline_s =
    match deadline_s with
    | Some s -> Some s
    | None ->
      if req.Protocol.deadline_ms > 0 then
        Some (float_of_int req.Protocol.deadline_ms /. 1000.0)
      else None
  in
  (match deadline_s with
  | Some s when s <= 0.0 ->
    raise (Bufins.Engine.Budget_exceeded "deadline expired before optimisation")
  | _ -> ());
  compute ?pool ?deadline_s req
