let die_of_tree = Job.die_of_tree

let run ?pool ?tapes:_ ?tape_digest:_ ?deadline_s (req : Protocol.request) =
  let deadline_s =
    match deadline_s with
    | Some s -> Some s
    | None ->
      if req.Protocol.deadline_ms > 0 then
        Some (float_of_int req.Protocol.deadline_ms /. 1000.0)
      else None
  in
  let setup =
    {
      Job.default_setup with
      Job.mc_trials = req.Protocol.mc_trials;
      library =
        (* btypes = 0 keeps the default library object itself, so
           historical requests run through exactly the historical
           configuration. *)
        (if req.Protocol.btypes > 0 then
           Device.Buffer.synth_library ~btypes:req.Protocol.btypes
         else Job.default_setup.Job.library);
      pool;
    }
  in
  (* samples > 0 routes to the sampling-based yield engine; the
     request's [rule] only applies to the canonical path.  Either way
     the response's root_* fields report the canonical evaluation of
     the chosen assignment under the full WID model, so a sampled
     response carries its own canonical-vs-sampled cross-validation. *)
  let engine =
    if req.Protocol.samples > 0 then
      Job.Sampled { samples = req.Protocol.samples; relax = req.Protocol.relax }
    else Job.Canonical req.Protocol.rule
  in
  let tree = req.Protocol.tree in
  let o =
    Job.run setup ?deadline_s ~wire_sizing:req.Protocol.wire_sizing
      ~objective:req.Protocol.objective ~eps_power:req.Protocol.eps_power
      ~spatial:Varmodel.Model.default_heterogeneous ~seed:req.Protocol.seed
      ~die_um:(die_of_tree tree) engine req.Protocol.mode tree
  in
  let stats = o.Job.stats and form = o.Job.form in
  {
    Protocol.r_id = req.Protocol.id;
    nodes = stats.Bufins.Engine.nodes;
    peak_candidates = stats.Bufins.Engine.peak_candidates;
    total_candidates = stats.Bufins.Engine.total_candidates;
    root_mean = Linform.mean form;
    root_std = Linform.std form;
    root_yield95 = Sta.Yield.rat_at_yield form ~yield:0.95;
    sampled =
      Option.map
        (fun (s_mean, s_std, s_rat_at_yield) ->
          { Protocol.s_k = req.Protocol.samples; s_mean; s_std; s_rat_at_yield })
        o.Job.sampled;
    mc =
      Option.map
        (fun s -> (s.Numeric.Stats.mean, s.Numeric.Stats.std))
        o.Job.mc;
    (* r_power reports the chosen assignment's accumulated buffer
       energy only for power-aware objectives, keeping default
       responses byte-identical to the pre-power protocol. *)
    r_power =
      (if Bufins.Dominance.power_aware req.Protocol.objective then
         Some o.Job.power
       else None);
    assignment = o.Job.assignment;
  }
