type row = {
  label : string;
  budget_frac : float;
  ramp_hi : float;
  nom_y95 : float;
  wid_y95 : float;
  gap_pct : float;
  nom_buffers : int;
  wid_buffers : int;
  wid_mix : string;
}

let configs =
  [
    ("paper 5%, ramp 1.8", 0.05, 1.8);
    ("10%, ramp 1.8", 0.10, 1.8);
    ("15%, ramp 1.8", 0.15, 1.8);
    ("sp 15%, ramp 3.0", 0.15, 3.0);
    ("sp 25%, ramp 4.0", 0.25, 4.0);
  ]

let compute setup ?(bench = "r1") () =
  let info = Rctree.Benchmarks.find bench in
  let tree = Rctree.Benchmarks.load info in
  Common.map_cells setup
    ~f:(fun (label, frac, ramp_hi) ->
      (* The first three rows scale all three categories together; the
         "sp" rows amplify only the spatial category, the one WID alone
         can see. *)
      let budget =
        if ramp_hi <= 2.0 then
          { Varmodel.Model.random_frac = frac; inter_die_frac = frac; spatial_frac = frac }
        else { Varmodel.Model.paper_budget with Varmodel.Model.spatial_frac = frac }
      in
      let setup = { setup with Common.budget } in
      let grid = Common.grid ~die_um:info.Rctree.Benchmarks.die_um in
      let spatial = Varmodel.Model.Heterogeneous { lo = 2.0 -. ramp_hi; hi = ramp_hi } in
      let spatial =
        match spatial with
        | Varmodel.Model.Heterogeneous { lo; hi } when lo < 0.0 ->
          Varmodel.Model.Heterogeneous { lo = 0.0; hi }
        | s -> s
      in
      let eval algo =
        let r = Common.run_algo setup ~spatial ~grid algo tree in
        let form = Common.evaluate setup ~spatial ~grid tree r.Bufins.Engine.buffers in
        ( Sta.Yield.rat_at_yield form ~yield:0.95,
          List.length r.Bufins.Engine.buffers,
          Common.mix_string setup r.Bufins.Engine.buffers )
      in
      let nom_y95, nom_buffers, _ = eval Common.Nom in
      let wid_y95, wid_buffers, wid_mix = eval Common.Wid in
      {
        label;
        budget_frac = frac;
        ramp_hi;
        nom_y95;
        wid_y95;
        gap_pct = 100.0 *. (nom_y95 -. wid_y95) /. Float.abs wid_y95;
        nom_buffers;
        wid_buffers;
        wid_mix;
      })
    configs

let run ppf setup =
  Format.fprintf ppf
    "== Ablation: WID-vs-NOM gap versus variation budget / heterogeneity (r1) ==@.";
  Common.pp_row ppf
    [ "Config"; "NOM y95"; "WID y95"; "Gap(%)"; "NOM nb"; "WID nb"; "WID mix" ];
  List.iter
    (fun r ->
      Common.pp_row ppf
        [
          r.label;
          Printf.sprintf "%.0f" r.nom_y95;
          Printf.sprintf "%.0f" r.wid_y95;
          Printf.sprintf "%+.2f" r.gap_pct;
          string_of_int r.nom_buffers;
          string_of_int r.wid_buffers;
          r.wid_mix;
        ])
    (compute setup ())
