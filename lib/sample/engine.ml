(* The sampling-based yield engine (Zhang/Li/Schlichtmann, PAPERS.md).

   Same DP skeleton as [Bufins.Engine], run by [Bufins.Driver] — wire
   lift + buffer insertion per edge, subtree merge, prune — but every
   candidate carries its downstream load and RAT as K-vectors: the
   exact value of the candidate under each of K Monte-Carlo process
   corners drawn once per run into a shared [Matrix].  Nothing assumes
   joint normality; the per-sample Elmore arithmetic is exact (the
   r·load and r·c wire products are true per-sample products, where
   the canonical engine keeps a first-order linearisation, and the
   merge takes a true per-sample min where the canonical engine blends
   with Clark's statistical min).

   Pruning is per-sample dominance counting: candidate A dies when
   some other candidate ties-or-beats it (load <=, RAT >=) in at least
   [need = ceil(relax * K)] samples.  At relax = 1 that is full
   dominance — the dropped candidate loses or ties in *every* sampled
   corner, so dropping it can never change the per-sample optimum
   (dominance is preserved by the wire lift [r >= 0], buffer
   insertion, merge-min and driver subtraction, monotonically in
   floating point too, since fl(x + y) etc. are monotone per
   argument).  relax < 1 trades exactness for pruning power when only
   a yield-level statement is wanted; relax > 1 disables pruning
   entirely (the brute-force reference the tests compare against).

   Determinism: the matrix rows depend only on (seed, source id, K);
   source ids come from the same driver binding as the canonical
   engine; merges keep the fixed child order and the pruning sweep is
   a stable sort plus a deterministic scan.  Output is therefore
   byte-identical at any --jobs and with obs on or off. *)

type config = {
  tech : Device.Tech.t;
  library : Device.Buffer.t array;
  wires : Device.Wire_lib.t array;
  samples : int;
  seed : int;
  relax : float;
  yield : float;
  budget : Bufins.Engine.budget;
  load_limit : float option;
  insertion : Bufins.Engine.insertion;
  power_objective : Bufins.Dominance.objective;
  eps_power : float;
  energies : float array option;
}

let default_config ?(samples = 256) ?(seed = 1) ?(relax = 1.0)
    ?(yield = 0.95) ?(wire_sizing = false) () =
  if samples <= 0 then invalid_arg "Sample.Engine: samples must be positive";
  if not (relax > 0.0) then invalid_arg "Sample.Engine: relax must be positive";
  if not (yield > 0.0 && yield < 1.0) then
    invalid_arg "Sample.Engine: yield must lie in (0, 1)";
  let tech = Device.Tech.default_65nm in
  {
    tech;
    library = Device.Buffer.default_library;
    wires =
      (if wire_sizing then Device.Wire_lib.default_library tech
       else [| Device.Wire_lib.of_tech tech |]);
    samples;
    seed;
    relax;
    yield;
    budget = Bufins.Engine.no_budget;
    load_limit = None;
    insertion = Bufins.Engine.Convex_auto;
    power_objective = Bufins.Dominance.default;
    eps_power = 0.0;
    energies = None;
  }

let energies_of config =
  match config.energies with
  | Some e -> e
  | None -> Device.Buffer.energies config.library

type sol = {
  load : float array; (* per-sample downstream capacitance, fF *)
  rat : float array; (* per-sample required arrival time, ps *)
  power : float; (* accumulated buffer energy, fJ (exact, not sampled) *)
  choice : Bufins.Sol.choice;
}

(* Dual-polarity frontier, mirroring the canonical engine: [ev] rows
   deliver every sink its specified signal sense, [od] rows are one
   inversion away.  Without inverters in the library [od] stays empty
   and the instruction stream is the historical single-frontier one;
   the root selects from [ev] only. *)
type frontier = { ev : sol array; od : sol array }

let frontier_size f = Array.length f.ev + Array.length f.od

type result = {
  best : sol;
  root_rat : float array;
  root_best_per_sample : float array;
  buffers : (int * Device.Buffer.t) list;
  widths : (int * Device.Wire_lib.t) list;
  sampled_mean : float;
  sampled_std : float;
  rat_at_yield : float;
  load_limit_met : bool;
  stats : Bufins.Engine.stats;
}

let log_src = Logs.Src.create "varbuf.sample" ~doc:"sampling-based yield DP"

module Log = (val Logs.src_log log_src : Logs.LOG)

let default_grain = Bufins.Engine.default_grain

(* Handles resolved once at module initialisation; bumped only when
   observability is enabled. *)
let obs_nodes = Obs.Counters.counter Obs.Counters.global "sample.nodes"
let obs_merged = Obs.Counters.counter Obs.Counters.global "sample.merged"
let obs_generated = Obs.Counters.counter Obs.Counters.global "sample.generated"
let obs_kept = Obs.Counters.counter Obs.Counters.global "sample.kept"
let obs_pruned = Obs.Counters.counter Obs.Counters.global "sample.pruned"

let obs_checks =
  Obs.Counters.counter Obs.Counters.global "sample.dominance_checks"

(* Prune the [ncand] staged rows in the arena's B stage (load / rat /
   power / choice / mean keys already filled) down to a fresh frontier,
   by per-sample dominance counting against the [need] threshold.
   Under a power-aware objective the comparator additionally requires
   the dominator to cost no more energy ({!Bufins.Dominance.power_le}
   at [eps]), with raw power ascending as the ε-independent sort
   tie-break, so the kept set is the (load, RAT, power) Pareto
   frontier. *)
let prune_rows ~k ~need ~power_aware ~eps ar ncand =
  let exact_need = need >= k in
  if ncand <= 1 || need > k then
    Array.init ncand (fun i ->
        {
          load = Array.sub (Sarena.b_load ar (ncand * k)) (i * k) k;
          rat = Array.sub (Sarena.b_rat ar (ncand * k)) (i * k) k;
          power = (Sarena.b_power ar ncand).(i);
          choice = (Sarena.b_choice ar ncand ~dummy:(Bufins.Sol.At_sink 0)).(i);
        })
  else begin
    let obs = Obs.Control.on () in
    let t0 = if obs then Obs.Span.now_ns () else 0 in
    let bl = Sarena.b_load ar (ncand * k) in
    let br = Sarena.b_rat ar (ncand * k) in
    let bc = Sarena.b_choice ar ncand ~dummy:(Bufins.Sol.At_sink 0) in
    let bp = Sarena.b_power ar ncand in
    let ml = Sarena.mean_load ar ncand in
    let mr = Sarena.mean_rat ar ncand in
    let idx = Sarena.perm ar ncand in
    for i = 0 to ncand - 1 do
      idx.(i) <- i
    done;
    (* Mean load ascending, mean RAT descending: the stable order the
       canonical pruner uses, so exact duplicates keep the same
       representative.  The power path adds raw power ascending — an
       ε-independent order, so growing ε can only merge buckets and
       shrink the kept set. *)
    Sarena.sort_prefix ar idx ncand ~cmp:(fun a b ->
        let c = Float.compare ml.(a) ml.(b) in
        if c <> 0 then c
        else begin
          let c = Float.compare mr.(b) mr.(a) in
          if c <> 0 || not power_aware then c
          else Float.compare bp.(a) bp.(b)
        end);
    (* Row j dominates row i when it ties-or-beats it on both axes in
       at least [need] samples, with early exit both ways. *)
    let checks = ref 0 in
    let sample_dom j i =
      let jo = j * k and io = i * k in
      let count = ref 0 in
      let t = ref 0 in
      while !t < k do
        (if bl.(jo + !t) <= bl.(io + !t) && br.(jo + !t) >= br.(io + !t)
         then incr count);
        if !count >= need || !count + (k - !t - 1) < need then t := k
        else incr t
      done;
      !count >= need
    in
    let dominates =
      if power_aware then fun j i ->
        incr checks;
        Bufins.Dominance.power_le ~eps bp.(j) bp.(i) && sample_dom j i
      else fun j i ->
        incr checks;
        sample_dom j i
    in
    (* Full dominance in every sample implies mean-RAT order, so a
       candidate above the running max of kept mean RATs cannot be
       dominated; the filter is unsound for need < k and skipped
       there.  Conjoining the power test only makes dominance rarer,
       so the filter stays sound on the power path. *)
    let scan =
      if exact_need then Bufins.Dominance.Rat_prefilter
      else Bufins.Dominance.Scan_kept
    in
    let kept = Sarena.kept ar ncand in
    let nkept =
      Bufins.Dominance.sweep ~order:idx ~n:ncand
        ~rat_key:(fun i -> mr.(i))
        ~dominates ~scan ~kept
    in
    let out =
      Array.init nkept (fun s ->
          let i = kept.(s) in
          {
            load = Array.sub bl (i * k) k;
            rat = Array.sub br (i * k) k;
            power = bp.(i);
            choice = bc.(i);
          })
    in
    if obs then begin
      Obs.Counters.incr obs_generated ncand;
      Obs.Counters.incr obs_kept nkept;
      Obs.Counters.incr obs_pruned (ncand - nkept);
      Obs.Counters.incr obs_checks !checks;
      Obs.Counters.observe Obs.Counters.global "sample.frontier" ~lo:0.0
        ~hi:1024.0 ~bins:64
        (float_of_int nkept);
      Obs.Span.record ~name:"prune.sample" ~cat:"sample" ~t0_ns:t0
    end;
    out
  end

(* Stage and prune one edge lift into a dual-polarity frontier:
   per-width wired rows (exact per-sample Elmore) for both parities,
   then per output side its own wired rows reversed, one buffered
   variant per same-parity (non-inverting) type for each drivable
   wired row of that side, and one per parity-flipping (inverting)
   type for each drivable wired row of the opposite side.  [wire_rc]
   and [buf_forms] are the edge's bound forms
   ({!Bufins.Driver.wire_forms}, {!Bufins.Driver.buffer_forms}).  Row
   generation order replicates the canonical engine — wired rows
   reversed, then buffered, wired-row-major — so duplicate survival
   matches.

   Both parities' wired rows share the arena's A stage (even rows
   first); each output side stages its candidates in the B stage and
   prunes to a fresh frontier before the other side re-stages B.

   [convex] (Convex_auto insertion at need = k, i.e. relax = 1)
   pre-filters each (type, source-parity) block: a drivable wired row
   whose per-sample buffered score rat − R_b·load is tie-or-beaten in
   every sample by an earlier-or-strictly-better row of the same
   block yields a buffered row that full per-sample dominance
   provably drops — the materialised rows differ from the scores by
   the same per-sample T_b shift and fl(x − y) is monotone in x — so
   skipping its generation changes no output byte, only the candidate
   count fed to the quadratic pruning pass. *)
let lift_rows config ~matrix ~k ~need ~power_aware ~eps ~energies ~convex
    ~same_types ~flip_types ~wire_rc ~buf_forms ~child ~length (f : frontier) =
  let obs = Obs.Control.on () in
  let t0 = if obs then Obs.Span.now_ns () else 0 in
  let ar = Sarena.get () in
  let nlib = Array.length config.library in
  let ns_ev = Array.length f.ev and ns_od = Array.length f.od in
  let nwid = Array.length config.wires in
  let nw_ev = nwid * ns_ev and nw_od = nwid * ns_od in
  let ntot = nw_ev + nw_od in
  let al = Sarena.a_load ar (ntot * k) in
  let arr = Sarena.a_rat ar (ntot * k) in
  let ac = Sarena.a_choice ar ntot ~dummy:(Bufins.Sol.At_sink 0) in
  (* Per-width r·L and c·L as K-vectors (constant rows when wire
     variation is off). *)
  let rl = Array.make (nwid * k) 0.0 in
  let cl = Array.make (nwid * k) 0.0 in
  if Array.length wire_rc > 0 then
    for w = 0 to nwid - 1 do
      let r_form, c_form = wire_rc.(w) in
      Matrix.eval_into matrix r_form rl ~off:(w * k);
      Matrix.eval_into matrix c_form cl ~off:(w * k);
      for j = 0 to k - 1 do
        rl.((w * k) + j) <- rl.((w * k) + j) *. length;
        cl.((w * k) + j) <- cl.((w * k) + j) *. length
      done
    done
  else
    for w = 0 to nwid - 1 do
      let wire = config.wires.(w) in
      let r = wire.Device.Wire_lib.res_per_um *. length in
      let c = Device.Wire_lib.wire_cap wire ~length in
      for j = 0 to k - 1 do
        rl.((w * k) + j) <- r;
        cl.((w * k) + j) <- c
      done
    done;
  (* Wired rows (Eq. 33-34, exact per sample): load' = load + cL,
     rat' = rat − rL·load − ½·rL·cL.  Even-parity rows first, then
     odd, each side width-major. *)
  let wml = Array.make ntot 0.0 in
  let wmr = Array.make ntot 0.0 in
  let wpw = Array.make ntot 0.0 in
  let stage_side ~base ~ns (sols : sol array) =
    for lrow = 0 to (nwid * ns) - 1 do
      let row = base + lrow in
      let width = lrow / ns in
      let s = sols.(lrow mod ns) in
      let ro = row * k and wo = width * k in
      let sl = ref 0.0 and sr = ref 0.0 in
      for j = 0 to k - 1 do
        let rlj = rl.(wo + j) and clj = cl.(wo + j) in
        let ld = s.load.(j) +. clj in
        let rt =
          s.rat.(j) -. (rl.(wo + j) *. s.load.(j)) -. (0.5 *. rlj *. clj)
        in
        al.(ro + j) <- ld;
        arr.(ro + j) <- rt;
        sl := !sl +. ld;
        sr := !sr +. rt
      done;
      wml.(row) <- !sl /. float_of_int k;
      wmr.(row) <- !sr /. float_of_int k;
      wpw.(row) <- s.power;
      ac.(row) <- Bufins.Sol.Wire { node = child; width; from = s.choice }
    done
  in
  stage_side ~base:0 ~ns:ns_ev f.ev;
  stage_side ~base:nw_ev ~ns:ns_od f.od;
  (* Buffer templates per (site, type): cb and tb as K-vectors. *)
  let cb = Array.make (nlib * k) 0.0 in
  let tb = Array.make (nlib * k) 0.0 in
  let res = Array.make nlib 0.0 in
  for bi = 0 to nlib - 1 do
    let cb_form, tb_form = buf_forms.(bi) in
    Matrix.eval_into matrix cb_form cb ~off:(bi * k);
    Matrix.eval_into matrix tb_form tb ~off:(bi * k);
    res.(bi) <- config.library.(bi).Device.Buffer.res_kohm
  done;
  let drivable row =
    match config.load_limit with
    | None -> true
    | Some limit -> wml.(row) <= limit
  in
  let has_flip = Array.length flip_types > 0 in
  let od_out = has_flip || nw_od > 0 in
  (* Convex pre-filter flags, indexed [bi * ntot + row]. *)
  let drop = if convex then Array.make (nlib * ntot) false else [||] in
  let prefilter ~lo ~hi bi =
    if convex && hi - lo > 1 then begin
      let rows = Array.make (hi - lo) 0 in
      let nr = ref 0 in
      for row = lo to hi - 1 do
        if drivable row then begin
          rows.(!nr) <- row;
          incr nr
        end
      done;
      let nr = !nr in
      if nr > 1 then begin
        let r = res.(bi) in
        let sc = Array.make (nr * k) 0.0 in
        for x = 0 to nr - 1 do
          let ro = rows.(x) * k and xo = x * k in
          for j = 0 to k - 1 do
            sc.(xo + j) <- arr.(ro + j) -. (r *. al.(ro + j))
          done
        done;
        for x = 0 to nr - 1 do
          let xo = x * k in
          let dead = ref false in
          let y = ref 0 in
          while (not !dead) && !y < nr do
            (if !y <> x then begin
               let yo = !y * k in
               let ge = ref true and gt = ref false in
               let j = ref 0 in
               while !ge && !j < k do
                 if sc.(yo + !j) < sc.(xo + !j) then ge := false
                 else if sc.(yo + !j) > sc.(xo + !j) then gt := true;
                 incr j
               done;
               (* Drop x when y ties-or-beats it everywhere and is
                  either strictly better somewhere or earlier (the
                  earliest of an equal class survives, matching the
                  stable sort's pick). *)
               if !ge && (!gt || !y < x) then dead := true
             end);
            incr y
          done;
          if !dead then drop.(bi * ntot + rows.(x)) <- true
        done
      end
    end
  in
  if convex then begin
    Array.iter
      (fun bi ->
        prefilter ~lo:0 ~hi:nw_ev bi;
        if od_out then prefilter ~lo:nw_ev ~hi:ntot bi)
      same_types;
    Array.iter
      (fun bi ->
        prefilter ~lo:nw_ev ~hi:ntot bi;
        if od_out then prefilter ~lo:0 ~hi:nw_ev bi)
      flip_types
  end;
  let keep bi row =
    drivable row && ((not convex) || not drop.((bi * ntot) + row))
  in
  let count_block ~lo ~hi types =
    let c = ref 0 in
    Array.iter
      (fun bi ->
        for row = lo to hi - 1 do
          if keep bi row then incr c
        done)
      types;
    !c
  in
  (* Build one output side: wired rows [wlo, whi) reversed, then
     buffered rows — same-parity types over [wlo, whi), flip types
     over the opposite block [xlo, xhi), wired-row-major in library
     order within each block. *)
  let build_side ~wlo ~whi ~xlo ~xhi =
    let nw_side = whi - wlo in
    let ncand =
      nw_side + count_block ~lo:wlo ~hi:whi same_types
      + count_block ~lo:xlo ~hi:xhi flip_types
    in
    if ncand = 0 then [||]
    else begin
      let bl = Sarena.b_load ar (ncand * k) in
      let br = Sarena.b_rat ar (ncand * k) in
      let bc = Sarena.b_choice ar ncand ~dummy:(Bufins.Sol.At_sink 0) in
      let bpw = Sarena.b_power ar ncand in
      let ml = Sarena.mean_load ar ncand in
      let mr = Sarena.mean_rat ar ncand in
      for lrow = 0 to nw_side - 1 do
        let row = wlo + lrow in
        let dst = nw_side - 1 - lrow in
        Array.blit al (row * k) bl (dst * k) k;
        Array.blit arr (row * k) br (dst * k) k;
        bc.(dst) <- ac.(row);
        bpw.(dst) <- wpw.(row);
        ml.(dst) <- wml.(row);
        mr.(dst) <- wmr.(row)
      done;
      let next = ref nw_side in
      let emit_block ~lo ~hi types =
        for row = lo to hi - 1 do
          Array.iter
            (fun bi ->
              if keep bi row then begin
                let dst = !next in
                let dof = dst * k and ro = row * k and bo = bi * k in
                let r = res.(bi) in
                let sl = ref 0.0 and sr = ref 0.0 in
                (* Eq. 35-36 per sample: rat' = rat − R_b·load − T_b,
                   load' = C_b. *)
                for j = 0 to k - 1 do
                  let ld = cb.(bo + j) in
                  let rt = arr.(ro + j) -. (r *. al.(ro + j)) -. tb.(bo + j) in
                  bl.(dof + j) <- ld;
                  br.(dof + j) <- rt;
                  sl := !sl +. ld;
                  sr := !sr +. rt
                done;
                ml.(dst) <- !sl /. float_of_int k;
                mr.(dst) <- !sr /. float_of_int k;
                bpw.(dst) <- wpw.(row) +. energies.(bi);
                bc.(dst) <-
                  Bufins.Sol.Buffered
                    { node = child; buffer = bi; from = ac.(row) };
                incr next
              end)
            types
        done
      in
      emit_block ~lo:wlo ~hi:whi same_types;
      emit_block ~lo:xlo ~hi:xhi flip_types;
      let out = prune_rows ~k ~need ~power_aware ~eps ar ncand in
      if obs then begin
        let gen = Array.make nlib 0 and kept = Array.make nlib 0 in
        for i = nw_side to ncand - 1 do
          match bc.(i) with
          | Bufins.Sol.Buffered { buffer; _ } ->
            gen.(buffer) <- gen.(buffer) + 1
          | _ -> ()
        done;
        Array.iter
          (fun s ->
            match s.choice with
            | Bufins.Sol.Buffered { node; buffer; _ } when node = child ->
              kept.(buffer) <- kept.(buffer) + 1
            | _ -> ())
          out;
        Array.iteri
          (fun bi (b : Device.Buffer.t) ->
            if gen.(bi) > 0 then
              Obs.Counters.add Obs.Counters.global
                ("sample.type." ^ b.Device.Buffer.name ^ ".generated")
                gen.(bi);
            if kept.(bi) > 0 then
              Obs.Counters.add Obs.Counters.global
                ("sample.type." ^ b.Device.Buffer.name ^ ".kept")
                kept.(bi))
          config.library
      end;
      out
    end
  in
  let ev = build_side ~wlo:0 ~whi:nw_ev ~xlo:nw_ev ~xhi:ntot in
  let od =
    if not od_out then [||]
    else build_side ~wlo:nw_ev ~whi:ntot ~xlo:0 ~xhi:nw_ev
  in
  if obs then Obs.Span.record ~name:"lift" ~cat:"sample" ~t0_ns:t0;
  { ev; od }

(* Subtree merge: the full cross product with an exact per-sample min,
   staged into the arena's B stage and pruned. *)
let merge_rows ~k ~need ~power_aware ~eps ~node ~check (a : sol array)
    (b : sol array) =
  let na = Array.length a and nb = Array.length b in
  let ncand = na * nb in
  if ncand = 0 then [||]
  else begin
    let ar = Sarena.get () in
    let bl = Sarena.b_load ar (ncand * k) in
    let br = Sarena.b_rat ar (ncand * k) in
    let bc = Sarena.b_choice ar ncand ~dummy:(Bufins.Sol.At_sink 0) in
    let bpw = Sarena.b_power ar ncand in
    let ml = Sarena.mean_load ar ncand in
    let mr = Sarena.mean_rat ar ncand in
    let count = ref 0 in
    for i = 0 to na - 1 do
      let sa = a.(i) in
      for j = 0 to nb - 1 do
        incr count;
        check !count;
        (* Newest-first, matching the canonical cross merge's row
           order, so duplicate survival is stable. *)
        let dst = ncand - !count in
        let dof = dst * k in
        let sb = b.(j) in
        let sl = ref 0.0 and sr = ref 0.0 in
        for t = 0 to k - 1 do
          let ld = sa.load.(t) +. sb.load.(t) in
          let rt = Float.min sa.rat.(t) sb.rat.(t) in
          bl.(dof + t) <- ld;
          br.(dof + t) <- rt;
          sl := !sl +. ld;
          sr := !sr +. rt
        done;
        ml.(dst) <- !sl /. float_of_int k;
        mr.(dst) <- !sr /. float_of_int k;
        bpw.(dst) <- sa.power +. sb.power;
        bc.(dst) <-
          Bufins.Sol.Merged { node; left = sa.choice; right = sb.choice }
      done
    done;
    if Obs.Control.on () then Obs.Counters.incr obs_merged ncand;
    prune_rows ~k ~need ~power_aware ~eps ar ncand
  end

(* Parity-matched subtree merge: even rows pair with even, odd with
   odd (a merged candidate needs both subtrees at the same parity).
   The odd merge is skipped entirely when both sides are empty, so the
   inverter-free instruction stream is the historical one. *)
let merge_frontiers ~k ~need ~power_aware ~eps ~node ~check_time ~check_count
    (a : frontier) (b : frontier) =
  let check = Bufins.Driver.cross_check ~check_time ~check_count in
  let ev = merge_rows ~k ~need ~power_aware ~eps ~node ~check a.ev b.ev in
  let od =
    if Array.length a.od = 0 && Array.length b.od = 0 then [||]
    else merge_rows ~k ~need ~power_aware ~eps ~node ~check a.od b.od
  in
  { ev; od }

(* Root-frontier epilogue: load-limit gate, per-sample driver lift,
   yield scoring, result assembly. *)
let finish config ~t_start ~k ~peak ~total ~n root_sols =
  let tech = config.tech in
  let sample_mean v =
    let s = ref 0.0 in
    Array.iter (fun x -> s := !s +. x) v;
    !s /. float_of_int (Array.length v)
  in
  let compliant =
    match config.load_limit with
    | None -> root_sols
    | Some limit ->
      Array.of_list
        (List.filter
           (fun s -> sample_mean s.load <= limit)
           (Array.to_list root_sols))
  in
  let load_limit_met, root_sols =
    if Array.length compliant = 0 then (config.load_limit = None, root_sols)
    else (true, compliant)
  in
  assert (Array.length root_sols > 0);
  let driver_rat s =
    Array.init k (fun j ->
        s.rat.(j) -. (tech.Device.Tech.driver_r *. s.load.(j)))
  in
  let p = Float.max 0.0 (Float.min 1.0 (1.0 -. config.yield)) in
  let score q = Numeric.Stats.percentile q p in
  let best = ref root_sols.(0) in
  let root_rat = ref (driver_rat root_sols.(0)) in
  let best_score = ref (score !root_rat) in
  let root_best_per_sample = Array.copy !root_rat in
  let feasible =
    ref
      (match config.power_objective with
      | Bufins.Dominance.Min_power target -> !best_score >= target
      | _ -> true)
  in
  for i = 1 to Array.length root_sols - 1 do
    let s = root_sols.(i) in
    let q = driver_rat s in
    for j = 0 to k - 1 do
      if q.(j) > root_best_per_sample.(j) then
        root_best_per_sample.(j) <- q.(j)
    done;
    let sc = score q in
    let better =
      match config.power_objective with
      | Bufins.Dominance.Max_yield -> sc > !best_score
      | Bufins.Dominance.Weighted w ->
        sc -. (w *. s.power) > !best_score -. (w *. (!best).power)
      | Bufins.Dominance.Min_power target ->
        (* Minimum power among target-feasible candidates; infeasible
           roots fall back to the best-score pick. *)
        let f = sc >= target in
        if f && not !feasible then true
        else if f <> !feasible then false
        else if f then
          s.power < (!best).power
          || (s.power = (!best).power && sc > !best_score)
        else sc > !best_score
    in
    if better then begin
      best := s;
      root_rat := q;
      best_score := sc;
      match config.power_objective with
      | Bufins.Dominance.Min_power target -> feasible := sc >= target
      | _ -> ()
    end
  done;
  let best = !best and root_rat = !root_rat in
  let buffers =
    List.map
      (fun (node, bi) -> (node, config.library.(bi)))
      (Bufins.Sol.buffers_of_choice best.choice)
  in
  let widths =
    List.map
      (fun (node, wi) -> (node, config.wires.(wi)))
      (Bufins.Sol.widths_of_choice best.choice)
  in
  let summary = Numeric.Stats.summarize root_rat in
  Log.info (fun m ->
      m "done: %d nodes, K=%d, peak %d candidates, %d buffers, RAT@%g%% %.1f"
        n k peak (List.length buffers) (100.0 *. config.yield)
        !best_score);
  {
    best;
    root_rat;
    root_best_per_sample;
    buffers;
    widths;
    sampled_mean = summary.Numeric.Stats.mean;
    sampled_std = summary.Numeric.Stats.std;
    rat_at_yield = !best_score;
    load_limit_met;
    stats =
      {
        Bufins.Engine.runtime_s = Unix.gettimeofday () -. t_start;
        peak_candidates = peak;
        total_candidates = total;
        nodes = n;
      };
  }

let run_tape ?pool ?grain config ~model (tape : Compile.Tape.t) =
  let t_start = Unix.gettimeofday () in
  let k = config.samples in
  if k <= 0 then invalid_arg "Sample.Engine.run_tape: samples must be positive";
  (* The same device-id binding as the canonical engine, so the matrix
     rows a device maps to — and hence the output bytes — are
     independent of task scheduling, and the model's counter advances
     exactly as it would there. *)
  let bound =
    Bufins.Driver.bind ~model ~library:config.library ~wires:config.wires tape
  in
  let matrix =
    Matrix.create ~seed:config.seed ~k ~sources:(Bufins.Driver.sources bound)
  in
  (* Rows shared across subtree tasks (inter-die + spatial regions) are
     drawn eagerly before any parallel phase; per-device rows are only
     touched by the task owning the device's edge. *)
  Matrix.prefill matrix ~lo:0
    ~hi:(Varmodel.Grid.regions (Varmodel.Model.grid model));
  (* relax-scaled dominance threshold: a candidate is dropped when a
     competitor ties-or-beats it in at least [need] of the K samples. *)
  let need =
    max 1 (int_of_float (ceil (config.relax *. float_of_int k)))
  in
  let same_types, flip_types =
    Device.Buffer.partition_indices config.library
  in
  let power_aware = Bufins.Dominance.power_aware config.power_objective in
  let eps = config.eps_power in
  let energies = energies_of config in
  (* The convex pre-filter is sound only under full per-sample
     dominance (need = k): relax > 1 disables pruning (brute-force
     reference) and relax < 1 counts partial dominance, where a
     pre-filtered row is not provably dropped.  Power-aware pruning
     also disables it — cheaper-power rows must survive alongside the
     best-timing one. *)
  let convex =
    config.insertion = Bufins.Engine.Convex_auto && need = k
    && not power_aware
  in
  let out =
    Bufins.Driver.run ?pool ?grain ~budget:config.budget ~t_start
      {
        Bufins.Driver.sink =
          (fun ~node ~cap ~rat ->
            {
              ev =
                [|
                  {
                    load = Array.make k cap;
                    rat = Array.make k rat;
                    power = 0.0;
                    choice = Bufins.Sol.At_sink node;
                  };
                |];
              od = [||];
            });
        lift =
          (fun ~child ~edge ~length f ->
            lift_rows config ~matrix ~k ~need ~power_aware ~eps ~energies
              ~convex ~same_types ~flip_types
              ~wire_rc:(Bufins.Driver.wire_forms bound edge)
              ~buf_forms:(Bufins.Driver.buffer_forms bound edge)
              ~child ~length f);
        merge = merge_frontiers ~k ~need ~power_aware ~eps;
        size = frontier_size;
        nodes = obs_nodes;
        cat = "sample";
      }
      tape
  in
  finish config ~t_start ~k ~peak:out.Bufins.Driver.peak
    ~total:out.Bufins.Driver.total ~n:tape.Compile.Tape.n
    out.Bufins.Driver.root.ev

let run ?pool ?grain config ~model tree =
  run_tape ?pool ?grain config ~model (Compile.Tape.compile tree)
