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
  power_objective : Bufins.Dominance.objective;
  eps_power : float;
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
    power_objective = Bufins.Dominance.default;
    eps_power = 0.0;
  }

type sol = {
  load : float array; (* per-sample downstream capacitance, fF *)
  rat : float array; (* per-sample required arrival time, ps *)
  power : float; (* accumulated buffer energy, fJ (exact, not sampled) *)
  choice : Bufins.Sol.choice;
}

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

(* 1 when sample [a] of one row ties-or-beats sample [b] of another on
   both axes (load <=, RAT >=), else 0, without a branch. *)
let[@inline] hit (bl : float array) (br : float array) a b =
  Bool.to_int (Array.unsafe_get bl a <= Array.unsafe_get bl b)
  land Bool.to_int (Array.unsafe_get br a >= Array.unsafe_get br b)

(* The per-sample dominance count: does row [j] of the K-strided
   blocks [bl] / [br] tie-or-beat row [i] in at least [need] of the K
   samples, for 1 <= need <= k?  Successes and failures only grow
   along the scan, so stopping once successes reach [need] or failures
   exceed [k - need] gives the full count's verdict; testing those
   exits only every fourth sample therefore changes nothing.  Four
   samples per step, then a scalar tail for [k mod 4].  Reads are
   unchecked: callers guarantee both rows lie inside both blocks. *)
let dom_count ~k ~need bl br j i =
  let jo = j * k and io = i * k in
  let slack = k - need in
  let hits = ref 0 and t = ref 0 in
  while !t + 4 <= k && !hits < need && !t - !hits <= slack do
    let a = jo + !t and b = io + !t in
    hits :=
      !hits + hit bl br a b
      + hit bl br (a + 1) (b + 1)
      + hit bl br (a + 2) (b + 2)
      + hit bl br (a + 3) (b + 3);
    t := !t + 4
  done;
  while !t < k && !hits < need && !t - !hits <= slack do
    hits := !hits + hit bl br (jo + !t) (io + !t);
    incr t
  done;
  !hits >= need

let sample_dominates ~k ~need ~load ~rat j i =
  if k <= 0 || need < 1 || need > k then
    invalid_arg "Sample.Engine.sample_dominates: need must lie in 1..k";
  let rows = (max i j + 1) * k in
  if min i j < 0 || rows > Array.length load || rows > Array.length rat then
    invalid_arg "Sample.Engine.sample_dominates: row out of range";
  dom_count ~k ~need load rat j i

(* [Float.min x y] without its two [caml_signbit] C calls on the
   common [y <= x] path: a strict order decides outright, and only
   ties (±0 pairs) and NaN fall through to [Float.min] itself, so the
   result is the same on every input. *)
let[@inline] merge_min (x : float) y =
  if y > x then x else if x > y then y else Float.min x y

(* The row generators below check each frontier row (K samples on
   both axes) and each arena staging block once, then read and write
   them without bounds checks. *)
let check_row ~k s =
  if Array.length s.load <> k || Array.length s.rat <> k then
    invalid_arg "Sample.Engine: frontier row is not K samples long"

let check_block n (load : float array) (rat : float array) =
  if Array.length load < n || Array.length rat < n then
    invalid_arg "Sample.Engine: staging block too short"

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
    let mr = Sarena.mean_rat ar ncand in
    (* Mean load ascending, mean RAT descending: the stable order the
       canonical pruner uses, so exact duplicates keep the same
       representative.  The power path adds raw power ascending — an
       ε-independent order, so growing ε can only merge buckets and
       shrink the kept set. *)
    let idx = Sarena.sort_prefix ar ncand ~power_aware in
    (* Row j dominates row i when it ties-or-beats it on both axes in
       at least [need] samples.  The sweep passes rows below [ncand]
       only, so one check of the staged block covers every unchecked
       count. *)
    check_block (ncand * k) bl br;
    let checks = ref 0 in
    let dominates =
      if power_aware then fun j i ->
        incr checks;
        Bufins.Dominance.power_le ~eps bp.(j) bp.(i)
        && dom_count ~k ~need bl br j i
      else fun j i ->
        incr checks;
        dom_count ~k ~need bl br j i
    in
    (* Full dominance in every sample implies mean-RAT order:
       [rat_j >= rat_i] in every sample, floating-point addition is
       monotone in each argument, so the sums and the means keep that
       order.  So a candidate above the running max of kept mean RATs
       cannot be dominated, and a kept row with a lower mean RAT than
       the candidate cannot dominate it — [Rat_filtered] skips both
       without a per-sample scan, and drops no check that could
       succeed.  Neither holds for need < k, where the plain scan
       runs.  Conjoining the power test only makes dominance rarer,
       so the filters stay sound on the power path. *)
    let scan =
      if exact_need then Bufins.Dominance.Rat_filtered
      else Bufins.Dominance.Scan_kept
    in
    let kept = Sarena.kept ar ncand in
    let nkept =
      Bufins.Dominance.sweep ~order:idx ~n:ncand ~rat_keys:mr ~dominates ~scan
        ~kept
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
   prunes to a fresh frontier before the other side re-stages B. *)
let lift_rows config ~matrix ~k ~need ~power_aware ~eps ~energies
    ~same_types ~flip_types ~wire_rc ~buf_forms ~child ~length
    (f : sol Bufins.Driver.polar) =
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
  check_block (ntot * k) al arr;
  let stage_side ~base ~ns (sols : sol array) =
    Array.iter (check_row ~k) sols;
    for lrow = 0 to (nwid * ns) - 1 do
      let row = base + lrow in
      let width = lrow / ns in
      let s = sols.(lrow mod ns) in
      let sload = s.load and srat = s.rat in
      let ro = row * k and wo = width * k in
      let sl = ref 0.0 and sr = ref 0.0 in
      for j = 0 to k - 1 do
        let rlj = Array.unsafe_get rl (wo + j)
        and clj = Array.unsafe_get cl (wo + j) in
        let lj = Array.unsafe_get sload j in
        let ld = lj +. clj in
        let rt =
          Array.unsafe_get srat j -. (rlj *. lj) -. (0.5 *. rlj *. clj)
        in
        Array.unsafe_set al (ro + j) ld;
        Array.unsafe_set arr (ro + j) rt;
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
  let count_block ~lo ~hi types =
    let c = ref 0 in
    for row = lo to hi - 1 do
      if drivable row then incr c
    done;
    !c * Array.length types
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
      check_block (ncand * k) bl br;
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
              if drivable row then begin
                let dst = !next in
                if dst >= ncand then invalid_arg "Sample.Engine: row overflow";
                let dof = dst * k and ro = row * k and bo = bi * k in
                let r = res.(bi) in
                let sl = ref 0.0 and sr = ref 0.0 in
                (* Eq. 35-36 per sample: rat' = rat − R_b·load − T_b,
                   load' = C_b. *)
                for j = 0 to k - 1 do
                  let ld = Array.unsafe_get cb (bo + j) in
                  let rt =
                    Array.unsafe_get arr (ro + j)
                    -. (r *. Array.unsafe_get al (ro + j))
                    -. Array.unsafe_get tb (bo + j)
                  in
                  Array.unsafe_set bl (dof + j) ld;
                  Array.unsafe_set br (dof + j) rt;
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
      if obs then
        Bufins.Driver.count_types ~prefix:"sample" config.library ~child
          ~generated:(fun i -> bc.(i))
          ~lo:nw_side ~hi:ncand
          ~kept:(fun i -> out.(i).choice)
          ~nkept:(Array.length out);
      out
    end
  in
  let ev = build_side ~wlo:0 ~whi:nw_ev ~xlo:nw_ev ~xhi:ntot in
  let od =
    if not od_out then [||]
    else build_side ~wlo:nw_ev ~whi:ntot ~xlo:0 ~xhi:nw_ev
  in
  if obs then Obs.Span.record ~name:"lift" ~cat:"sample" ~t0_ns:t0;
  { Bufins.Driver.ev; od }

(* Subtree merge of one parity: the full cross product with an exact
   per-sample min, staged into the arena's B stage and pruned. *)
let merge_rows ~k ~need ~power_aware ~eps ~node ~check_time ~check_count
    (a : sol array) (b : sol array) =
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
    check_block (ncand * k) bl br;
    Array.iter (check_row ~k) a;
    Array.iter (check_row ~k) b;
    let check = Bufins.Driver.cross_check ~check_time ~check_count in
    let count = ref 0 in
    for i = 0 to na - 1 do
      let sa = a.(i) in
      let la = sa.load and ra = sa.rat in
      for j = 0 to nb - 1 do
        incr count;
        check !count;
        (* Newest-first, matching the canonical cross merge's row
           order, so duplicate survival is stable. *)
        let dst = ncand - !count in
        let dof = dst * k in
        let sb = b.(j) in
        let lb = sb.load and rb = sb.rat in
        let sl = ref 0.0 and sr = ref 0.0 in
        for t = 0 to k - 1 do
          let ld = Array.unsafe_get la t +. Array.unsafe_get lb t in
          let rt = merge_min (Array.unsafe_get ra t) (Array.unsafe_get rb t) in
          Array.unsafe_set bl (dof + t) ld;
          Array.unsafe_set br (dof + t) rt;
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

(* Root-frontier epilogue: load-limit gate, per-sample driver lift,
   yield scoring, result assembly. *)
let finish config ~t_start ~k ~peak ~total ~n root_sols =
  let tech = config.tech in
  let sample_mean v =
    let s = ref 0.0 in
    Array.iter (fun x -> s := !s +. x) v;
    !s /. float_of_int (Array.length v)
  in
  let load_limit_met, root_sols =
    Bufins.Driver.within_load_limit config.load_limit
      ~mean_load:(fun s -> sample_mean s.load)
      root_sols
  in
  let driver_rat s =
    Array.init k (fun j ->
        s.rat.(j) -. (tech.Device.Tech.driver_r *. s.load.(j)))
  in
  let p = Float.max 0.0 (Float.min 1.0 (1.0 -. config.yield)) in
  let q0 = driver_rat root_sols.(0) in
  let root_best_per_sample = Array.copy q0 in
  let scores =
    Array.mapi
      (fun i s ->
        let q = if i = 0 then q0 else driver_rat s in
        for j = 0 to k - 1 do
          if q.(j) > root_best_per_sample.(j) then
            root_best_per_sample.(j) <- q.(j)
        done;
        Numeric.Stats.percentile q p)
      root_sols
  in
  let b =
    Bufins.Dominance.pick config.power_objective ~n:(Array.length root_sols)
      ~score:(Array.get scores)
      ~power:(fun i -> root_sols.(i).power)
  in
  let best = root_sols.(b) and rat_at_yield = scores.(b) in
  let root_rat = driver_rat best in
  let buffers, widths =
    Bufins.Driver.assignment ~library:config.library ~wires:config.wires
      best.choice
  in
  let summary = Numeric.Stats.summarize root_rat in
  Log.info (fun m ->
      m "done: %d nodes, K=%d, peak %d candidates, %d buffers, RAT@%g%% %.1f"
        n k peak (List.length buffers) (100.0 *. config.yield)
        rat_at_yield);
  {
    best;
    root_rat;
    root_best_per_sample;
    buffers;
    widths;
    sampled_mean = summary.Numeric.Stats.mean;
    sampled_std = summary.Numeric.Stats.std;
    rat_at_yield;
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
     competitor ties-or-beats it in at least [need] of the K samples.
     Any need > k means no pruning; relax > 1 sets it directly, since
     [int_of_float] of a product beyond max_int is not a large int. *)
  let need =
    if config.relax > 1.0 then k + 1
    else max 1 (int_of_float (ceil (config.relax *. float_of_int k)))
  in
  let same_types, flip_types =
    Device.Buffer.partition_indices config.library
  in
  let power_aware = Bufins.Dominance.power_aware config.power_objective in
  let eps = config.eps_power in
  let energies = Device.Buffer.energies config.library in
  let out =
    Bufins.Driver.run ?pool ?grain ~budget:config.budget ~t_start
      {
        Bufins.Driver.sink =
          (fun ~node ~cap ~rat ->
            {
              load = Array.make k cap;
              rat = Array.make k rat;
              power = 0.0;
              choice = Bufins.Sol.At_sink node;
            });
        lift =
          (fun ~child ~edge ~length f ->
            lift_rows config ~matrix ~k ~need ~power_aware ~eps ~energies
              ~same_types ~flip_types
              ~wire_rc:(Bufins.Driver.wire_forms bound edge)
              ~buf_forms:(Bufins.Driver.buffer_forms bound edge)
              ~child ~length f);
        merge = merge_rows ~k ~need ~power_aware ~eps;
        nodes = obs_nodes;
        cat = "sample";
      }
      tape
  in
  finish config ~t_start ~k ~peak:out.Bufins.Driver.peak
    ~total:out.Bufins.Driver.total ~n:tape.Compile.Tape.n
    out.Bufins.Driver.root

let run ?pool ?grain config ~model tree =
  run_tape ?pool ?grain config ~model (Compile.Tape.compile tree)
