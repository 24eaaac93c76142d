type budget = Driver.budget = {
  max_candidates : int option;
  max_seconds : float option;
}

let no_budget = Driver.no_budget

type insertion = Convex_auto | Exhaustive

type config = {
  tech : Device.Tech.t;
  library : Device.Buffer.t array;
  wires : Device.Wire_lib.t array;
  rule : Prune.t;
  budget : budget;
  load_limit : float option;
  insertion : insertion;
  power_objective : Dominance.objective;
  eps_power : float;
  energies : float array option;
}

let default_config ?(rule = Prune.two_param ()) ?(wire_sizing = false) () =
  let tech = Device.Tech.default_65nm in
  {
    tech;
    library = Device.Buffer.default_library;
    wires =
      (if wire_sizing then Device.Wire_lib.default_library tech
       else [| Device.Wire_lib.of_tech tech |]);
    rule;
    budget = no_budget;
    load_limit = None;
    insertion = Convex_auto;
    power_objective = Dominance.default;
    eps_power = 0.0;
    energies = None;
  }

let energies_of config =
  match config.energies with
  | Some e -> e
  | None -> Device.Buffer.energies config.library

(* The per-type selection of the insert step ({!insert_and_prune}) is
   byte-exact only when the pruning rule compares pure means on both
   axes ({!Prune.mean_exact}) and no two library types share an input
   capacitance (distinct load keys mean no equal-key duplicate class
   can span two types, so the order in which the selected rows are
   staged cannot move a stable-sort tie).  Everything else falls back
   to exhaustive generation. *)
let use_convex config =
  config.insertion = Convex_auto
  && Prune.mean_exact config.rule
  && Device.Buffer.caps_distinct config.library

let log_src = Logs.Src.create "varbuf.engine" ~doc:"buffer-insertion DP"

module Log = (val Logs.src_log log_src : Logs.LOG)

exception Budget_exceeded = Driver.Budget_exceeded

type stats = {
  runtime_s : float;
  peak_candidates : int;
  total_candidates : int;
  nodes : int;
}

type result = {
  root_rat : Linform.t;
  best : Sol.t;
  buffers : (int * Device.Buffer.t) list;
  widths : (int * Device.Wire_lib.t) list;
  load_limit_met : bool;
  stats : stats;
}

(* Eq. 33-34: lift one candidate through a wire of length [l] sized
   with the given width option. *)
let lift_wire wire ~node ~width ~length (s : Sol.t) =
  let r = wire.Device.Wire_lib.res_per_um *. length in
  let load = Linform.shift (Device.Wire_lib.wire_cap wire ~length) s.Sol.load in
  let rat =
    Linform.axpy_shift (-.r) s.Sol.load s.Sol.rat
      (-.(0.5 *. r *. wire.Device.Wire_lib.cap_per_um *. length))
  in
  {
    Sol.load;
    rat;
    power = s.Sol.power;
    choice = Wire { node; width; from = s.Sol.choice };
  }

(* Same lift when the wire parasitics themselves are canonical forms
   (CMP variation): the r·L and r·c Elmore terms become first-order
   products. *)
let lift_wire_var ~node ~width ~length ~r_form ~c_form (s : Sol.t) =
  let load = Linform.add s.Sol.load (Linform.scale length c_form) in
  let r_l = Linform.scale length r_form in
  let rat =
    Linform.sub s.Sol.rat (Linform.mul_first_order r_l s.Sol.load)
    |> (fun rat ->
         Linform.sub rat
           (Linform.scale (0.5 *. length) (Linform.mul_first_order r_l c_form)))
  in
  {
    Sol.load;
    rat;
    power = s.Sol.power;
    choice = Wire { node; width; from = s.Sol.choice };
  }

(* Eq. 35-36: insert a buffer (shared canonical forms for the site)
   in front of an already-wired candidate.  [energy] is the type's
   switching + leakage energy, accumulated into the candidate's power
   axis; under the default objective the sum is carried but never
   compared. *)
let insert_buffer ~node ~buffer_index ~cb_form ~tb_form ~res ~energy
    (wired : Sol.t) =
  let rat =
    Linform.sub (Linform.axpy (-.res) wired.Sol.load wired.Sol.rat) tb_form
  in
  {
    Sol.load = cb_form;
    rat;
    power = wired.Sol.power +. energy;
    choice = Buffered { node; buffer = buffer_index; from = wired.Sol.choice };
  }

let combine_pair ~node (sa : Sol.t) (sb : Sol.t) =
  {
    Sol.load = Linform.add sa.Sol.load sb.Sol.load;
    rat = Linform.stat_min sa.Sol.rat sb.Sol.rat;
    power = sa.Sol.power +. sb.Sol.power;
    choice = Merged { node; left = sa.Sol.choice; right = sb.Sol.choice };
  }

(* Classical linear merge (Fig. 1) on two load-sorted frontiers: emit
   the combination of the current pair, then advance the side whose RAT
   binds the min; at most n + m - 1 combinations. *)
let merge_linear ~node (a : Sol.t array) (b : Sol.t array) =
  let na = Array.length a and nb = Array.length b in
  if na = 0 || nb = 0 then [||]
  else begin
    let out = Array.make (na + nb - 1) a.(0) in
    let k = ref 0 and ia = ref 0 and ib = ref 0 in
    while !ia < na && !ib < nb do
      let sa = a.(!ia) and sb = b.(!ib) in
      out.(!k) <- combine_pair ~node sa sb;
      incr k;
      if Sol.mean_rat sa < Sol.mean_rat sb then incr ia else incr ib
    done;
    if !k = na + nb - 1 then out else Array.sub out 0 !k
  end

let merge_frontiers ~node a b = merge_linear ~node a b

(* 4P cannot exploit any ordering: full cross product (§2.2).  The
   combinations are stored newest-first, preserving the order the
   original accumulator-list construction fed the pruner. *)
let merge_cross ~node ~check (a : Sol.t array) (b : Sol.t array) =
  let na = Array.length a and nb = Array.length b in
  let total = na * nb in
  if total = 0 then [||]
  else begin
    let out = Array.make total (combine_pair ~node a.(0) b.(0)) in
    let count = ref 0 in
    for i = 0 to na - 1 do
      let sa = a.(i) in
      for j = 0 to nb - 1 do
        incr count;
        check !count;
        out.(total - !count) <- combine_pair ~node sa b.(j)
      done
    done;
    out
  end

let default_grain = Driver.default_grain

(* Handles resolved once at module initialisation; bumped only when
   observability is enabled. *)
let obs_nodes = Obs.Counters.counter Obs.Counters.global "dp.nodes"
let obs_merged = Obs.Counters.counter Obs.Counters.global "dp.merged"

(* Stage the wired lifts of a child frontier into the domain arena.
   [wire_rc] holds one (r, c) canonical-form pair per wire width when
   the wire parasitics themselves vary, and is empty otherwise.
   Returns the staging buffer and the staged count. *)
let fill_wired config ~wire_rc ~child ~length (sols : Sol.t array) wired nw =
  let ns = Array.length sols in
  if Array.length wire_rc > 0 then
    for k = 0 to nw - 1 do
      let width = k / ns in
      let r_form, c_form = wire_rc.(width) in
      wired.(k) <-
        lift_wire_var ~node:child ~width ~length ~r_form ~c_form
          sols.(k mod ns)
    done
  else
    for k = 0 to nw - 1 do
      let width = k / ns in
      wired.(k) <-
        lift_wire config.wires.(width) ~node:child ~width ~length
          sols.(k mod ns)
    done

let stage_wired config ~wire_rc ~child ~length (sols : Sol.t array) =
  let arena = Arena.get () in
  let nw = Array.length config.wires * Array.length sols in
  let wired = Arena.stage_a arena nw ~dummy:sols.(0) in
  fill_wired config ~wire_rc ~child ~length sols wired nw;
  (wired, nw)

(* The odd-parity wired candidates go into a plain array: the arena's
   [stage_a] holds the even side, which the cross-polarity insert
   still reads while the odd side is staged and pruned. *)
let stage_wired_plain config ~wire_rc ~child ~length (sols : Sol.t array) =
  if Array.length sols = 0 then ([||], 0)
  else begin
    let nw = Array.length config.wires * Array.length sols in
    let wired = Array.make nw sols.(0) in
    fill_wired config ~wire_rc ~child ~length sols wired nw;
    (wired, nw)
  end

(* Stage the buffered variants on top of the wired candidates and
   prune, producing one side of a dual-polarity frontier.  [wired] /
   [nw] is this side's wired set and [cross] / [ncross] the opposite
   side's: non-inverting types ([same_types]) preserve parity and
   buffer [wired]; inverting types ([flip_types]) flip parity and
   buffer [cross].  [buf_forms] is the edge's device template: one
   (cap form, delay form) pair per library type
   ({!Driver.buffer_forms}).

   Exhaustive generation replicates the historical order — wired
   candidates reversed, then one buffered variant per type for each
   drivable wired candidate (wired-major, library order), then the
   cross-polarity variants — so the stable sort keeps the same
   representative among exact duplicates.

   [convex] is the O(bn²) insert step (Li & Shi): every row buffered
   with one type shares that type's load form, so under a mean-exact
   rule the pruner orders a type's rows by buffered mean RAT
   (descending), then raw power (ascending), then staging position,
   and row d drops row r exactly when d sorts first and d's power
   bucket ({!Dominance.power_bucket}) is no higher than r's.  So only
   a row whose bucket lies strictly below the bucket of every
   same-type row sorting before it can survive: the type's
   (RAT, power) staircase.  Without a power axis every row shares one
   bucket and the staircase is the earliest maximiser of the buffered
   mean RAT.  Skipped rows all have a same-type dominator that sorts
   first, and dominance is transitive, so the pruned frontier, its
   order and every choice trail are those of exhaustive generation.
   The scan computes the buffered mean bit-exactly as the
   materialised candidate would (including [Linform.axpy]'s k = 0
   short-circuit) and the power as [insert_buffer] stores it.
   Power-aware sides sort their drivable rows by power once:
   adding a type's energy and bucketing are both monotone, so that
   one order groups every type's buckets.  Candidate counts reported
   by the response stats are post-prune, so the selection changes no
   output bytes; obs counts the staged rows after selection. *)
let insert_and_prune config ~power_eps ~convex ~energies ~same_types
    ~flip_types ~buf_forms ~child ~wired ~nw ~cross ~ncross =
  let arena = Arena.get () in
  let power = Option.is_some power_eps in
  let eps = Option.value power_eps ~default:0.0 in
  let drivable (s : Sol.t) =
    match config.load_limit with
    | None -> true
    | Some limit -> Sol.mean_load s <= limit
  in
  let count_drivable arr n =
    let c = ref 0 in
    for i = 0 to n - 1 do
      if drivable arr.(i) then incr c
    done;
    !c
  in
  let nd_same =
    if Array.length same_types = 0 then 0 else count_drivable wired nw
  in
  let nd_flip =
    if Array.length flip_types = 0 then 0 else count_drivable cross ncross
  in
  let per_same = if convex && not power then min nd_same 1 else nd_same in
  let per_flip = if convex && not power then min nd_flip 1 else nd_flip in
  let ncand =
    nw
    + (per_same * Array.length same_types)
    + (per_flip * Array.length flip_types)
  in
  if ncand = 0 then [||]
  else begin
    let dummy = if nw > 0 then wired.(0) else cross.(0) in
    let cand = Arena.stage_b arena ncand ~dummy in
    for i = 0 to nw - 1 do
      cand.(nw - 1 - i) <- wired.(i)
    done;
    let k = ref nw in
    let emit src i bi =
      let cb_form, tb_form = buf_forms.(bi) in
      let res = config.library.(bi).Device.Buffer.res_kohm in
      cand.(!k) <-
        insert_buffer ~node:child ~buffer_index:bi ~cb_form ~tb_form ~res
          ~energy:energies.(bi) src.(i);
      incr k
    in
    (if convex then begin
       (* [rows.(0 .. nd-1)]: the drivable rows of [src], by power when
          the power axis counts (the stable sort keeps index order
          among equal powers, and [pw] holds the raw powers only until
          the per-type loop overwrites them); then, per type, the
          buffered mean RAT and power of each row, and the type's
          staircase. *)
       let staircases src n types nd =
         if nd > 0 then begin
           let rows = Arena.perm arena nd in
           let j = ref 0 in
           for i = 0 to n - 1 do
             if drivable src.(i) then begin
               rows.(!j) <- i;
               incr j
             end
           done;
           let rat = Arena.rat_keys arena n and pw = Arena.power_keys arena n in
           if power then begin
             for r = 0 to nd - 1 do
               pw.(rows.(r)) <- src.(rows.(r)).Sol.power
             done;
             Arena.sort_prefix arena ~key:pw rows nd
           end;
           let kept = Arena.kept arena nd in
           Array.iter
             (fun bi ->
               let _, tb_form = buf_forms.(bi) in
               let neg_res = -.config.library.(bi).Device.Buffer.res_kohm in
               let tb_nom = Linform.mean tb_form in
               let energy = energies.(bi) in
               for r = 0 to nd - 1 do
                 let i = rows.(r) in
                 let s = src.(i) in
                 rat.(i) <-
                   (if neg_res = 0.0 then Sol.mean_rat s
                    else (neg_res *. Sol.mean_load s) +. Sol.mean_rat s)
                   -. tb_nom;
                 pw.(i) <- (if power then s.Sol.power +. energy else 0.0)
               done;
               let nkept =
                 Dominance.staircase ~eps ~order:rows ~n:nd ~rat ~power:pw
                   ~kept
               in
               for r = 0 to nkept - 1 do
                 emit src kept.(r) bi
               done)
             types
         end
       in
       staircases wired nw same_types nd_same;
       staircases cross ncross flip_types nd_flip
     end
     else begin
       for i = 0 to nw - 1 do
         if drivable wired.(i) then
           Array.iter (fun bi -> emit wired i bi) same_types
       done;
       for i = 0 to ncross - 1 do
         if drivable cross.(i) then
           Array.iter (fun bi -> emit cross i bi) flip_types
       done
     end);
    let out = Prune.prune_sub config.rule ?eps:power_eps cand !k in
    if Obs.Control.on () then
      Driver.count_types ~prefix:"dp" config.library ~child
        ~generated:(fun i -> cand.(i).Sol.choice)
        ~lo:nw ~hi:!k
        ~kept:(fun i -> out.(i).Sol.choice)
        ~nkept:(Array.length out);
    out
  end

(* Combine one parity of the two lifted child frontiers at a Steiner
   node: linear or cross-product merge plus a prune.  Neither operand
   is read after the merge, so both can be collected while the
   (larger) merged set is pruned.  Under [max_yield] a merge of at most
   one row passes through unpruned, so obs never counted it. *)
let merge_lifted config ~power_eps ~node ~check_time ~check_count a b =
  let merged =
    if Prune.is_linear config.rule then merge_linear ~node a b
    else
      merge_cross ~node
        ~check:(Driver.cross_check ~check_time ~check_count)
        a b
  in
  if Obs.Control.on () then Obs.Counters.incr obs_merged (Array.length merged);
  let n = Array.length merged in
  if n <= 1 && Option.is_none power_eps then merged
  else Prune.prune_sub config.rule ?eps:power_eps merged n

(* Root-frontier epilogue: load-limit gate, driver lift, objective
   scan, and result assembly. *)
let finish config ~t_start ~peak ~total ~n root_sols =
  let tech = config.tech in
  let load_limit_met, root_sols =
    Driver.within_load_limit config.load_limit ~mean_load:Sol.mean_load
      root_sols
  in
  let driver_rat (s : Sol.t) =
    Linform.axpy (-.tech.Device.Tech.driver_r) s.Sol.load s.Sol.rat
  in
  let score (s : Sol.t) =
    let q = driver_rat s in
    if Linform.is_deterministic q then Linform.mean q
    else Linform.percentile q (1.0 -. Dominance.root_yield)
  in
  let best =
    root_sols.(Dominance.pick config.power_objective
                 ~n:(Array.length root_sols)
                 ~score:(fun i -> score root_sols.(i))
                 ~power:(fun i -> root_sols.(i).Sol.power))
  in
  let root_rat = driver_rat best in
  let buffers, widths =
    Driver.assignment ~library:config.library ~wires:config.wires
      best.Sol.choice
  in
  Log.info (fun m ->
      m "done: %d nodes, peak %d candidates, %d buffers, RAT mean %.1f" n
        peak (List.length buffers) (Linform.mean root_rat));
  {
    root_rat;
    best;
    buffers;
    widths;
    load_limit_met;
    stats =
      {
        runtime_s = Unix.gettimeofday () -. t_start;
        peak_candidates = peak;
        total_candidates = total;
        nodes = n;
      };
  }

let run_tape ?pool ?grain config ~model (tape : Compile.Tape.t) =
  (* Wall-clock, not [Sys.time]: CPU time sums over domains, so it
     over-counts budgets and runtimes as soon as anything else runs in
     parallel with the DP. *)
  let t_start = Unix.gettimeofday () in
  (* The pruners' ε under a power-aware objective, [None] otherwise. *)
  let power_eps =
    if Dominance.power_aware config.power_objective then Some config.eps_power
    else None
  in
  if Option.is_some power_eps && not (Prune.is_linear config.rule) then
    invalid_arg "Engine.run_tape: the 4P rule takes no power-aware objective";
  let bound =
    Driver.bind ~model ~library:config.library ~wires:config.wires tape
  in
  let same_types, flip_types = Device.Buffer.partition_indices config.library in
  let has_inv = Array.length flip_types > 0 in
  let convex = use_convex config in
  let energies = energies_of config in
  (* Lift a child's candidate set through the edge above it: wire-only
     candidates plus one buffered variant per library type, staged in
     the domain's arena buffers — only the pruned frontier is a fresh
     allocation. *)
  let lift ~child ~edge ~length (f : Sol.t Driver.polar) =
    let obs = Obs.Control.on () in
    let t0 = if obs then Obs.Span.now_ns () else 0 in
    let wire_rc = Driver.wire_forms bound edge in
    let wired, nw = stage_wired config ~wire_rc ~child ~length f.ev in
    let cross, ncross = stage_wired_plain config ~wire_rc ~child ~length f.od in
    let buf_forms = Driver.buffer_forms bound edge in
    (* The even side's wired set lives in the arena's stage_a, the odd
       side's in a plain array, so both survive the two insert/prune
       passes (each borrows stage_b for its candidates and copies the
       pruned frontier out before the other starts). *)
    let ev =
      insert_and_prune config ~power_eps ~convex ~energies ~same_types
        ~flip_types ~buf_forms ~child ~wired ~nw ~cross ~ncross
    in
    let od =
      if (not has_inv) && ncross = 0 then [||]
      else
        insert_and_prune config ~power_eps ~convex ~energies ~same_types
          ~flip_types ~buf_forms ~child ~wired:cross ~nw:ncross ~cross:wired
          ~ncross:nw
    in
    if obs then Obs.Span.record ~name:"lift" ~cat:"dp" ~t0_ns:t0;
    { Driver.ev; od }
  in
  let out =
    Driver.run ?pool ?grain ~budget:config.budget ~t_start
      {
        Driver.sink = Sol.of_sink;
        lift;
        merge = merge_lifted config ~power_eps;
        nodes = obs_nodes;
        cat = "dp";
      }
      tape
  in
  finish config ~t_start ~peak:out.Driver.peak ~total:out.Driver.total
    ~n:tape.Compile.Tape.n out.Driver.root

let run ?pool ?grain config ~model tree =
  run_tape ?pool ?grain config ~model (Compile.Tape.compile tree)
