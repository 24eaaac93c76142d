(* The one DP driver.  Every engine runs the same van Ginneken skeleton
   over a compiled tape — seed each sink, lift each child frontier
   through the edge above it, merge at Steiner nodes — and differs only
   in its candidate type and kernels.  The driver owns what is common:
   the dual-polarity frontier, budgets, per-node bookkeeping, frontier
   storage, scheduling, the device-id binding the model-based engines
   share, and the per-type tally, root load gate and choice read-back
   around the kernels. *)

type budget = {
  max_candidates : int option;
  max_seconds : float option;
}

let no_budget = { max_candidates = None; max_seconds = None }

exception Budget_exceeded of string

let default_grain = 64

let log_src = Logs.Src.create "varbuf.driver" ~doc:"DP driver"

module Log = (val Logs.src_log log_src : Logs.LOG)

let check_time budget ~t_start =
  match budget.max_seconds with
  | Some limit when Unix.gettimeofday () -. t_start > limit ->
    raise (Budget_exceeded (Printf.sprintf "time limit %.1fs exceeded" limit))
  | _ -> ()

(* The label ("node 7", "edge above node 3", ...) is formatted only
   when the check trips. *)
let check_count budget ~at id n =
  match budget.max_candidates with
  | Some limit when n > limit ->
    raise
      (Budget_exceeded
         (Printf.sprintf "candidate limit %d exceeded at %s %d (%d)" limit at id
            n))
  | _ -> ()

let cross_check ~check_time ~check_count c =
  check_count c;
  (* A cross product is quadratic: without a deadline check inside the
     candidate loop, one pathological merge can overshoot a serve
     deadline by its whole runtime. *)
  if c land 1023 = 0 then check_time ()

(* ------------------------------------------------------------------ *)
(* Device-id binding.                                                  *)
(* ------------------------------------------------------------------ *)

type binding = {
  model : Varmodel.Model.t;
  tape : Compile.Tape.t;
  library : Device.Buffer.t array;
  wires : Device.Wire_lib.t array;
  wire_variation : bool;
  device_base : int array;
  sources : int;
  sites : Varmodel.Model.site option array;
}

(* The model hands out variation source ids from a mutable counter and
   the output bytes depend on them, so consuming them inside the DP
   would make results depend on task scheduling.  Instead every edge's
   ids are taken up front in tape edge order: one wire CMP id when wire
   variation is on, then one id per library buffer.  Only the ids are
   consumed here; the forms they feed are pure in (model, ids,
   coordinates) and are built when the edge is lifted, so a form is
   used right after it is built. *)
let bind ~model ~library ~wires (tape : Compile.Tape.t) =
  let wire_variation = Varmodel.Model.wire_frac model > 0.0 in
  let ids_per_edge = (if wire_variation then 1 else 0) + Array.length library in
  let edges = tape.Compile.Tape.edges in
  let device_base = Array.make edges (-1) in
  for e = 0 to edges - 1 do
    device_base.(e) <- Varmodel.Model.fresh_device_id model;
    for _ = 2 to ids_per_edge do
      ignore (Varmodel.Model.fresh_device_id model)
    done
  done;
  let sources =
    if edges = 0 then Varmodel.Grid.regions (Varmodel.Model.grid model) + 1
    else device_base.(edges - 1) + ids_per_edge
  in
  {
    model;
    tape;
    library;
    wires;
    wire_variation;
    device_base;
    sources;
    sites = Array.make tape.Compile.Tape.n None;
  }

let sources b = b.sources

(* An edge's site is its parent node, and only the task computing that
   node lifts the edge, so the plain cache is race-free under the
   scheduler.  The location-dependent part of a device form (spatial
   weights, heterogeneity ramp) is computed once per node and shared by
   every edge hanging under it. *)
let site b id =
  match b.sites.(id) with
  | Some s -> s
  | None ->
    let s =
      Varmodel.Model.site b.model ~x:b.tape.Compile.Tape.x.(id)
        ~y:b.tape.Compile.Tape.y.(id)
    in
    b.sites.(id) <- Some s;
    s

let wire_forms b e =
  if not b.wire_variation then [||]
  else begin
    (* One CMP source per physical edge, shared by all widths. *)
    let edge_id = b.device_base.(e) in
    let x = b.tape.Compile.Tape.edge_mid_x.(e) in
    let y = b.tape.Compile.Tape.edge_mid_y.(e) in
    Array.map
      (fun wire ->
        Varmodel.Model.wire_forms b.model ~edge_id ~x ~y
          ~r0:wire.Device.Wire_lib.res_per_um
          ~c0:wire.Device.Wire_lib.cap_per_um)
      b.wires
  end

(* The same physical device serves every candidate buffered at this
   edge's site, so all of them share its variation sources. *)
let buffer_forms b e =
  let psite = site b b.tape.Compile.Tape.edge_site.(e) in
  let base = b.device_base.(e) + if b.wire_variation then 1 else 0 in
  Array.mapi
    (fun bi (buf : Device.Buffer.t) ->
      let device_id = base + bi in
      let cap =
        Varmodel.Model.site_device_form b.model psite ~device_id
          ~nominal:buf.Device.Buffer.cap_ff
      in
      let delay =
        Varmodel.Model.site_device_form b.model psite ~device_id
          ~nominal:buf.Device.Buffer.delay_ps
      in
      (cap, delay))
    b.library

(* ------------------------------------------------------------------ *)
(* The DP.                                                             *)
(* ------------------------------------------------------------------ *)

type 's polar = { ev : 's array; od : 's array }

type 's steps = {
  sink : node:int -> cap:float -> rat:float -> 's;
  lift : child:int -> edge:int -> length:float -> 's polar -> 's polar;
  merge :
    node:int ->
    check_time:(unit -> unit) ->
    check_count:(int -> unit) ->
    's array ->
    's array ->
    's array;
  nodes : Obs.Counters.counter;
  cat : string;
}

type 's outcome = { root : 's array; peak : int; total : int }

let size f = Array.length f.ev + Array.length f.od

(* Even with even, odd with odd: a merged candidate must deliver the
   same parity to both subtrees, so cross-parity combinations are
   ill-typed and never generated.  The odd merge is skipped (not run
   on empties) when both odd sides are empty, so an inverter-free run
   makes exactly the single-frontier calls.  The sides are unpacked
   before the first merge and each operand is passed on, not kept:
   a merge that has combined its operands can let both lifted child
   frontiers be collected while it prunes. *)
let merge_polar steps ~node ~check_time ~check_count a b =
  let { ev = a_ev; od = a_od } = a and { ev = b_ev; od = b_od } = b in
  let ev = steps.merge ~node ~check_time ~check_count a_ev b_ev in
  let od =
    if Array.length a_od = 0 && Array.length b_od = 0 then [||]
    else steps.merge ~node ~check_time ~check_count a_od b_od
  in
  { ev; od }

let run ?pool ?(grain = default_grain) ~budget ~t_start steps
    (tape : Compile.Tape.t) =
  let open Compile.Tape in
  let n = tape.n in
  let check_time () = check_time budget ~t_start in
  let frontiers = Array.make n None in
  (* Atomics, not refs: subtree tasks on different domains bump them
     concurrently.  Max and sum commute, so the reported stats are
     identical at any job count. *)
  let peak = Atomic.make 0 and total = Atomic.make 0 in
  (* A consumed child frontier is cleared at once, so it can be
     collected while its parent's candidates are built. *)
  let lift child =
    let f = Option.get frontiers.(child) in
    frontiers.(child) <- None;
    let e = tape.edge_above.(child) in
    let l = steps.lift ~child ~edge:e ~length:tape.edge_length.(e) f in
    check_count budget ~at:"edge above node" child (size l);
    l
  in
  let frontier id =
    let l = tape.left.(id) and r = tape.right.(id) in
    if l < 0 then
      let s =
        steps.sink ~node:id ~cap:tape.sink_cap.(id) ~rat:tape.sink_rat.(id)
      in
      { ev = [| s |]; od = [||] }
    else begin
      let a = lift l in
      if r < 0 then a
      else begin
        let b = lift r in
        merge_polar steps ~node:id ~check_time
          ~check_count:(check_count budget ~at:"merge at node" id)
          a b
      end
    end
  in
  let compute id =
    check_time ();
    let obs = Obs.Control.on () in
    let t0 = if obs then Obs.Span.now_ns () else 0 in
    let front = frontier id in
    if obs then begin
      Obs.Counters.incr steps.nodes 1;
      Obs.Span.record ~name:"node" ~cat:steps.cat ~t0_ns:t0
    end;
    let len = size front in
    check_count budget ~at:"node" id len;
    let rec bump_peak () =
      let cur = Atomic.get peak in
      if len > cur && not (Atomic.compare_and_set peak cur len) then
        bump_peak ()
    in
    bump_peak ();
    ignore (Atomic.fetch_and_add total len);
    Log.debug (fun m -> m "node %d: %d candidates kept" id len);
    frontiers.(id) <- Some front
  in
  (match pool with
  | Some pool when Exec.Pool.jobs pool > 1 && n > max 1 grain ->
    (* Task-parallel subtree DP.  Nodes whose subtree exceeds the grain
       become tasks; each task first runs its small child subtrees
       inline (sequential postorder), then its own node, and the
       dependency-counted release in [Exec.Pool.run_graph] starts a
       merge node's task only once all its subtree tasks finished.
       Merges keep the fixed child order, so the frontier bytes do not
       depend on which domain ran what when.  size(root) = n > grain,
       so the root is always a task. *)
    let grain = max 1 grain in
    let task_ids =
      List.filter (fun id -> tape.size.(id) > grain) (Array.to_list tape.post)
      |> Array.of_list
    in
    let task_index = Array.make n (-1) in
    Array.iteri (fun ti id -> task_index.(id) <- ti) task_ids;
    let kids id =
      List.filter (fun c -> c >= 0) [ tape.left.(id); tape.right.(id) ]
    in
    let deps =
      Array.map
        (fun id ->
          List.filter_map
            (fun c -> if task_index.(c) >= 0 then Some task_index.(c) else None)
            (kids id)
          |> Array.of_list)
        task_ids
    in
    let rec inline_subtree id =
      List.iter inline_subtree (kids id);
      compute id
    in
    Exec.Pool.run_graph pool ~deps ~run:(fun ti ->
        let id = task_ids.(ti) in
        List.iter
          (fun c -> if task_index.(c) < 0 then inline_subtree c)
          (kids id);
        compute id)
  | _ -> Array.iter compute tape.post);
  if Obs.Control.on () then Obs.Span.flush ();
  {
    root = (Option.get frontiers.(root tape)).ev;
    peak = Atomic.get peak;
    total = Atomic.get total;
  }

(* ------------------------------------------------------------------ *)
(* Around the kernels.                                                 *)
(* ------------------------------------------------------------------ *)

(* The counter names derive from the library, so handles cannot be
   resolved at module initialisation; the cold registry lookup hides
   behind the caller's obs gate. *)
let count_types ~prefix library ~child ~generated ~lo ~hi ~kept ~nkept =
  let nlib = Array.length library in
  let gen = Array.make nlib 0 and kep = Array.make nlib 0 in
  for i = lo to hi - 1 do
    match generated i with
    | Sol.Buffered { buffer; _ } -> gen.(buffer) <- gen.(buffer) + 1
    | _ -> ()
  done;
  for i = 0 to nkept - 1 do
    match kept i with
    | Sol.Buffered { node; buffer; _ } when node = child ->
      kep.(buffer) <- kep.(buffer) + 1
    | _ -> ()
  done;
  Array.iteri
    (fun bi (b : Device.Buffer.t) ->
      let add what n =
        if n > 0 then
          Obs.Counters.add Obs.Counters.global
            (prefix ^ ".type." ^ b.Device.Buffer.name ^ what)
            n
      in
      add ".generated" gen.(bi);
      add ".kept" kep.(bi))
    library

(* The driver is a gate too: the root keeps the candidates it can
   drive within the limit, falling back to the unconstrained set when
   nothing complies. *)
let within_load_limit limit ~mean_load root =
  match limit with
  | None -> (true, root)
  | Some limit -> (
    match List.filter (fun s -> mean_load s <= limit) (Array.to_list root) with
    | [] -> (false, root)
    | compliant -> (true, Array.of_list compliant))

let assignment ~library ~wires choice =
  let read lib = List.map (fun (node, i) -> (node, lib.(i))) in
  ( read library (Sol.buffers_of_choice choice),
    read wires (Sol.widths_of_choice choice) )
