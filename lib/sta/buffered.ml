type t = {
  tree : Rctree.Tree.t;
  tech : Device.Tech.t;
  assignment : Device.Buffer.t option array; (* indexed by node id *)
  wires : Device.Wire_lib.t array;           (* per node: wire above it *)
  count : int;
}

let make ~tech ?(widths = []) tree buffers =
  let n = Rctree.Tree.node_count tree in
  let assignment = Array.make n None in
  let check_node node =
    if node < 0 || node >= n then
      invalid_arg "Buffered.make: node id out of range";
    if node = Rctree.Tree.root tree then
      invalid_arg "Buffered.make: the root has no wire above it"
  in
  List.iter
    (fun (node, b) ->
      check_node node;
      if assignment.(node) <> None then
        invalid_arg "Buffered.make: duplicate assignment";
      assignment.(node) <- Some b)
    buffers;
  let min_width = Device.Wire_lib.of_tech tech in
  let wires = Array.make n min_width in
  let seen_width = Array.make n false in
  List.iter
    (fun (node, w) ->
      check_node node;
      if seen_width.(node) then invalid_arg "Buffered.make: duplicate assignment";
      seen_width.(node) <- true;
      wires.(node) <- w)
    widths;
  { tree; tech; assignment; wires; count = List.length buffers }

let tree b = b.tree
let buffer_count b = b.count
let buffer_at b node = b.assignment.(node)

type buffer_forms = {
  cb : Linform.t;
  tb : Linform.t;
  res : float;
}

type instance = {
  buffered : t;
  forms : buffer_forms option array;
  (* Per-edge (r/µm, c/µm) forms when the model carries CMP wire
     variation; [None] means the nominal width parameters apply. *)
  wire_forms : (Linform.t * Linform.t) option array;
}

let instantiate ~model b =
  let forms =
    Array.mapi
      (fun node assigned ->
        Option.map
          (fun (buf : Device.Buffer.t) ->
            (* The buffer sits at the upstream end of the edge: use the
               parent's location for its spatial terms, matching the
               engine's convention. *)
            let x, y =
              match Rctree.Tree.parent b.tree node with
              | Some p -> Rctree.Tree.position b.tree p
              | None -> Rctree.Tree.position b.tree node
            in
            let device_id = Varmodel.Model.fresh_device_id model in
            let site = Varmodel.Model.site model ~x ~y in
            {
              cb =
                Varmodel.Model.site_device_form model site ~device_id
                  ~nominal:buf.Device.Buffer.cap_ff;
              tb =
                Varmodel.Model.site_device_form model site ~device_id
                  ~nominal:buf.Device.Buffer.delay_ps;
              res = buf.Device.Buffer.res_kohm;
            })
          assigned)
      b.assignment
  in
  let wire_forms =
    if Varmodel.Model.wire_frac model = 0.0 then
      Array.make (Rctree.Tree.node_count b.tree) None
    else
      Array.init (Rctree.Tree.node_count b.tree) (fun node ->
          match Rctree.Tree.parent b.tree node with
          | None -> None
          | Some p ->
            let px, py = Rctree.Tree.position b.tree p in
            let cx, cy = Rctree.Tree.position b.tree node in
            let edge_id = Varmodel.Model.fresh_device_id model in
            let wire = b.wires.(node) in
            Some
              (Varmodel.Model.wire_forms model ~edge_id
                 ~x:(0.5 *. (px +. cx))
                 ~y:(0.5 *. (py +. cy))
                 ~r0:wire.Device.Wire_lib.res_per_um
                 ~c0:wire.Device.Wire_lib.cap_per_um))
  in
  { buffered = b; forms; wire_forms }

let canonical_rat inst =
  let b = inst.buffered in
  let tech = b.tech in
  let lift child (load, rat) =
    let length = Rctree.Tree.wire_to b.tree child in
    let wire = b.wires.(child) in
    let load', rat' =
      match inst.wire_forms.(child) with
      | None ->
        let r = wire.Device.Wire_lib.res_per_um *. length in
        ( Linform.shift (Device.Wire_lib.wire_cap wire ~length) load,
          Linform.axpy_shift (-.r) load rat
            (-.(0.5 *. r *. wire.Device.Wire_lib.cap_per_um *. length)) )
      | Some (r_form, c_form) ->
        let r_l = Linform.scale length r_form in
        ( Linform.add load (Linform.scale length c_form),
          Linform.sub rat (Linform.mul_first_order r_l load)
          |> fun rat ->
          Linform.sub rat
            (Linform.scale (0.5 *. length) (Linform.mul_first_order r_l c_form)) )
    in
    match inst.forms.(child) with
    | None -> (load', rat')
    | Some f ->
      let rat'' = Linform.sub (Linform.axpy (-.f.res) load' rat') f.tb in
      (f.cb, rat'')
  in
  let load, rat =
    Rctree.Tree.fold_postorder b.tree ~f:(fun id kids ->
        match Rctree.Tree.sink b.tree id with
        | Some s ->
          (Linform.const s.Rctree.Tree.sink_cap, Linform.const s.Rctree.Tree.sink_rat)
        | None -> (
          let lifted =
            List.map2
              (fun (child, _) v -> lift child v)
              (Rctree.Tree.children b.tree id)
              kids
          in
          match lifted with
          | [ only ] -> only
          | [ (l1, t1); (l2, t2) ] -> (Linform.add l1 l2, Linform.stat_min t1 t2)
          | _ -> assert false))
  in
  Linform.axpy (-.tech.Device.Tech.driver_r) load rat

let sample_rat inst ~lookup =
  let b = inst.buffered in
  let tech = b.tech in
  let lift child (load, rat) =
    let length = Rctree.Tree.wire_to b.tree child in
    let wire = b.wires.(child) in
    let r_per_um, c_per_um =
      match inst.wire_forms.(child) with
      | None -> (wire.Device.Wire_lib.res_per_um, wire.Device.Wire_lib.cap_per_um)
      | Some (r_form, c_form) -> (Linform.eval r_form lookup, Linform.eval c_form lookup)
    in
    let load' = load +. (c_per_um *. length) in
    let r = r_per_um *. length in
    let rat' = rat -. ((r *. load) +. (0.5 *. r *. c_per_um *. length)) in
    match inst.forms.(child) with
    | None -> (load', rat')
    | Some f ->
      let cb = Linform.eval f.cb lookup in
      let tb = Linform.eval f.tb lookup in
      (cb, rat' -. tb -. (f.res *. load'))
  in
  let load, rat =
    Rctree.Tree.fold_postorder b.tree ~f:(fun id kids ->
        match Rctree.Tree.sink b.tree id with
        | Some s -> (s.Rctree.Tree.sink_cap, s.Rctree.Tree.sink_rat)
        | None -> (
          let lifted =
            List.map2
              (fun (child, _) v -> lift child v)
              (Rctree.Tree.children b.tree id)
              kids
          in
          match lifted with
          | [ only ] -> only
          | [ (l1, t1); (l2, t2) ] -> (l1 +. l2, Float.min t1 t2)
          | _ -> assert false))
  in
  rat -. (tech.Device.Tech.driver_r *. load)

let instance_source inst = inst.buffered
let tech b = b.tech
let wire_above b node = b.wires.(node)

let forms_at inst node =
  Option.map (fun f -> (f.cb, f.tb, f.res)) inst.forms.(node)

let wire_forms_at inst node = inst.wire_forms.(node)

(* Trials are sampled in fixed chunks, each from its own RNG stream
   keyed by chunk index ([Rng.split_at]).  The chunk size is a
   constant — never derived from the job count — so the sample stream
   of trial [i] depends only on the seed, and sequential and parallel
   runs at any job count are bit-identical. *)
let mc_chunk_trials = 64

let mc_trial inst rng =
  let drawn : (int, float) Hashtbl.t = Hashtbl.create 64 in
  let lookup id =
    match Hashtbl.find_opt drawn id with
    | Some v -> v
    | None ->
      let v = Numeric.Rng.gaussian rng in
      Hashtbl.add drawn id v;
      v
  in
  sample_rat inst ~lookup

let monte_carlo ?pool ?(check = ignore) inst ~rng ~trials =
  if trials <= 0 then invalid_arg "Buffered.monte_carlo: trials must be > 0";
  let chunks = (trials + mc_chunk_trials - 1) / mc_chunk_trials in
  let sample_chunk c =
    check ();
    (* [split_at] never advances [rng], so a chunk's stream depends on
       its index alone: derived here, after the chunk's deadline check,
       on whichever domain runs it. *)
    let stream = Numeric.Rng.split_at rng c in
    let lo = c * mc_chunk_trials in
    let len = min mc_chunk_trials (trials - lo) in
    let out = Array.make len 0.0 in
    (* Explicit in-order loop: trials within a chunk share its stream. *)
    for i = 0 to len - 1 do
      out.(i) <- mc_trial inst stream
    done;
    out
  in
  let sampled =
    match pool with
    | Some pool when Exec.Pool.jobs pool > 1 ->
      Exec.Pool.parallel_init pool chunks ~f:sample_chunk
    | _ ->
      let out = Array.make chunks [||] in
      for c = 0 to chunks - 1 do
        out.(c) <- sample_chunk c
      done;
      out
  in
  Array.concat (Array.to_list sampled)
