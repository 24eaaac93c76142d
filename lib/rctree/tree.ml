type sink = {
  sink_cap : float;
  sink_rat : float;
  sink_name : string;
}

type spec =
  | Leaf of { x : float; y : float; sink : sink }
  | Node of { x : float; y : float; children : (spec * float option) list }

type node = {
  x : float;
  y : float;
  payload : sink option;
  kids : (int * float) list; (* child id, wire length to that child *)
  up : int;                  (* parent id; -1 for the root *)
  wire_up : float;           (* length of the wire from the parent; 0 for root *)
}

type t = {
  nodes : node array;
  sinks : int;
  wirelength : float;
  post : int array; (* postorder ids, children before parents *)
}

let manhattan (x0, y0) (x1, y1) = Float.abs (x1 -. x0) +. Float.abs (y1 -. y0)

let of_spec spec =
  (* First pass: count nodes and validate arities. *)
  let rec count = function
    | Leaf _ -> 1
    | Node { children; _ } ->
      List.fold_left (fun acc (c, _) -> acc + count c) 1 children
  in
  let n = count spec in
  let nodes =
    Array.make n
      { x = 0.0; y = 0.0; payload = None; kids = []; up = -1; wire_up = 0.0 }
  in
  let next = ref 0 in
  let sinks = ref 0 in
  let wirelength = ref 0.0 in
  let fresh () =
    let id = !next in
    incr next;
    id
  in
  let rec build spec ~up ~wire_up =
    let id = fresh () in
    (match spec with
    | Leaf { x; y; _ } | Node { x; y; _ } ->
      if not (Float.is_finite x && Float.is_finite y) then
        invalid_arg "Tree.of_spec: node coordinates must be finite");
    (match spec with
    | Leaf { x; y; sink } ->
      if not (Float.is_finite sink.sink_cap && sink.sink_cap >= 0.0) then
        invalid_arg "Tree.of_spec: a sink capacitance must be finite and >= 0";
      if not (Float.is_finite sink.sink_rat) then
        invalid_arg "Tree.of_spec: a sink RAT must be finite";
      incr sinks;
      nodes.(id) <- { x; y; payload = Some sink; kids = []; up; wire_up }
    | Node { x; y; children } ->
      let arity = List.length children in
      if up = -1 && arity <> 1 then
        invalid_arg "Tree.of_spec: the root must have exactly one child";
      if up <> -1 && (arity < 1 || arity > 2) then
        invalid_arg "Tree.of_spec: internal nodes must have 1 or 2 children";
      let kids =
        List.map
          (fun (child, explicit) ->
            let cx, cy =
              match child with
              | Leaf { x; y; _ } | Node { x; y; _ } -> (x, y)
            in
            let length =
              match explicit with
              | Some l ->
                if l < 0.0 then
                  invalid_arg "Tree.of_spec: negative wire length";
                if not (Float.is_finite l) then
                  invalid_arg "Tree.of_spec: non-finite wire length";
                l
              | None -> manhattan (x, y) (cx, cy)
            in
            wirelength := !wirelength +. length;
            let cid = build child ~up:id ~wire_up:length in
            (cid, length))
          children
      in
      nodes.(id) <- { x; y; payload = None; kids; up; wire_up });
    id
  in
  let root = build spec ~up:(-1) ~wire_up:0.0 in
  assert (root = 0 && !next = n);
  (* Postorder: iterative DFS emitting children before parents. *)
  let post = Array.make n 0 in
  let slot = ref (n - 1) in
  let stack = Stack.create () in
  Stack.push root stack;
  while not (Stack.is_empty stack) do
    let id = Stack.pop stack in
    post.(!slot) <- id;
    decr slot;
    List.iter (fun (c, _) -> Stack.push c stack) nodes.(id).kids
  done;
  { nodes; sinks = !sinks; wirelength = !wirelength; post }

let root _ = 0
let node_count t = Array.length t.nodes
let sink_count t = t.sinks
let edge_count t = node_count t - 1
let children t id = t.nodes.(id).kids
let parent t id = if t.nodes.(id).up < 0 then None else Some t.nodes.(id).up

let wire_to t id =
  if t.nodes.(id).up < 0 then invalid_arg "Tree.wire_to: the root has no wire"
  else t.nodes.(id).wire_up

let position t id =
  let n = t.nodes.(id) in
  (n.x, n.y)

let sink t id = t.nodes.(id).payload
let is_sink t id = t.nodes.(id).payload <> None
let total_wirelength t = t.wirelength
let postorder t = Array.copy t.post

let iter_edges t f =
  Array.iteri
    (fun id node ->
      List.iter (fun (c, length) -> f ~parent:id ~child:c ~length) node.kids)
    t.nodes

let fold_postorder t ~f =
  let results = Array.make (node_count t) None in
  Array.iter
    (fun id ->
      let kid_values =
        List.map
          (fun (c, _) ->
            match results.(c) with
            | Some v -> v
            | None -> assert false)
          t.nodes.(id).kids
      in
      results.(id) <- Some (f id kid_values))
    t.post;
  match results.(0) with Some v -> v | None -> assert false

let pp_stats ppf t =
  Format.fprintf ppf "%d sinks, %d buffer positions, %.0f um wire"
    (sink_count t) (edge_count t) (total_wirelength t)
