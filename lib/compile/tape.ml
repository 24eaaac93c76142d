(* Flatten an RC tree into postorder arrays.

   Everything the DP needs from the topology — the execution order,
   child links, subtree sizes, per-edge buffer sites, wire lengths and
   midpoints — is a pure function of the tree, so a net that is solved
   repeatedly (the serve path sees the same nets over and over) can pay
   for it once.  Edges are numbered in the order of a sequential
   postorder over parent nodes, child edges in list order; an engine
   binds a tape to a concrete variation model by consuming fresh device
   ids in that edge order, so the bytes never depend on scheduling.

   The tape is model-independent on purpose: one compiled tape serves
   every rule (det/1P/2P/4P/[6]) and the sampling engine, and can be
   cached across requests keyed by a digest of the topology alone. *)

type t = {
  n : int;  (** node count *)
  edges : int;  (** edge count = n - 1 *)
  post : int array;  (** sequential execution order (postorder) *)
  left : int array;  (** node id -> first child, -1 for sinks *)
  right : int array;  (** node id -> second child, -1 below merges *)
  size : int array;  (** node id -> subtree node count *)
  edge_above : int array;  (** node id -> edge to its parent, -1 at the root *)
  sink_cap : float array;  (** node id -> sink pin cap, fF (0 off sinks) *)
  sink_rat : float array;  (** node id -> sink RAT, ps (0 off sinks) *)
  edge_site : int array;  (** edge -> buffer site = parent node id *)
  edge_length : float array;  (** edge -> wire length, µm *)
  edge_mid_x : float array;  (** edge -> midpoint, µm *)
  edge_mid_y : float array;
  x : float array;  (** node id -> position, µm *)
  y : float array;
}

let node_count t = t.n
let edge_count t = t.edges
let root t = t.post.(t.n - 1)

let obs_compiled = Obs.Counters.counter Obs.Counters.global "tape.compiled"
let obs_compile_ns = Obs.Counters.counter Obs.Counters.global "tape.compile_ns"

let compile tree =
  let obs = Obs.Control.on () in
  let t0 = if obs then Obs.Span.now_ns () else 0 in
  let n = Rctree.Tree.node_count tree in
  let post = Rctree.Tree.postorder tree in
  let edges = Rctree.Tree.edge_count tree in
  let left = Array.make n (-1) and right = Array.make n (-1) in
  let size = Array.make n 1 in
  let edge_above = Array.make n (-1) in
  let sink_cap = Array.make n 0.0 and sink_rat = Array.make n 0.0 in
  let edge_site = Array.make edges (-1) in
  let edge_length = Array.make edges 0.0 in
  let edge_mid_x = Array.make edges 0.0 in
  let edge_mid_y = Array.make edges 0.0 in
  let x = Array.make n 0.0 and y = Array.make n 0.0 in
  let next_edge = ref 0 in
  Array.iter
    (fun id ->
      (* Postorder: every child's position is already set. *)
      let px, py = Rctree.Tree.position tree id in
      x.(id) <- px;
      y.(id) <- py;
      match Rctree.Tree.sink tree id with
      | Some s ->
        sink_cap.(id) <- s.Rctree.Tree.sink_cap;
        sink_rat.(id) <- s.Rctree.Tree.sink_rat
      | None -> (
        let kids = Rctree.Tree.children tree id in
        List.iter
          (fun (child, length) ->
            let e = !next_edge in
            incr next_edge;
            edge_above.(child) <- e;
            edge_site.(e) <- id;
            edge_length.(e) <- length;
            edge_mid_x.(e) <- 0.5 *. (x.(id) +. x.(child));
            edge_mid_y.(e) <- 0.5 *. (y.(id) +. y.(child));
            size.(id) <- size.(id) + size.(child))
          kids;
        match kids with
        | [ (c, _) ] -> left.(id) <- c
        | [ (a, _); (b, _) ] ->
          left.(id) <- a;
          right.(id) <- b
        | _ -> invalid_arg "Tape.compile: node with unsupported arity"))
    post;
  assert (!next_edge = edges);
  let tape =
    {
      n;
      edges;
      post;
      left;
      right;
      size;
      edge_above;
      sink_cap;
      sink_rat;
      edge_site;
      edge_length;
      edge_mid_x;
      edge_mid_y;
      x;
      y;
    }
  in
  if obs then begin
    let t1 = Obs.Span.now_ns () in
    Obs.Counters.incr obs_compiled 1;
    Obs.Counters.incr obs_compile_ns (t1 - t0);
    Obs.Span.record ~name:"tape.compile" ~cat:"tape" ~t0_ns:t0
  end;
  tape
