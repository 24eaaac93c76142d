module Wire = Serve.Wire
module Protocol = Serve.Protocol
module Codec_bin = Serve.Codec_bin
module Metrics = Serve.Metrics
module Front = Serve.Front

type config = {
  socket_path : string;
  tcp_port : int option;
  shard_sockets : string array;
  conns_per_shard : int;
  queue_depth : int;
  max_payload : int;
  cache_entries : int;
}

let default_config ~socket_path ~shard_sockets =
  {
    socket_path;
    tcp_port = None;
    shard_sockets;
    conns_per_shard = 4;
    queue_depth = 64;
    max_payload = 8 * 1024 * 1024;
    cache_entries = 128;
  }

let reconnect_interval = 0.25

(* The first redial delay after a failed connect; it doubles per
   failure up to [reconnect_interval]. *)
let first_redial = 0.01

(* The longest [select] wait: how often drain deadlines and [on_tick]
   are looked at when nothing else happens. *)
let tick = 0.2

(* How long a drain may take before queued work is failed, and how long
   we wait for workers to close their sockets after [shutdown]. *)
let drain_budget = 30.0
let worker_stop_budget = 5.0

(* The first four bytes of a {!Codec_bin.request_key} (its digest's)
   as a non-negative int. *)
let shard_of_key ~shards key =
  let b i = Char.code key.[i] in
  let v = (b 0 lsl 24) lor (b 1 lsl 16) lor (b 2 lsl 8) lor b 3 in
  v mod shards

let shard_of_request ~shards payload =
  shard_of_key ~shards (Codec_bin.request_key payload)

(* One admitted request: the caller to answer and the payload to
   forward, as the client sent it. *)
type pending = {
  p_caller : Front.caller;
  p_payload : string;
  p_enqueued : float;
}

(* A router→worker connection.  At most one request is outstanding per
   link ([l_busy]), so the worker's reply — which may be an [error]
   frame carrying no id — is unambiguously for that request. *)
type link = {
  l_fd : Unix.file_descr;
  l_dec : Wire.decoder;
  mutable l_ready : bool;  (* worker hello received and checked *)
  mutable l_alive : bool;
  mutable l_busy : pending option;
}

type shard = {
  s_addr : string;
  mutable s_links : link list;
  s_queue : pending Queue.t;
  mutable s_retry_at : float;  (* no dial before this time *)
  mutable s_backoff : float;  (* the wait after the next failed dial *)
  mutable s_stop_sent : bool;
}

let run ?metrics ?(should_stop = fun () -> false)
    ?(on_tick = fun ~draining:_ -> ()) config =
  let metrics = match metrics with Some m -> m | None -> Metrics.create () in
  let shards =
    Array.map
      (fun addr ->
        {
          s_addr = addr;
          s_links = [];
          s_queue = Queue.create ();
          s_retry_at = 0.0;
          s_backoff = first_redial;
          s_stop_sent = false;
        })
      config.shard_sockets
  in
  let n_shards = Array.length shards in
  if n_shards = 0 then invalid_arg "Router.run: no shards";
  (* Worker responses (big assignments) may exceed the client-request
     limit; give links generous headroom. *)
  let link_max_payload = max config.max_payload (64 * 1024 * 1024) in
  let front =
    Front.listen ~metrics
      {
        Front.socket_path = config.socket_path;
        tcp_port = config.tcp_port;
        max_payload = config.max_payload;
        cache_entries = config.cache_entries;
      }
  in
  let drain_deadline = ref infinity in
  let stop_deadline = ref None in
  let read_buf = Bytes.create 65536 in

  (* Answer [p] with a worker reply frame ([kind] is "response" or
     "error").  A response goes to the client verbatim, and into the
     front's cache; an error is decoded so the router's metrics count
     its code. *)
  let complete p ~kind ~payload =
    match kind with
    | "response" ->
      let latency_ms = (Unix.gettimeofday () -. p.p_enqueued) *. 1000.0 in
      Front.respond front p.p_caller ~latency_ms payload
    | _ ->
      let err =
        try Codec_bin.decode_error payload
        with Failure _ ->
          { Protocol.code = Protocol.err_internal;
            message = "undecodable worker error" }
      in
      Front.fail front p.p_caller err.Protocol.code err.Protocol.message
  in
  let fail p code message = Front.fail front p.p_caller code message in

  (* A failed dial: no new one for [s_backoff] seconds, which doubles
     up to [reconnect_interval] until a link comes up. *)
  let back_off s =
    s.s_retry_at <- Unix.gettimeofday () +. s.s_backoff;
    s.s_backoff <- Float.min reconnect_interval (2.0 *. s.s_backoff)
  in

  let kill_link s l =
    if l.l_alive then begin
      (* Lost before the worker's hello: that dial failed too. *)
      if not l.l_ready then back_off s;
      l.l_alive <- false;
      (try Unix.close l.l_fd with Unix.Unix_error _ -> ());
      (match l.l_busy with
      | Some p ->
        l.l_busy <- None;
        fail p Protocol.err_internal "worker connection lost"
      | None -> ());
      s.s_links <- List.filter (fun x -> x != l) s.s_links
    end
  in

  let free_link s =
    List.find_opt
      (fun l -> l.l_alive && l.l_ready && l.l_busy = None)
      s.s_links
  in
  let ready s = List.exists (fun l -> l.l_alive && l.l_ready) s.s_links in
  (* A busy link is always live and ready: [kill_link] clears it. *)
  let inflight s =
    List.length (List.filter (fun l -> l.l_busy <> None) s.s_links)
  in

  (* Move queued requests onto free links.  A write failure kills that
     link and requeues the request, so one pass makes progress until
     either the queue or the free links run out. *)
  let rec pump s =
    if not (Queue.is_empty s.s_queue) then
      match free_link s with
      | None -> ()
      | Some l ->
        let p = Queue.pop s.s_queue in
        if not (Front.alive p.p_caller) then pump s
        else begin
          (match Wire.write_frame l.l_fd ~kind:"request" p.p_payload with
          | () -> l.l_busy <- Some p
          | exception (Unix.Unix_error _ | Sys_error _) ->
            Queue.push p s.s_queue;
            kill_link s l);
          pump s
        end
  in

  let wants_links s =
    (not s.s_stop_sent) && List.length s.s_links < config.conns_per_shard
  in
  (* Open every missing link in one pass, unless backing off. *)
  let dial s =
    let rec go () =
      if wants_links s then begin
        let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
        match Unix.connect fd (Unix.ADDR_UNIX s.s_addr) with
        | () ->
          let l =
            {
              l_fd = fd;
              l_dec = Wire.decoder ~max_payload:link_max_payload ();
              l_ready = false;
              l_alive = true;
              l_busy = None;
            }
          in
          s.s_links <- s.s_links @ [ l ];
          go ()
        | exception Unix.Unix_error _ ->
          (try Unix.close fd with Unix.Unix_error _ -> ());
          back_off s
      end
    in
    if Unix.gettimeofday () >= s.s_retry_at then go ()
  in
  (* Sleep no longer than until the next due redial. *)
  let select_timeout () =
    if Front.draining front then tick
    else
      let now = Unix.gettimeofday () in
      Array.fold_left
        (fun t s ->
          if wants_links s then Float.min t (s.s_retry_at -. now) else t)
        tick shards
      |> Float.max 0.0
  in

  let handle_link_frame s l (f : Wire.frame) =
    match f.Wire.kind with
    | "hello" -> (
      match Protocol.check_hello f.Wire.payload with
      | () ->
        l.l_ready <- true;
        s.s_backoff <- first_redial
      | exception Failure _ -> kill_link s l)
    | "response" | "error" -> (
      match l.l_busy with
      | Some p ->
        l.l_busy <- None;
        complete p ~kind:f.Wire.kind ~payload:f.Wire.payload;
        pump s
      | None -> () (* late reply for a request we already failed *))
    | "ok" -> () (* shutdown acknowledgement *)
    | _ -> ()
  in

  let handle_link_readable s l =
    match Unix.read l.l_fd read_buf 0 (Bytes.length read_buf) with
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
    | exception Unix.Unix_error _ -> kill_link s l
    | 0 -> kill_link s l
    | n -> (
      Wire.feed l.l_dec read_buf n;
      let rec go () =
        match Wire.next l.l_dec with
        | None -> ()
        | Some (Wire.Oversized _) ->
          (* The reply outgrew even the link limit; the stream is still
             in sync but the answer is gone. *)
          (match l.l_busy with
          | Some p ->
            l.l_busy <- None;
            fail p Protocol.err_internal "worker reply exceeded size limit";
            pump s
          | None -> ());
          go ()
        | Some (Wire.Frame f) ->
          handle_link_frame s l f;
          if l.l_alive then go ()
      in
      try go () with Failure _ -> kill_link s l)
  in

  (* Requests sent to a shard other than their home. *)
  let spilled = ref 0 in
  (* The least-loaded shard with a ready link, a shard's load being its
     busy links plus its queue.  Ties go to [home], then to
     [(home + k) mod n] in order; with no ready link anywhere, home. *)
  let pick home =
    let best = ref home and best_load = ref max_int in
    for k = 0 to n_shards - 1 do
      let i = (home + k) mod n_shards in
      let load = inflight shards.(i) + Queue.length shards.(i).s_queue in
      if ready shards.(i) && load < !best_load then begin
        best := i;
        best_load := load
      end
    done;
    !best
  in

  (* The front has answered replays.  What is left is forwarded as the
     client sent it, to the shard [pick] chooses for its home.  Home
     comes from the key the front read for its cache, or from one read
     here when it keeps none: one head read and one digest either way,
     and no decode. *)
  let dispatch_request caller payload =
    match
      match Front.key caller with
      | Some key -> key
      | None -> Codec_bin.request_key payload
    with
    | exception Failure msg -> Front.fail front caller Protocol.err_parse msg
    | key ->
      let home = shard_of_key ~shards:n_shards key in
      let idx = pick home in
      let s = shards.(idx) in
      if Queue.length s.s_queue >= config.queue_depth then
        Front.fail front caller Protocol.err_busy
          (Printf.sprintf "shard %d queue full (depth %d)" idx
             config.queue_depth)
      else begin
        Front.admitted front;
        if idx <> home then incr spilled;
        Queue.push
          {
            p_caller = caller;
            p_payload = payload;
            p_enqueued = Unix.gettimeofday ();
          }
          s.s_queue;
        pump s
      end
  in

  let stats_lines () =
    let buf = Buffer.create 256 in
    Printf.bprintf buf "cluster_shards %d\n" n_shards;
    Printf.bprintf buf "cluster_spilled %d\n" !spilled;
    Array.iteri
      (fun i s ->
        let live = List.filter (fun l -> l.l_alive && l.l_ready) s.s_links in
        Printf.bprintf buf "cluster_shard_%d_links %d\n" i (List.length live);
        Printf.bprintf buf "cluster_shard_%d_inflight %d\n" i (inflight s);
        Printf.bprintf buf "cluster_shard_%d_queue %d\n" i
          (Queue.length s.s_queue))
      shards;
    Buffer.contents buf
  in

  let queues_idle () =
    Array.for_all
      (fun s ->
        Queue.is_empty s.s_queue
        && List.for_all (fun l -> l.l_busy = None) s.s_links)
      shards
  in
  let links_all_dead () =
    Array.for_all (fun s -> s.s_links = []) shards
  in

  (* Phase 2 of shutdown: every client request is answered; tell the
     workers to stop and wait (bounded) for them to close. *)
  let send_worker_stops () =
    Array.iter
      (fun s ->
        s.s_stop_sent <- true;
        match free_link s with
        | Some l -> (
          try Wire.write_frame l.l_fd ~kind:"shutdown" ""
          with Unix.Unix_error _ | Sys_error _ -> kill_link s l)
        | None ->
          (* No live link: the worker is already gone (or unreachable);
             nothing to stop. *)
          List.iter (fun l -> kill_link s l) s.s_links)
      shards;
    stop_deadline := Some (Unix.gettimeofday () +. worker_stop_budget)
  in

  let cleanup () =
    Front.close front;
    Array.iter (fun s -> List.iter (fun l -> kill_link s l) s.s_links) shards
  in

  let finished () =
    match !stop_deadline with
    | None -> false
    | Some dl -> links_all_dead () || Unix.gettimeofday () > dl
  in

  let rec loop () =
    if finished () then ()
    else begin
      if should_stop () then Front.drain front;
      let draining = Front.draining front in
      if draining && !drain_deadline = infinity then
        drain_deadline := Unix.gettimeofday () +. drain_budget;
      on_tick ~draining;
      (* Draining stops redialing and respawning, so a shard with no
         ready link will never serve its queue — fail it now rather
         than holding the drain open. *)
      if draining then
        Array.iter
          (fun s ->
            if (not (Queue.is_empty s.s_queue)) && not (ready s) then begin
              Queue.iter
                (fun p -> fail p Protocol.err_internal "cluster shutting down")
                s.s_queue;
              Queue.clear s.s_queue
            end)
          shards;
      (* A drain that cannot complete (a worker died mid-request and
         nobody will restart it) fails the stuck work rather than
         hanging. *)
      if draining && Unix.gettimeofday () > !drain_deadline then
        Array.iter
          (fun s ->
            Queue.iter
              (fun p -> fail p Protocol.err_internal "cluster shutting down")
              s.s_queue;
            Queue.clear s.s_queue;
            List.iter
              (fun l -> if l.l_busy <> None then kill_link s l)
              s.s_links)
          shards;
      if draining && !stop_deadline = None && queues_idle () then
        send_worker_stops ();
      if not draining then Array.iter dial shards;
      Array.iter pump shards;
      let link_fds =
        Array.to_list shards
        |> List.concat_map (fun s ->
               List.filter_map
                 (fun l -> if l.l_alive then Some l.l_fd else None)
                 s.s_links)
      in
      let readable, _, _ =
        try
          Unix.select (Front.watched front @ link_fds) [] []
            (select_timeout ())
        with Unix.Unix_error (Unix.EINTR, _, _) -> ([], [], [])
      in
      Array.iter
        (fun s ->
          List.iter
            (fun l ->
              if l.l_alive && List.mem l.l_fd readable then
                handle_link_readable s l)
            s.s_links)
        shards;
      Front.serve front ~request:dispatch_request ~stats:stats_lines readable;
      loop ()
    end
  in
  Fun.protect ~finally:cleanup loop
