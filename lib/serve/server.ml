type config = {
  socket_path : string;
  tcp_port : int option;
  jobs : int;
  backlog : int;
  max_payload : int;
  queue_depth : int;
  max_connections : int;
  cache_entries : int;
  tape_entries : int;
}

let default_config ~socket_path =
  {
    socket_path;
    tcp_port = None;
    jobs = Exec.Pool.default_jobs ();
    backlog = 64;
    max_payload = 8 * 1024 * 1024;
    queue_depth = 64;
    max_connections = 128;
    cache_entries = 128;
    tape_entries = 128;
  }

type job = {
  j_client : Front.client;
  fut : (Protocol.response, Protocol.error) result Exec.Pool.future;
  enqueued_at : float;
}

let run ?(should_stop = fun () -> false) config =
  let metrics = Metrics.create () in
  let front =
    Front.listen ~metrics
      {
        Front.socket_path = config.socket_path;
        tcp_port = config.tcp_port;
        backlog = config.backlog;
        max_payload = config.max_payload;
        max_connections = config.max_connections;
      }
  in
  let cache =
    if config.cache_entries > 0 then Some (Cache.create ~entries:config.cache_entries)
    else None
  in
  let tapes =
    if config.tape_entries > 0 then Some (Tapes.create ~entries:config.tape_entries)
    else None
  in
  let pool = Exec.Pool.create ~jobs:config.jobs () in
  (* Self-pipe: completing pool tasks poke it so [select] wakes as soon
     as a response is ready instead of at the next timeout. *)
  let pipe_r, pipe_w = Unix.pipe () in
  Unix.set_nonblock pipe_r;
  Unix.set_nonblock pipe_w;
  let poke () =
    try ignore (Unix.write_substring pipe_w "x" 0 1)
    with Unix.Unix_error _ -> ()
  in
  let drain_pipe () =
    let buf = Bytes.create 256 in
    let rec go () =
      match Unix.read pipe_r buf 0 256 with
      | n when n > 0 -> go ()
      | _ -> ()
      | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) -> ()
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> go ()
    in
    go ()
  in
  let jobs : job list ref = ref [] in

  let dispatch_request client payload =
    if Front.draining front then
      Front.fail front client Protocol.err_busy "server is draining"
    else if List.length !jobs >= config.queue_depth then
      Front.fail front client Protocol.err_busy
        (Printf.sprintf "request queue full (depth %d)" config.queue_depth)
    else
      (* With the tape cache on, a request's tape key is the digest of
         its raw tree blob, taken in place: no re-encoding. *)
      let decode payload =
        let req = Codec_bin.decode_request payload in
        if Option.is_none tapes then (req, None)
        else
          let off, len = Codec_bin.request_tree_span payload in
          (req, Some (Tapes.digest_of_span payload ~off ~len))
      in
      match decode payload with
      | exception Failure msg -> Front.fail front client Protocol.err_parse msg
      | req, tape_digest ->
        let enqueued_at = Unix.gettimeofday () in
        let deadline_at =
          if req.Protocol.deadline_ms > 0 then
            Some (enqueued_at +. (float_of_int req.Protocol.deadline_ms /. 1000.0))
          else None
        in
        let task () =
          let started = Unix.gettimeofday () in
          let obs = Obs.Control.on () in
          let t0 = if obs then Obs.Span.now_ns () else 0 in
          if obs then
            Obs.Counters.observe Obs.Counters.global "serve.queue_wait_ms"
              ((started -. enqueued_at) *. 1000.0);
          (* Queue wait counts against the deadline: re-derive the
             remaining budget at execution start. *)
          let deadline_s =
            Option.map (fun at -> at -. started) deadline_at
          in
          let outcome =
            match
              Handler.run ~pool ?cache ?tapes ?tape_digest ~metrics ?deadline_s
                req
            with
            | resp -> Ok resp
            | exception Bufins.Engine.Budget_exceeded msg ->
              Error { Protocol.code = Protocol.err_deadline; message = msg }
            | exception (Failure msg | Invalid_argument msg) ->
              Error { Protocol.code = Protocol.err_internal; message = msg }
          in
          if obs then begin
            Obs.Counters.observe Obs.Counters.global "serve.exec_ms"
              ((Unix.gettimeofday () -. started) *. 1000.0);
            Obs.Span.record ~name:"request" ~cat:"serve" ~t0_ns:t0
          end;
          outcome
        in
        let fut = Exec.Pool.submit ~on_complete:poke pool task in
        jobs := !jobs @ [ { j_client = client; fut; enqueued_at } ]
  in

  (* The occupancy/hit lines of the two in-process caches, appended to
     the metrics in the same "key value" line format. *)
  let stats_lines () =
    let buf = Buffer.create 128 in
    Option.iter
      (fun c ->
        let s = Cache.stats c in
        Printf.bprintf buf "cache_entries %d\n" s.Lru.entries;
        Printf.bprintf buf "cache_capacity %d\n" s.Lru.capacity)
      cache;
    Option.iter
      (fun t ->
        let s = Tapes.stats t in
        Printf.bprintf buf "tape_entries %d\n" s.Lru.entries;
        Printf.bprintf buf "tape_capacity %d\n" s.Lru.capacity;
        Printf.bprintf buf "tape_hits %d\n" s.Lru.hits;
        Printf.bprintf buf "tape_misses %d\n" s.Lru.misses)
      tapes;
    Buffer.contents buf
  in

  let complete_jobs () =
    let done_, still = List.partition (fun j -> Exec.Pool.poll j.fut) !jobs in
    jobs := still;
    List.iter
      (fun j ->
        let latency_ms = (Unix.gettimeofday () -. j.enqueued_at) *. 1000.0 in
        match Exec.Pool.await j.fut with
        | Ok resp ->
          Front.respond front j.j_client ~latency_ms
            (Codec_bin.encode_response resp)
        | Error err ->
          Front.fail front j.j_client err.Protocol.code err.Protocol.message
        | exception e ->
          (* A crash in the submit plumbing itself; isolate it too. *)
          Front.fail front j.j_client Protocol.err_internal
            (Printexc.to_string e))
      done_
  in

  let cleanup () =
    Front.close front;
    (try Unix.close pipe_r with Unix.Unix_error _ -> ());
    (try Unix.close pipe_w with Unix.Unix_error _ -> ());
    Exec.Pool.shutdown pool
  in

  let rec loop () =
    if should_stop () then Front.drain front;
    if Front.draining front && !jobs = [] then ()
    else begin
      let readable, _, _ =
        try Unix.select (pipe_r :: Front.watched front) [] [] 0.2
        with Unix.Unix_error (Unix.EINTR, _, _) -> ([], [], [])
      in
      if List.mem pipe_r readable then drain_pipe ();
      Front.serve front ~request:dispatch_request ~stats:stats_lines readable;
      complete_jobs ();
      loop ()
    end
  in
  Fun.protect ~finally:cleanup loop
