type config = {
  socket_path : string;
  tcp_port : int option;
  jobs : int;
  max_payload : int;
  queue_depth : int;
  cache_entries : int;
}

let default_config ~socket_path =
  {
    socket_path;
    tcp_port = None;
    jobs = Exec.Pool.default_jobs ();
    max_payload = 8 * 1024 * 1024;
    queue_depth = 64;
    cache_entries = 128;
  }

type job = {
  j_caller : Front.caller;
  fut : (string, Protocol.error) result Exec.Pool.future;
  enqueued_at : float;
}

let run ?(should_stop = fun () -> false) config =
  let metrics = Metrics.create () in
  let front =
    Front.listen ~metrics
      {
        Front.socket_path = config.socket_path;
        tcp_port = config.tcp_port;
        max_payload = config.max_payload;
        cache_entries = config.cache_entries;
      }
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

  (* The front has answered replays already: what arrives here runs. *)
  let dispatch_request caller payload =
    match Codec_bin.decode_request payload with
    | exception Failure msg -> Front.fail front caller Protocol.err_parse msg
    | _ when List.length !jobs >= config.queue_depth ->
      Front.fail front caller Protocol.err_busy
        (Printf.sprintf "request queue full (depth %d)" config.queue_depth)
    | req ->
      Front.admitted front;
      let decoded_at = Unix.gettimeofday () in
      let deadline_at =
        if req.Protocol.deadline_ms > 0 then
          Some (decoded_at +. (float_of_int req.Protocol.deadline_ms /. 1000.0))
        else None
      in
      let task () =
        let started = Unix.gettimeofday () in
        let obs = Obs.Control.on () in
        let t0 = if obs then Obs.Span.now_ns () else 0 in
        if obs then
          Obs.Counters.observe Obs.Counters.global "serve.queue_wait_ms"
            ((started -. decoded_at) *. 1000.0);
        (* Queue wait counts against the deadline: re-derive the
           remaining budget at execution start. *)
        let deadline_s = Option.map (fun at -> at -. started) deadline_at in
        let outcome =
          match Handler.run ~pool ?deadline_s req with
          | resp -> Ok (Codec_bin.encode_response resp)
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
      jobs := !jobs @ [ { j_caller = caller; fut; enqueued_at = decoded_at } ]
  in

  let complete_jobs () =
    let done_, still = List.partition (fun j -> Exec.Pool.poll j.fut) !jobs in
    jobs := still;
    List.iter
      (fun j ->
        let latency_ms = (Unix.gettimeofday () -. j.enqueued_at) *. 1000.0 in
        match Exec.Pool.await j.fut with
        | Ok reply -> Front.respond front j.j_caller ~latency_ms reply
        | Error err ->
          Front.fail front j.j_caller err.Protocol.code err.Protocol.message
        | exception e ->
          (* A crash in the submit plumbing itself; isolate it too. *)
          Front.fail front j.j_caller Protocol.err_internal
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
      Front.serve front ~request:dispatch_request readable;
      complete_jobs ();
      loop ()
    end
  in
  Fun.protect ~finally:cleanup loop
