type config = {
  shards : int;
  socket_path : string;
  tcp_port : int option;
  jobs_per_shard : int;
  cache_entries : int;
  queue_depth : int;
  conns_per_shard : int;
  max_payload : int;
}

let default_config ~socket_path ~shards =
  {
    shards;
    socket_path;
    tcp_port = None;
    jobs_per_shard = Exec.Pool.default_jobs ();
    cache_entries = 128;
    queue_depth = 64;
    conns_per_shard = 4;
    max_payload = 8 * 1024 * 1024;
  }

let shard_socket ~socket_path i = Printf.sprintf "%s.shard%d" socket_path i

(* Minimum seconds between respawns of the same shard, so a worker
   that dies on startup doesn't become a fork storm. *)
let respawn_backoff = 0.5

let spawn_worker config i =
  match Unix.fork () with
  | 0 ->
    (* Worker process.  SIGINT/SIGTERM become a drain flag so a ^C on
       the foreground process group stops every worker gracefully,
       in parallel with the router's shutdown frames. *)
    let stop = Atomic.make false in
    let handler = Sys.Signal_handle (fun _ -> Atomic.set stop true) in
    (try Sys.set_signal Sys.sigint handler with Invalid_argument _ -> ());
    (try Sys.set_signal Sys.sigterm handler with Invalid_argument _ -> ());
    let cfg =
      {
        (Serve.Server.default_config
           ~socket_path:(shard_socket ~socket_path:config.socket_path i)) with
        Serve.Server.jobs = config.jobs_per_shard;
        cache_entries = 0;
        queue_depth = config.queue_depth;
        max_payload = config.max_payload;
      }
    in
    let code =
      try
        Serve.Server.run ~should_stop:(fun () -> Atomic.get stop) cfg;
        0
      with e ->
        Printf.eprintf "varbuf-serve: shard %d died: %s\n%!" i
          (Printexc.to_string e);
        1
    in
    exit code
  | pid -> pid

let run ?should_stop config =
  if config.shards < 1 then invalid_arg "Supervisor.run: shards must be >= 1";
  let pids = Array.make config.shards None in
  let last_spawn = Array.make config.shards 0.0 in
  let spawn i =
    pids.(i) <- Some (spawn_worker config i);
    last_spawn.(i) <- Unix.gettimeofday ()
  in
  (* Fork every worker before the router loop starts: the parent holds
     no domains and no client connections yet, so the children inherit
     nothing but the standard descriptors. *)
  for i = 0 to config.shards - 1 do
    spawn i
  done;
  (* Forget worker [i] once it has exited. *)
  let reap i pid =
    match Unix.waitpid [ Unix.WNOHANG ] pid with
    | 0, _ -> ()
    | _, _ -> pids.(i) <- None
    | exception Unix.Unix_error (Unix.ECHILD, _, _) -> pids.(i) <- None
  in
  (* Reap exited workers; outside a drain, respawn them (throttled) —
     the router's redial loop then re-establishes the links. *)
  let on_tick ~draining =
    for i = 0 to config.shards - 1 do
      match pids.(i) with
      | Some pid -> reap i pid
      | None ->
        if
          (not draining)
          && Unix.gettimeofday () -. last_spawn.(i) >= respawn_backoff
        then spawn i
    done
  in
  let router_config =
    {
      (Router.default_config ~socket_path:config.socket_path
         ~shard_sockets:
           (Array.init config.shards
              (shard_socket ~socket_path:config.socket_path))) with
      Router.tcp_port = config.tcp_port;
      conns_per_shard = config.conns_per_shard;
      queue_depth = config.queue_depth;
      max_payload = config.max_payload;
      cache_entries = config.cache_entries;
    }
  in
  let stop_workers () =
    let alive () =
      Array.to_list pids |> List.filter_map (fun p -> p)
    in
    List.iter
      (fun pid ->
        try Unix.kill pid Sys.sigterm with Unix.Unix_error _ -> ())
      (alive ());
    let deadline = Unix.gettimeofday () +. 5.0 in
    let rec reap_all () =
      Array.iteri (fun i p -> Option.iter (reap i) p) pids;
      if alive () <> [] then
        if Unix.gettimeofday () > deadline then
          (* A worker that ignores SIGTERM for 5 s is stuck; don't
             leave it behind. *)
          List.iter
            (fun pid ->
              (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
              try ignore (Unix.waitpid [] pid)
              with Unix.Unix_error _ -> ())
            (alive ())
        else begin
          Unix.sleepf 0.05;
          reap_all ()
        end
    in
    reap_all ()
  in
  Fun.protect ~finally:stop_workers (fun () ->
      Router.run ?should_stop ~on_tick router_config)
