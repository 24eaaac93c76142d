let counter = Atomic.make 0

let fresh_base () =
  Filename.concat (Filename.get_temp_dir_name ())
    (Printf.sprintf "varbuf-cluster-%d-%d" (Unix.getpid ())
       (Atomic.fetch_and_add counter 1))

let shard_socket base i = Printf.sprintf "%s.shard%d" base i

let wait_for_sockets paths =
  let deadline = Unix.gettimeofday () +. 5.0 in
  let rec go () =
    if List.for_all Sys.file_exists paths then ()
    else if Unix.gettimeofday () > deadline then
      failwith "Inproc.with_cluster: cluster sockets did not appear"
    else begin
      Unix.sleepf 0.01;
      go ()
    end
  in
  go ()

let with_cluster ~shards f =
  if shards < 1 then invalid_arg "Inproc.with_cluster: shards must be >= 1";
  let base = fresh_base () in
  let router_socket = base ^ ".sock" in
  let stop_flag = Atomic.make false in
  let should_stop () = Atomic.get stop_flag in
  let workers =
    List.init shards (fun i ->
        Domain.spawn (fun () ->
            Serve.Server.run ~should_stop
              {
                (Serve.Server.default_config ~socket_path:(shard_socket base i)) with
                Serve.Server.jobs = 2;
              }))
  in
  let router =
    Domain.spawn (fun () ->
        Router.run ~should_stop
          {
            (Router.default_config ~socket_path:router_socket
               ~shard_sockets:(Array.init shards (shard_socket base))) with
            Router.conns_per_shard = 2;
          })
  in
  let stop () =
    Atomic.set stop_flag true;
    List.iter Domain.join (router :: workers)
  in
  Fun.protect ~finally:stop (fun () ->
      wait_for_sockets (router_socket :: List.init shards (shard_socket base));
      f router_socket)
