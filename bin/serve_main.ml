(* varbuf-serve: the buffer-insertion daemon and its control client.

   `start` runs the optimiser as a long-lived server on a Unix-domain
   socket (graceful drain on SIGINT/SIGTERM or a `shutdown` request);
   `request`, `stats` and `shutdown` are one-shot clients. *)

open Cmdliner

let default_socket = Filename.concat (Filename.get_temp_dir_name ()) "varbuf-serve.sock"

let socket_arg =
  Arg.(value & opt string default_socket & info [ "socket" ] ~docv:"PATH"
         ~doc:"Unix-domain socket path.")

(* Client-side transport selection: the Unix socket by default, TCP
   with --tcp.  A bare port means loopback. *)
let tcp_client_arg =
  Arg.(value & opt (some string) None & info [ "tcp" ] ~docv:"HOST:PORT"
         ~doc:"Connect over TCP instead of the Unix socket; a bare PORT \
               means 127.0.0.1:PORT.")

(* Run a serving loop in the foreground until a shutdown request or
   SIGINT/SIGTERM; a socket that cannot be bound exits 1. *)
let serve_foreground socket run =
  let stop = Atomic.make false in
  let handle = Sys.Signal_handle (fun _ -> Atomic.set stop true) in
  Sys.set_signal Sys.sigint handle;
  Sys.set_signal Sys.sigterm handle;
  try run ~should_stop:(fun () -> Atomic.get stop)
  with Unix.Unix_error (e, fn, arg) ->
    prerr_endline
      (Printf.sprintf "cannot serve on %s: %s (%s %s)" socket
         (Unix.error_message e) fn arg);
    exit 1

(* ---------- start ---------- *)

let start socket tcp_port jobs queue_depth max_request_bytes cache_entries obs
    trace =
  if obs || trace <> None then Obs.Control.enable ();
  let config =
    {
      (Serve.Server.default_config ~socket_path:socket) with
      Serve.Server.tcp_port;
      jobs;
      queue_depth;
      max_payload = max_request_bytes;
      cache_entries;
    }
  in
  Printf.printf
    "varbuf-serve: listening on %s%s (jobs=%d, queue=%d, cache=%d)\n%!"
    socket
    (match tcp_port with
    | Some p -> Printf.sprintf " and 127.0.0.1:%d" p
    | None -> "")
    jobs queue_depth cache_entries;
  serve_foreground socket (fun ~should_stop ->
      Serve.Server.run ~should_stop config);
  (match trace with
  | Some path ->
    Obs.Span.flush ();
    (try Obs.Export.write_chrome ~path (Obs.Span.snapshot ())
     with Sys_error msg ->
       prerr_endline ("cannot write trace: " ^ msg);
       exit 1);
    Printf.printf "varbuf-serve: trace written to %s\n%!" path
  | None -> ());
  Printf.printf "varbuf-serve: drained, exiting\n%!";
  0

let tcp_listen_arg =
  Arg.(value & opt (some int) None & info [ "tcp" ] ~docv:"PORT"
         ~doc:"Also listen on 127.0.0.1:PORT (the Unix socket stays \
               bound either way).")

let start_cmd =
  let jobs_arg =
    Arg.(value & opt int (Exec.Pool.default_jobs ()) & info [ "jobs"; "j" ]
           ~docv:"N" ~doc:"Pool size (defaults to \\$VARBUF_JOBS or the \
                           recommended domain count).")
  in
  let queue_arg =
    Arg.(value & opt int 64 & info [ "queue-depth" ] ~docv:"N"
           ~doc:"Maximum requests queued or running; beyond it requests \
                 the response cache cannot answer are refused with a \
                 busy error.")
  in
  let max_bytes_arg =
    Arg.(value & opt int (8 * 1024 * 1024) & info [ "max-request-bytes" ]
           ~docv:"BYTES" ~doc:"Request frame size limit.")
  in
  let cache_arg =
    Arg.(value & opt int 128 & info [ "cache-entries" ] ~docv:"N"
           ~doc:"Response-cache capacity (LRU); repeated request payloads \
                 are answered from memory byte-identically.  0 disables \
                 caching.")
  in
  let obs_arg =
    Arg.(value & flag & info [ "obs" ]
           ~doc:"Enable observability: stats replies gain obs_* lines \
                 (queue wait vs execution split, DP phase counters) and \
                 the trace request returns the recent span buffer.")
  in
  let trace_arg =
    Arg.(value & opt (some string) None & info [ "trace" ] ~docv:"FILE"
           ~doc:"Enable observability and, after draining, write the \
                 daemon's span buffer to FILE as Chrome trace_event JSON.")
  in
  Cmd.v
    (Cmd.info "start" ~doc:"run the buffering daemon (foreground)")
    Term.(
      const start $ socket_arg $ tcp_listen_arg $ jobs_arg $ queue_arg
      $ max_bytes_arg $ cache_arg $ obs_arg $ trace_arg)

(* ---------- cluster ---------- *)

let cluster socket tcp_port shards jobs_per_shard queue_depth
    max_request_bytes cache_entries conns_per_shard =
  let config =
    {
      Cluster.Supervisor.shards;
      socket_path = socket;
      tcp_port;
      jobs_per_shard;
      cache_entries;
      queue_depth;
      conns_per_shard;
      max_payload = max_request_bytes;
    }
  in
  Printf.printf
    "varbuf-serve: cluster on %s%s (%d shards, jobs/shard=%d, cache/shard=%d)\n%!"
    socket
    (match tcp_port with
    | Some p -> Printf.sprintf " and 127.0.0.1:%d" p
    | None -> "")
    shards jobs_per_shard cache_entries;
  serve_foreground socket (fun ~should_stop ->
      Cluster.Supervisor.run ~should_stop config);
  Printf.printf "varbuf-serve: cluster drained, exiting\n%!";
  0

let cluster_cmd =
  let shards_arg =
    Arg.(value & opt int 2 & info [ "shards" ] ~docv:"N"
           ~doc:"Worker processes.  A request goes to its home shard \
                 (a digest of the routing tree) when that is idle, else \
                 to the least-loaded shard with a ready link; cache \
                 locality is best-effort and never changes bytes.")
  in
  let jobs_arg =
    Arg.(value & opt int (Exec.Pool.default_jobs ()) & info [ "jobs-per-shard" ]
           ~docv:"N" ~doc:"Pool size inside each worker.")
  in
  let queue_arg =
    Arg.(value & opt int 64 & info [ "queue-depth" ] ~docv:"N"
           ~doc:"Pending-queue bound per shard; a request whose chosen \
                 shard (the least-loaded ready one) has a full queue is \
                 refused with a busy error.")
  in
  let max_bytes_arg =
    Arg.(value & opt int (8 * 1024 * 1024) & info [ "max-request-bytes" ]
           ~docv:"BYTES" ~doc:"Request frame size limit.")
  in
  let cache_arg =
    Arg.(value & opt int 128 & info [ "cache-entries" ] ~docv:"N"
           ~doc:"Response-cache capacity per worker; 0 disables caching.")
  in
  let conns_arg =
    Arg.(value & opt int 4 & info [ "conns-per-shard" ] ~docv:"N"
           ~doc:"Router links (= max concurrent requests) per worker.")
  in
  Cmd.v
    (Cmd.info "cluster"
       ~doc:"run a sharded multi-process cluster (router + N workers)")
    Term.(
      const cluster $ socket_arg $ tcp_listen_arg $ shards_arg $ jobs_arg
      $ queue_arg $ max_bytes_arg $ cache_arg $ conns_arg)

(* ---------- request ---------- *)

let load_tree bench file seed sinks =
  match (bench, file, sinks) with
  | Some name, None, None -> (
    match Rctree.Benchmarks.load_by_name name with
    | tree -> Ok tree
    | exception Not_found ->
      Error
        (Printf.sprintf "unknown benchmark %S (known: %s)" name
           (String.concat ", " Rctree.Benchmarks.names)))
  | None, Some path, None -> (
    try Ok (Rctree.Io.load path)
    with Sys_error msg | Failure msg -> Error ("cannot load tree: " ^ msg))
  | None, None, Some n ->
    Ok
      (Rctree.Generate.random_steiner ~seed ~sinks:n
         ~die_um:(Experiments.Common.die_for_sinks n) ())
  | None, None, None -> Error "give one of --bench, --load or --sinks"
  | _ -> Error "give exactly one of --bench, --load or --sinks"

let probe_malformed client =
  (* A request frame whose payload is not a request: the server must
     answer with a parse error and keep the connection serving. *)
  let reply =
    Serve.Client.roundtrip client ~kind:"request" "this is not a request\n"
  in
  match reply.Serve.Wire.kind with
  | "error" ->
    let e = Serve.Codec_bin.decode_error reply.Serve.Wire.payload in
    Printf.printf "probe: error code=%s message=%s\n" e.Serve.Protocol.code
      e.Serve.Protocol.message;
    if e.Serve.Protocol.code <> Serve.Protocol.err_parse then begin
      prerr_endline "probe: expected a parse error";
      exit 1
    end
  | kind ->
    prerr_endline
      (Printf.sprintf "probe: expected an error frame, got %S" kind);
    exit 1

let request socket tcp bench file sinks algo_s rule_s p seed deadline_ms
    mc wire_sizing samples relax btypes save_buffering probe =
  let ( let* ) r f = match r with Ok v -> f v | Error msg ->
    prerr_endline msg; 1
  in
  let* tree = load_tree bench file seed sinks in
  let* mode = Experiments.Common.algo_of_string algo_s in
  let* rule = Experiments.Common.rule_of_string ~p rule_s in
  let* () =
    if samples < 0 then Error "--samples must be >= 0" else Ok ()
  in
  let* () = if btypes < 0 then Error "--btypes must be >= 0" else Ok () in
  let req =
    {
      (Serve.Protocol.default_request ~tree) with
      Serve.Protocol.seed;
      mode;
      rule;
      deadline_ms;
      mc_trials = mc;
      wire_sizing;
      samples;
      relax;
      btypes;
    }
  in
  let addr = Serve.Client.resolve_addr ~socket tcp in
  match Serve.Client.connect_addr addr with
  | exception Unix.Unix_error (e, _, _) ->
    prerr_endline
      (Printf.sprintf "cannot connect to %s: %s" (Serve.Client.pp_addr addr)
         (Unix.error_message e));
    1
  | exception Failure msg ->
    prerr_endline ("handshake failed: " ^ msg);
    1
  | client ->
    Fun.protect ~finally:(fun () -> Serve.Client.close client) @@ fun () ->
    if probe then probe_malformed client;
    (match Serve.Client.request client req with
    | Ok r ->
      Printf.printf
        "%s/%s: buffers=%d sized-wires=%d nodes=%d peak-candidates=%d\n"
        algo_s rule_s
        (List.length r.Serve.Protocol.assignment.Bufins.Assignment.buffers)
        (List.length r.Serve.Protocol.assignment.Bufins.Assignment.widths)
        r.Serve.Protocol.nodes r.Serve.Protocol.peak_candidates;
      (match r.Serve.Protocol.sampled with
      | Some s ->
        Printf.printf
          "sampled driver RAT (K=%d): mu=%.1f ps, sigma=%.1f ps, \
           95%%-yield RAT=%.1f ps\n"
          s.Serve.Protocol.s_k s.Serve.Protocol.s_mean
          s.Serve.Protocol.s_std s.Serve.Protocol.s_rat_at_yield
      | None -> ());
      Printf.printf
        "root RAT under full model: mu=%.1f ps, sigma=%.1f ps, 95%%-yield RAT=%.1f ps\n"
        r.Serve.Protocol.root_mean r.Serve.Protocol.root_std
        r.Serve.Protocol.root_yield95;
      (match r.Serve.Protocol.mc with
      | Some (mean, std) ->
        Printf.printf "Monte Carlo (%d trials): mu=%.1f ps, sigma=%.1f ps\n" mc
          mean std
      | None -> ());
      (match save_buffering with
      | Some path -> (
        try
          Bufins.Assignment.save path r.Serve.Protocol.assignment;
          Printf.printf "buffering written to %s\n" path
        with Sys_error msg ->
          prerr_endline ("cannot save buffering: " ^ msg);
          exit 1)
      | None -> ());
      0
    | Error e ->
      prerr_endline
        (Printf.sprintf "server error: code=%s message=%s" e.Serve.Protocol.code
           e.Serve.Protocol.message);
      if e.Serve.Protocol.code = Serve.Protocol.err_deadline then 2 else 1)

let request_cmd =
  let bench_arg =
    Arg.(value & opt (some string) None & info [ "bench" ] ~docv:"NAME"
           ~doc:"Benchmark name (p1, p2, r1..r5).")
  in
  let file_arg =
    Arg.(value & opt (some string) None & info [ "load" ] ~docv:"FILE"
           ~doc:"Load the routing tree from a varbuf tree file.")
  in
  let sinks_arg =
    Arg.(value & opt (some int) None & info [ "sinks" ] ~docv:"N"
           ~doc:"Generate a random Steiner tree with N sinks.")
  in
  let algo_arg =
    Arg.(value & opt string "wid" & info [ "algo" ] ~docv:"ALGO"
           ~doc:"Algorithm: nom, d2d or wid.")
  in
  let rule_arg =
    Arg.(value & opt string "2p" & info [ "rule" ] ~docv:"RULE"
           ~doc:"Pruning rule: det, 2p, 1p or 4p.")
  in
  let p_arg =
    Arg.(value & opt float 0.5 & info [ "p" ] ~docv:"P"
           ~doc:"The 2P parameters p_L = p_T (0.5 to 1).")
  in
  let seed_arg =
    Arg.(value & opt int 1 & info [ "seed" ] ~docv:"SEED"
           ~doc:"Request seed (generator and Monte Carlo).")
  in
  let deadline_arg =
    Arg.(value & opt int 0 & info [ "deadline-ms" ] ~docv:"MS"
           ~doc:"Per-request wall-clock deadline; 0 = none.")
  in
  let mc_arg =
    Arg.(value & opt int 0 & info [ "mc" ] ~docv:"N"
           ~doc:"Also run N Monte-Carlo trials on the result.")
  in
  let wire_sizing_arg =
    Arg.(value & flag & info [ "wire-sizing" ]
           ~doc:"Size wires simultaneously with buffer insertion.")
  in
  let samples_arg =
    Arg.(value & opt int 0 & info [ "samples" ] ~docv:"K"
           ~doc:"Route the request to the sampling-based yield engine \
                 with K process corners (0, the default, uses the \
                 canonical engine with --rule).")
  in
  let relax_arg =
    Arg.(value & opt float 1.0 & info [ "relax" ] ~docv:"R"
           ~doc:"Sample-dominance relaxation for --samples (1 = exact \
                 full dominance).")
  in
  let btypes_arg =
    Arg.(value & opt int 0 & info [ "btypes" ] ~docv:"B"
           ~doc:"Optimise with the deterministic synthetic buffer \
                 library of B device types (alternating repeaters and \
                 inverters).  0, the default, keeps the server's \
                 default 3-type library and the historical request \
                 bytes.")
  in
  let save_buffering_arg =
    Arg.(value & opt (some string) None & info [ "save-buffering" ]
           ~docv:"FILE" ~doc:"Write the returned buffering to FILE.")
  in
  let probe_arg =
    Arg.(value & flag & info [ "probe-malformed" ]
           ~doc:"First send a malformed request on the same connection and \
                 check the server answers it with a parse error (used by the \
                 CI smoke test).")
  in
  Cmd.v
    (Cmd.info "request" ~doc:"submit one buffering request to the daemon")
    Term.(
      const request $ socket_arg $ tcp_client_arg $ bench_arg
      $ file_arg $ sinks_arg $ algo_arg $ rule_arg $ p_arg $ seed_arg
      $ deadline_arg $ mc_arg $ wire_sizing_arg $ samples_arg $ relax_arg
      $ btypes_arg $ save_buffering_arg $ probe_arg)

(* ---------- stats / shutdown ---------- *)

let with_client socket tcp f =
  let addr = Serve.Client.resolve_addr ~socket tcp in
  match Serve.Client.connect_addr addr with
  | exception Unix.Unix_error (e, _, _) ->
    prerr_endline
      (Printf.sprintf "cannot connect to %s: %s" (Serve.Client.pp_addr addr)
         (Unix.error_message e));
    1
  | exception Failure msg ->
    prerr_endline ("handshake failed: " ^ msg);
    1
  | client ->
    Fun.protect ~finally:(fun () -> Serve.Client.close client) (fun () ->
        f client)

let stats_cmd =
  Cmd.v
    (Cmd.info "stats" ~doc:"print the daemon's counters and latency histogram")
    Term.(
      const (fun socket tcp ->
          with_client socket tcp (fun client ->
              print_string (Serve.Client.stats client);
              0))
      $ socket_arg $ tcp_client_arg)

let trace_cmd =
  let out_arg =
    Arg.(value & opt (some string) None & info [ "out" ] ~docv:"FILE"
           ~doc:"Write the trace JSON to FILE instead of stdout.")
  in
  Cmd.v
    (Cmd.info "trace"
       ~doc:"fetch the daemon's recent span buffer as Chrome trace JSON")
    Term.(
      const (fun socket tcp out ->
          with_client socket tcp (fun client ->
              let payload = Serve.Client.trace client in
              match out with
              | None ->
                print_string payload;
                0
              | Some path -> (
                try
                  let oc = open_out path in
                  Fun.protect
                    ~finally:(fun () -> close_out oc)
                    (fun () -> output_string oc payload);
                  Printf.printf "trace written to %s\n" path;
                  0
                with Sys_error msg ->
                  prerr_endline ("cannot write trace: " ^ msg);
                  1)))
      $ socket_arg $ tcp_client_arg $ out_arg)

let shutdown_cmd =
  Cmd.v
    (Cmd.info "shutdown" ~doc:"ask the daemon to drain and exit")
    Term.(
      const (fun socket tcp ->
          with_client socket tcp (fun client ->
              Serve.Client.shutdown client;
              print_endline "server draining";
              0))
      $ socket_arg $ tcp_client_arg)

let () =
  let doc = "variation-aware buffer insertion as a service" in
  let info = Cmd.info "varbuf-serve" ~doc in
  exit
    (Cmd.eval'
       (Cmd.group info
          [ start_cmd; cluster_cmd; request_cmd; stats_cmd; trace_cmd;
            shutdown_cmd ]))
