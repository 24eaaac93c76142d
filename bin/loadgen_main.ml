(* varbuf-loadgen: a load generator for varbuf-serve daemons and
   clusters.

   Opens N client connections (one domain each) against a Unix socket
   or TCP address and drives a fixed number of requests — closed-loop by default, or paced to a
   target request rate with --rps.  The workload is K distinct random
   Steiner trees cycled round-robin, so K below the worker cache size
   exercises the cache-hit path and K above it the optimiser.

   Reports achieved throughput, latency quantiles (p50/p95/p99,
   exact over every collected latency, via Numeric.Stats.percentile),
   the latency histogram, and SLO attainment when --slo-ms is given. *)

open Cmdliner

type outcome = {
  mutable ok : int;
  mutable failed : (string * int) list;
  mutable lats_ms : float list;
}

let bump outcome code =
  outcome.failed <-
    (match List.assoc_opt code outcome.failed with
    | Some n -> (code, n + 1) :: List.remove_assoc code outcome.failed
    | None -> (code, 1) :: outcome.failed)

let run socket tcp connections requests rps sinks distinct seed algo_s
    rule_s p deadline_ms slo_ms json_out =
  let ( let* ) r f = match r with Ok v -> f v | Error msg ->
    prerr_endline msg; 1
  in
  let* mode = Experiments.Common.algo_of_string algo_s in
  let* rule = Experiments.Common.rule_of_string ~p rule_s in
  let* () =
    if connections < 1 || requests < 1 || distinct < 1 then
      Error "connections, requests and distinct must all be >= 1"
    else Ok ()
  in
  let addr = Serve.Client.resolve_addr ~socket tcp in
  (* K distinct nets, generated once and shared read-only by every
     connection domain. *)
  let trees =
    Array.init distinct (fun i ->
        Rctree.Generate.random_steiner ~seed:(seed + i) ~sinks
          ~die_um:(Experiments.Common.die_for_sinks sinks) ())
  in
  let reqs =
    Array.map
      (fun tree ->
        {
          (Serve.Protocol.default_request ~tree) with
          Serve.Protocol.seed;
          mode;
          rule;
          deadline_ms;
        })
      trees
  in
  let next = Atomic.make 0 in
  let t0 = Unix.gettimeofday () in
  let worker () =
    let outcome = { ok = 0; failed = []; lats_ms = [] } in
    match Serve.Client.connect_addr addr with
    | exception Unix.Unix_error (e, _, _) ->
      bump outcome ("connect: " ^ Unix.error_message e);
      outcome
    | exception Failure msg ->
      bump outcome ("handshake: " ^ msg);
      outcome
    | client ->
      Fun.protect ~finally:(fun () -> Serve.Client.close client) @@ fun () ->
      let rec go () =
        let k = Atomic.fetch_and_add next 1 in
        if k < requests then begin
          (* Paced mode: request k is due at t0 + k/rps, globally. *)
          if rps > 0.0 then begin
            let due = t0 +. (float_of_int k /. rps) in
            let wait = due -. Unix.gettimeofday () in
            if wait > 0.0 then Unix.sleepf wait
          end;
          let req =
            { reqs.(k mod distinct) with Serve.Protocol.id = k }
          in
          let sent = Unix.gettimeofday () in
          (match Serve.Client.request client req with
          | Ok _ ->
            outcome.ok <- outcome.ok + 1;
            outcome.lats_ms <-
              ((Unix.gettimeofday () -. sent) *. 1000.0) :: outcome.lats_ms
          | Error e -> bump outcome e.Serve.Protocol.code
          | exception (Failure msg | Sys_error msg) -> bump outcome msg
          | exception Serve.Wire.Closed -> bump outcome "connection closed");
          go ()
        end
      in
      go ();
      outcome
  in
  let domains = List.init connections (fun _ -> Domain.spawn worker) in
  let outcomes = List.map Domain.join domains in
  let elapsed = Unix.gettimeofday () -. t0 in
  let ok = List.fold_left (fun a o -> a + o.ok) 0 outcomes in
  let failed =
    List.fold_left
      (fun acc o ->
        List.fold_left
          (fun acc (code, n) ->
            match List.assoc_opt code acc with
            | Some m -> (code, m + n) :: List.remove_assoc code acc
            | None -> (code, n) :: acc)
          acc o.failed)
      [] outcomes
  in
  let lats =
    Array.of_list (List.concat_map (fun o -> o.lats_ms) outcomes)
  in
  Array.sort compare lats;
  let n_lat = Array.length lats in
  let mean =
    if n_lat = 0 then nan
    else Array.fold_left ( +. ) 0.0 lats /. float_of_int n_lat
  in
  let hist = if n_lat > 0 then Some (Numeric.Histogram.of_samples lats) else None in
  let percentile q =
    if n_lat = 0 then nan else Numeric.Stats.percentile lats q
  in
  let p50 = percentile 0.50
  and p95 = percentile 0.95
  and p99 = percentile 0.99 in
  let throughput = float_of_int ok /. elapsed in
  let slo_attainment =
    if slo_ms > 0.0 && n_lat > 0 then
      let within =
        Array.fold_left (fun a l -> if l <= slo_ms then a + 1 else a) 0 lats
      in
      Some (float_of_int within /. float_of_int n_lat)
    else None
  in
  Printf.printf "target: %s (%d connections%s)\n" (Serve.Client.pp_addr addr)
    connections
    (if rps > 0.0 then Printf.sprintf ", %.0f rps target" rps else "");
  Printf.printf "workload: %d requests, %d distinct %d-sink trees\n" requests
    distinct sinks;
  Printf.printf "ok %d  errors %d  elapsed %.2f s  throughput %.1f req/s\n" ok
    (requests - ok) elapsed throughput;
  (match hist with
  | None -> ()
  | Some h ->
    Printf.printf
      "latency ms: mean %.2f  p50 %.2f  p95 %.2f  p99 %.2f  max %.2f\n" mean
      p50 p95 p99 lats.(n_lat - 1);
    Array.iter
      (fun (x, d) -> if d > 0.0 then Printf.printf "  bucket %8.2f %.4f\n" x d)
      (Numeric.Histogram.density_series h));
  (match slo_attainment with
  | Some a -> Printf.printf "slo: %.1f ms attained %.2f%%\n" slo_ms (100.0 *. a)
  | None -> ());
  List.iter
    (fun (code, n) -> Printf.printf "error %s %d\n" code n)
    (List.sort compare failed);
  (match json_out with
  | None -> ()
  | Some path ->
    let buf = Buffer.create 256 in
    Printf.bprintf buf
      "{\"requests\": %d, \"ok\": %d, \"errors\": %d, \"elapsed_s\": %.3f, \
       \"throughput_rps\": %.2f, \"latency_ms\": {\"mean\": %.3f, \"p50\": \
       %.3f, \"p95\": %.3f, \"p99\": %.3f}%s}\n"
      requests ok (requests - ok) elapsed throughput mean p50 p95 p99
      (match slo_attainment with
      | Some a ->
        Printf.sprintf ", \"slo_ms\": %.1f, \"slo_attainment\": %.4f" slo_ms a
      | None -> "");
    let oc = open_out path in
    Fun.protect
      ~finally:(fun () -> close_out oc)
      (fun () -> output_string oc (Buffer.contents buf)));
  if ok = 0 then 1 else 0

let cmd =
  let socket_arg =
    Arg.(value
         & opt string
             (Filename.concat (Filename.get_temp_dir_name ())
                "varbuf-serve.sock")
         & info [ "socket" ] ~docv:"PATH" ~doc:"Unix-domain socket path.")
  in
  let tcp_arg =
    Arg.(value & opt (some string) None & info [ "tcp" ] ~docv:"HOST:PORT"
           ~doc:"Connect over TCP; a bare PORT means 127.0.0.1:PORT.")
  in
  let conns_arg =
    Arg.(value & opt int 4 & info [ "connections"; "c" ] ~docv:"N"
           ~doc:"Concurrent client connections (one domain each).")
  in
  let requests_arg =
    Arg.(value & opt int 200 & info [ "requests"; "n" ] ~docv:"N"
           ~doc:"Total requests across all connections.")
  in
  let rps_arg =
    Arg.(value & opt float 0.0 & info [ "rps" ] ~docv:"R"
           ~doc:"Target request rate; 0 (default) runs closed-loop.")
  in
  let sinks_arg =
    Arg.(value & opt int 16 & info [ "sinks" ] ~docv:"N"
           ~doc:"Sinks per generated tree.")
  in
  let distinct_arg =
    Arg.(value & opt int 10 & info [ "distinct" ] ~docv:"K"
           ~doc:"Distinct trees cycled through the request stream.")
  in
  let seed_arg =
    Arg.(value & opt int 1 & info [ "seed" ] ~docv:"SEED"
           ~doc:"Base seed for tree generation.")
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
           ~doc:"The 2P parameters p_L = p_T.")
  in
  let deadline_arg =
    Arg.(value & opt int 0 & info [ "deadline-ms" ] ~docv:"MS"
           ~doc:"Per-request deadline; 0 = none.")
  in
  let slo_arg =
    Arg.(value & opt float 0.0 & info [ "slo-ms" ] ~docv:"MS"
           ~doc:"Report the fraction of requests answered within MS.")
  in
  let json_arg =
    Arg.(value & opt (some string) None & info [ "json" ] ~docv:"FILE"
           ~doc:"Also write the summary as JSON to FILE.")
  in
  Cmd.v
    (Cmd.info "varbuf-loadgen"
       ~doc:"drive request load at a varbuf-serve daemon or cluster")
    Term.(
      const run $ socket_arg $ tcp_arg $ conns_arg $ requests_arg
      $ rps_arg $ sinks_arg $ distinct_arg $ seed_arg $ algo_arg $ rule_arg
      $ p_arg $ deadline_arg $ slo_arg $ json_arg)

let () = exit (Cmd.eval' cmd)
