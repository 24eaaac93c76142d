(* End-to-end tests for lib/serve: protocol round-trips, a live server
   exercised over a loopback Unix-domain socket (error isolation,
   stats, graceful shutdown), and the byte-identical determinism
   contract across --jobs counts. *)

let sock_counter = Atomic.make 0

let fresh_socket_path () =
  Filename.concat
    (Filename.get_temp_dir_name ())
    (Printf.sprintf "varbuf-test-%d-%d.sock" (Unix.getpid ())
       (Atomic.fetch_and_add sock_counter 1))

(* Start a server in its own domain, hand [f] a fresh-connection
   maker (multi-client tests open several), and always drain the
   server before returning — via the stop flag if [f] did not already
   ask for shutdown. *)
let with_server_multi ?(jobs = 2) ?(tweak = fun c -> c) f =
  let socket_path = fresh_socket_path () in
  let config = tweak { (Serve.Server.default_config ~socket_path) with jobs } in
  let stop = Atomic.make false in
  let server =
    Domain.spawn (fun () ->
        Serve.Server.run ~should_stop:(fun () -> Atomic.get stop) config)
  in
  let rec connect tries =
    match Serve.Client.connect socket_path with
    | c -> c
    | exception Unix.Unix_error ((Unix.ENOENT | Unix.ECONNREFUSED), _, _)
      when tries > 0 ->
      Unix.sleepf 0.02;
      connect (tries - 1)
  in
  Fun.protect
    ~finally:(fun () ->
      Atomic.set stop true;
      Domain.join server)
    (fun () -> f (fun () -> connect 250))

(* The common single-client shape. *)
let with_server ?jobs ?tweak f =
  with_server_multi ?jobs ?tweak (fun connect ->
      let client = connect () in
      Fun.protect
        ~finally:(fun () -> Serve.Client.close client)
        (fun () -> f client))

let small_tree = Rctree.Generate.random_steiner ~seed:11 ~sinks:9 ~die_um:2000.0 ()

(* ---------- protocol round-trips (no server) ---------- *)

let test_request_roundtrip () =
  let req =
    {
      (Serve.Protocol.default_request ~tree:small_tree) with
      Serve.Protocol.id = 42;
      seed = 7;
      mode = Experiments.Common.D2d;
      rule = Bufins.Prune.two_param ~p_l:0.6 ~p_t:0.85 ();
      deadline_ms = 1500;
      mc_trials = 64;
      wire_sizing = true;
    }
  in
  let bytes = Serve.Codec_bin.encode_request req in
  let decoded = Serve.Codec_bin.decode_request bytes in
  Alcotest.(check string)
    "request encoding round-trips exactly" bytes
    (Serve.Codec_bin.encode_request decoded);
  Alcotest.(check int) "id" 42 decoded.Serve.Protocol.id;
  Alcotest.(check bool) "rule" true
    (decoded.Serve.Protocol.rule = Bufins.Prune.two_param ~p_l:0.6 ~p_t:0.85 ())

let test_response_roundtrip () =
  let req =
    { (Serve.Protocol.default_request ~tree:small_tree) with
      Serve.Protocol.id = 3; mc_trials = 32 }
  in
  let resp = Serve.Handler.run req in
  let bytes = Serve.Codec_bin.encode_response resp in
  let decoded = Serve.Codec_bin.decode_response bytes in
  Alcotest.(check string)
    "response encoding round-trips exactly" bytes
    (Serve.Codec_bin.encode_response decoded);
  Alcotest.(check int) "id echoed" 3 resp.Serve.Protocol.r_id;
  Alcotest.(check bool) "mc present" true (resp.Serve.Protocol.mc <> None)

let test_error_roundtrip () =
  let e =
    { Serve.Protocol.code = Serve.Protocol.err_parse;
      message = "line 3: unknown field" }
  in
  let decoded = Serve.Codec_bin.decode_error (Serve.Codec_bin.encode_error e) in
  Alcotest.(check string) "code" e.Serve.Protocol.code decoded.Serve.Protocol.code;
  Alcotest.(check string) "message" e.Serve.Protocol.message
    decoded.Serve.Protocol.message

let test_handler_deadline () =
  let req = Serve.Protocol.default_request ~tree:small_tree in
  match Serve.Handler.run ~deadline_s:0.0 req with
  | _ -> Alcotest.fail "an expired deadline must raise Budget_exceeded"
  | exception Bufins.Engine.Budget_exceeded _ -> ()

(* The deadline bounds the Monte-Carlo epilogue, not only the DP: a
   16-sink request with 200,000 trials takes about 10 s to answer in
   full, and a 200 ms deadline must end it well within 2 s. *)
let test_handler_mc_deadline () =
  let tree = Rctree.Generate.random_steiner ~seed:3 ~sinks:16 ~die_um:4000.0 () in
  let req =
    { (Serve.Protocol.default_request ~tree) with
      Serve.Protocol.mc_trials = 200_000 }
  in
  let t0 = Unix.gettimeofday () in
  (match Serve.Handler.run ~deadline_s:0.2 req with
  | _ -> Alcotest.fail "a 200 ms deadline must end the Monte-Carlo run"
  | exception Bufins.Engine.Budget_exceeded _ -> ());
  let took = Unix.gettimeofday () -. t0 in
  if took >= 2.0 then Alcotest.failf "the trip took %.2f s, expected < 2 s" took

(* ---------- live server ---------- *)

let test_server_errors_and_requests () =
  (* A small frame limit so the oversized path is cheap to exercise. *)
  let tweak c = { c with Serve.Server.max_payload = 16_384 } in
  with_server ~jobs:2 ~tweak (fun client ->
      (* 1. Malformed request: error frame, connection survives. *)
      let reply =
        Serve.Client.roundtrip client ~kind:"request" "this is not a request\n"
      in
      Alcotest.(check string) "malformed -> error frame" "error"
        reply.Serve.Wire.kind;
      let e = Serve.Codec_bin.decode_error reply.Serve.Wire.payload in
      Alcotest.(check string) "malformed -> parse" Serve.Protocol.err_parse
        e.Serve.Protocol.code;
      (* 2. Oversized request: rejected, stream stays in sync. *)
      let reply =
        Serve.Client.roundtrip client ~kind:"request" (String.make 20_000 'x')
      in
      let e = Serve.Codec_bin.decode_error reply.Serve.Wire.payload in
      Alcotest.(check string) "oversized -> too_large"
        Serve.Protocol.err_too_large e.Serve.Protocol.code;
      (* 3. A frame kind clients do not send: protocol error,
         connection survives. *)
      let reply = Serve.Client.roundtrip client ~kind:"ok" "" in
      let e = Serve.Codec_bin.decode_error reply.Serve.Wire.payload in
      Alcotest.(check string) "unknown kind -> proto" Serve.Protocol.err_proto
        e.Serve.Protocol.code;
      (* 4. The same connection still serves a real request. *)
      let req =
        { (Serve.Protocol.default_request ~tree:small_tree) with
          Serve.Protocol.id = 5 }
      in
      (match Serve.Client.request client req with
      | Ok resp ->
        Alcotest.(check int) "id echoed" 5 resp.Serve.Protocol.r_id;
        Alcotest.(check bool) "some buffers placed" true
          (resp.Serve.Protocol.assignment.Bufins.Assignment.buffers <> [])
      | Error e -> Alcotest.failf "request failed: %s" e.Serve.Protocol.message);
      (* 5. Stats report the traffic above. *)
      let stats = Serve.Client.stats client in
      let has sub =
        Alcotest.(check bool) (Printf.sprintf "stats contain %S" sub) true
          (List.exists
             (fun line ->
               String.length line >= String.length sub
               && String.sub line 0 (String.length sub) = sub)
             (String.split_on_char '\n' stats))
      in
      has "requests 4";
      has "ok 1";
      has "error_parse 1";
      has "error_too_large 1";
      has "error_proto 1";
      has "latency_ms_count 1";
      has "latency_ms_bucket";
      (* 6. Graceful shutdown acknowledged. *)
      Serve.Client.shutdown client)

let test_server_deadline () =
  with_server ~jobs:2 (fun client ->
      let tree =
        Rctree.Generate.random_steiner ~seed:2 ~sinks:400 ~die_um:8000.0 ()
      in
      let req =
        { (Serve.Protocol.default_request ~tree) with
          Serve.Protocol.deadline_ms = 1 }
      in
      match Serve.Client.request client req with
      | Ok _ -> Alcotest.fail "a 1 ms deadline on a 400-sink net must trip"
      | Error e ->
        Alcotest.(check string) "deadline error" Serve.Protocol.err_deadline
          e.Serve.Protocol.code)

(* ---------- determinism across jobs counts ---------- *)

let test_determinism_across_jobs () =
  let tree = Rctree.Generate.random_steiner ~seed:5 ~sinks:40 ~die_um:3000.0 () in
  let req =
    { (Serve.Protocol.default_request ~tree) with
      Serve.Protocol.id = 9; seed = 7; mc_trials = 128 }
  in
  (* The in-process library call is the reference. *)
  let expected = Serve.Codec_bin.encode_response (Serve.Handler.run req) in
  let via_server jobs =
    let payload = ref "" in
    with_server ~jobs (fun client ->
        match Serve.Client.request_raw client req with
        | Ok raw -> payload := raw
        | Error e -> Alcotest.failf "request failed: %s" e.Serve.Protocol.message);
    !payload
  in
  Alcotest.(check string) "server at --jobs 1 is byte-identical" expected
    (via_server 1);
  Alcotest.(check string) "server at --jobs 4 is byte-identical" expected
    (via_server 4)

(* ---------- response cache ---------- *)

let test_cache_key () =
  let req = Serve.Protocol.default_request ~tree:small_tree in
  let key = Serve.Cache.key_of_request in
  let k = key req in
  (* id and deadline are routing, not payload: they must not split the
     cache; everything else must. *)
  Alcotest.(check string) "id ignored" k
    (key { req with Serve.Protocol.id = 99 });
  Alcotest.(check string) "deadline ignored" k
    (key { req with Serve.Protocol.deadline_ms = 5000 });
  let splits field r =
    Alcotest.(check bool) (field ^ " splits") false (k = key r)
  in
  splits "seed" { req with Serve.Protocol.seed = 2 };
  splits "mode" { req with Serve.Protocol.mode = Experiments.Common.Nom };
  splits "rule"
    { req with Serve.Protocol.rule = Bufins.Prune.two_param ~p_l:0.6 () };
  splits "samples" { req with Serve.Protocol.samples = 64 };
  splits "relax" { req with Serve.Protocol.relax = 0.8 };
  splits "btypes" { req with Serve.Protocol.btypes = 4 };
  splits "objective"
    { req with Serve.Protocol.objective = Bufins.Dominance.Weighted 1.0 };
  splits "eps_power" { req with Serve.Protocol.eps_power = 0.01 };
  splits "wire_sizing" { req with Serve.Protocol.wire_sizing = true };
  splits "mc_trials" { req with Serve.Protocol.mc_trials = 16 };
  splits "tree"
    { req with
      Serve.Protocol.tree =
        Rctree.Generate.random_steiner ~seed:12 ~sinks:9 ~die_um:2000.0 () };
  (* The key is a function of the decoded request. *)
  Alcotest.(check string) "v2 binary round trip keeps the key" k
    (key (Serve.Codec_bin.decode_request (Serve.Codec_bin.encode_request req)))

let test_cache_lru () =
  let cache = Serve.Cache.create ~entries:2 in
  let resp id =
    Serve.Codec_bin.encode_response
      { (Serve.Handler.run (Serve.Protocol.default_request ~tree:small_tree)) with
        Serve.Protocol.r_id = id }
  in
  Serve.Cache.add cache "a" (resp 1);
  Serve.Cache.add cache "b" (resp 2);
  (* Touch "a" so "b" is the LRU victim when "c" arrives. *)
  Alcotest.(check bool) "a hits" true (Serve.Cache.find cache "a" <> None);
  Serve.Cache.add cache "c" (resp 3);
  Alcotest.(check int) "bounded" 2 (Serve.Cache.length cache);
  Alcotest.(check bool) "a survived" true (Serve.Cache.find cache "a" <> None);
  Alcotest.(check bool) "b evicted" true (Serve.Cache.find cache "b" = None);
  Alcotest.(check bool) "c present" true (Serve.Cache.find cache "c" <> None)

let test_cache_end_to_end () =
  let req =
    { (Serve.Protocol.default_request ~tree:small_tree) with
      Serve.Protocol.id = 21; mc_trials = 16 }
  in
  with_server ~jobs:2 (fun client ->
      let ask r =
        match Serve.Client.request_raw client r with
        | Ok raw -> raw
        | Error e -> Alcotest.failf "request failed: %s" e.Serve.Protocol.message
      in
      let first = ask req in
      (* A repeat of the same payload must be answered from the cache
         with byte-identical payload. *)
      let second = ask req in
      Alcotest.(check string) "repeat is byte-identical" first second;
      (* Same payload under a different id and deadline: still a hit,
         identical modulo the echoed id. *)
      let third =
        ask { req with Serve.Protocol.id = 22; deadline_ms = 60_000 }
      in
      let strip raw =
        Serve.Codec_bin.encode_response
          { (Serve.Codec_bin.decode_response raw) with Serve.Protocol.r_id = 0 }
      in
      Alcotest.(check int) "new id echoed on hit" 22
        (Serve.Codec_bin.decode_response third).Serve.Protocol.r_id;
      Alcotest.(check string) "hit differs only in id" (strip first)
        (strip third);
      let stats = Serve.Client.stats client in
      let has sub =
        Alcotest.(check bool) (Printf.sprintf "stats contain %S" sub) true
          (List.exists
             (fun line ->
               String.length line >= String.length sub
               && String.sub line 0 (String.length sub) = sub)
             (String.split_on_char '\n' stats))
      in
      has "cache_hits 2";
      has "cache_misses 1")

let test_cache_disabled () =
  let tweak c = { c with Serve.Server.cache_entries = 0 } in
  let req = Serve.Protocol.default_request ~tree:small_tree in
  with_server ~jobs:2 ~tweak (fun client ->
      let ask () =
        match Serve.Client.request_raw client req with
        | Ok raw -> raw
        | Error e -> Alcotest.failf "request failed: %s" e.Serve.Protocol.message
      in
      (* Still deterministic, just recomputed; counters stay zero. *)
      Alcotest.(check string) "recompute is byte-identical" (ask ()) (ask ());
      let stats = Serve.Client.stats client in
      Alcotest.(check bool) "no hits counted" true
        (List.mem "cache_hits 0" (String.split_on_char '\n' stats));
      Alcotest.(check bool) "no misses counted" true
        (List.mem "cache_misses 0" (String.split_on_char '\n' stats)))

(* ---------- metrics: the latency lines cover ok responses only ---------- *)

let test_metrics_latency_ok_only () =
  (* Regression for an impl/doc disagreement: errors bump the request
     and error counters but must never enter the latency distribution,
     so latency_ms_count equals ok (2), not requests (3), and the mean
     averages the two successful latencies only. *)
  let m = Serve.Metrics.create () in
  Serve.Metrics.request_ok m ~latency_ms:10.0;
  Serve.Metrics.request_ok m ~latency_ms:30.0;
  Serve.Metrics.request_error m ~code:Serve.Protocol.err_parse;
  let lines = String.split_on_char '\n' (Serve.Metrics.render m) in
  let has line =
    Alcotest.(check bool) (Printf.sprintf "render contains %S" line) true
      (List.mem line lines)
  in
  has "requests 3";
  has "ok 2";
  has "errors 1";
  has "error_parse 1";
  has "latency_ms_count 2";
  has "latency_ms_mean 20.0";
  has "latency_ms_max 30.0"

let test_metrics_line_set () =
  (* The rendered stats payload's key sequence is a documented
     contract (metrics.mli / DESIGN.md): counters, ratio, sorted
     error_/kind_ lines, then the ok-only latency block.  Pin the
     whole set so doc and output cannot drift apart again (obs_ lines
     are appended only under observability and excluded here). *)
  let m = Serve.Metrics.create () in
  Serve.Metrics.conn_opened m;
  Serve.Metrics.request_kind m ~kind:"request";
  Serve.Metrics.request_kind m ~kind:"request";
  Serve.Metrics.request_kind m ~kind:"stats";
  Serve.Metrics.cache_miss m;
  Serve.Metrics.request_ok m ~latency_ms:10.0;
  Serve.Metrics.request_ok m ~latency_ms:30.0;
  Serve.Metrics.request_error m ~code:Serve.Protocol.err_parse;
  let keys =
    String.split_on_char '\n' (Serve.Metrics.render m)
    |> List.filter (fun l -> l <> "")
    |> List.filter (fun l ->
           not (String.length l >= 4 && String.sub l 0 4 = "obs_"))
    |> List.map (fun l ->
           match String.index_opt l ' ' with
           | Some i -> String.sub l 0 i
           | None -> l)
  in
  Alcotest.(check (list string))
    "rendered stats key sequence"
    [
      "uptime_s"; "connections"; "connections_total"; "requests"; "ok";
      "errors"; "cache_hits"; "cache_misses"; "cache_hit_ratio";
      "error_parse"; "kind_request"; "kind_stats"; "latency_ms_count";
      "latency_ms_mean"; "latency_ms_max"; "latency_ms_p50";
      "latency_ms_p95"; "latency_ms_p99"; "latency_ms_bucket";
    ]
    keys

let test_metrics_hit_ratio_and_kinds () =
  let m = Serve.Metrics.create () in
  let lines () = String.split_on_char '\n' (Serve.Metrics.render m) in
  (* Before the cache is consulted, no ratio line at all. *)
  Alcotest.(check bool) "no ratio until the cache is consulted" false
    (List.exists
       (fun l -> String.length l >= 15 && String.sub l 0 15 = "cache_hit_ratio")
       (lines ()));
  Serve.Metrics.cache_hit m;
  Serve.Metrics.cache_hit m;
  Serve.Metrics.cache_hit m;
  Serve.Metrics.cache_miss m;
  Serve.Metrics.request_kind m ~kind:"request";
  Serve.Metrics.request_kind m ~kind:"request";
  Serve.Metrics.request_kind m ~kind:"stats";
  let has line =
    Alcotest.(check bool) (Printf.sprintf "render contains %S" line) true
      (List.mem line (lines ()))
  in
  has "cache_hits 3";
  has "cache_misses 1";
  has "cache_hit_ratio 0.7500";
  has "kind_request 2";
  has "kind_stats 1"

let test_metrics_latency_percentiles () =
  (* The latency percentiles must track the samples, not the width of
     a coarse bin: millisecond requests read as milliseconds. *)
  let line m key =
    let prefix = key ^ " " in
    let n = String.length prefix in
    match
      List.find_opt
        (fun l -> String.length l > n && String.sub l 0 n = prefix)
        (String.split_on_char '\n' (Serve.Metrics.render m))
    with
    | Some l -> float_of_string (String.sub l n (String.length l - n))
    | None -> Alcotest.failf "no %s line" key
  in
  let within key lo hi v =
    Alcotest.(check bool)
      (Printf.sprintf "%s %.3f within [%g, %g]" key v lo hi)
      true
      (v >= lo && v <= hi)
  in
  let m = Serve.Metrics.create () in
  for i = 0 to 99 do
    Serve.Metrics.request_ok m ~latency_ms:(2.0 +. (float_of_int i /. 50.0))
  done;
  within "latency_ms_p50" 2.0 4.0 (line m "latency_ms_p50");
  let m = Serve.Metrics.create () in
  for _ = 1 to 90 do
    Serve.Metrics.request_ok m ~latency_ms:3.0
  done;
  for _ = 1 to 10 do
    Serve.Metrics.request_ok m ~latency_ms:300.0
  done;
  within "latency_ms_p50" (3.0 /. 1.15) (3.0 *. 1.15) (line m "latency_ms_p50");
  within "latency_ms_p99" (300.0 /. 1.15) (300.0 *. 1.15)
    (line m "latency_ms_p99");
  (* A 0 ms sample is legal and lands in the lowest bin. *)
  let m = Serve.Metrics.create () in
  Serve.Metrics.request_ok m ~latency_ms:0.0;
  within "latency_ms_p50 of a 0 ms sample" 0.0 0.02 (line m "latency_ms_p50")

(* ---------- wire: resync after an oversized frame mid-stream ---------- *)

let test_wire_resync_after_oversized () =
  (* A tiny payload limit, the stream fed one byte at a time so the
     oversized frame's discard spans twenty feeds: the decoder must
     drop exactly the announced bytes and hand over the following frame
     intact. *)
  let dec = Serve.Wire.decoder ~max_payload:8 () in
  let stream =
    Serve.Wire.frame_bytes ~kind:"ok" "hi"
    ^ Serve.Wire.frame_bytes ~kind:"request" (String.make 20 'x')
    ^ Serve.Wire.frame_bytes ~kind:"stats" "yes"
  in
  let events = ref [] in
  String.iter
    (fun ch ->
      Serve.Wire.feed dec (Bytes.make 1 ch) 1;
      let rec drain () =
        Option.iter
          (fun e ->
            events := e :: !events;
            drain ())
          (Serve.Wire.next dec)
      in
      drain ())
    stream;
  match List.rev !events with
  | [ Serve.Wire.Frame f1; Serve.Wire.Oversized o; Serve.Wire.Frame f2 ] ->
    Alcotest.(check string) "first frame kind" "ok" f1.Serve.Wire.kind;
    Alcotest.(check string) "first frame payload" "hi" f1.Serve.Wire.payload;
    Alcotest.(check string) "oversized kind" "request" o.kind;
    Alcotest.(check int) "oversized length" 20 o.len;
    Alcotest.(check string) "stream resynced" "stats" f2.Serve.Wire.kind;
    Alcotest.(check string) "payload after resync" "yes" f2.Serve.Wire.payload
  | evs -> Alcotest.failf "unexpected event sequence (%d events)" (List.length evs)

(* ---------- cache hits from concurrent clients ---------- *)

let test_cache_hit_concurrent_clients () =
  (* Two clients replay a cached payload concurrently under different
     request ids: each must get the cached result with its own id
     rewritten in — not the warm requester's id, and not the other
     client's. *)
  let req =
    { (Serve.Protocol.default_request ~tree:small_tree) with
      Serve.Protocol.id = 100; mc_trials = 16 }
  in
  with_server_multi (fun connect ->
      let ask c r =
        match Serve.Client.request_raw c r with
        | Ok raw -> raw
        | Error e -> Alcotest.failf "request failed: %s" e.Serve.Protocol.message
      in
      let warm_client = connect () in
      Fun.protect ~finally:(fun () -> Serve.Client.close warm_client)
      @@ fun () ->
      let warm = ask warm_client req in
      let ds =
        List.map
          (fun id ->
            Domain.spawn (fun () ->
                let c = connect () in
                Fun.protect
                  ~finally:(fun () -> Serve.Client.close c)
                  (fun () -> ask c { req with Serve.Protocol.id })))
          [ 101; 102 ]
      in
      let replies = List.map Domain.join ds in
      let strip raw =
        Serve.Codec_bin.encode_response
          { (Serve.Codec_bin.decode_response raw) with Serve.Protocol.r_id = 0 }
      in
      List.iter2
        (fun id raw ->
          Alcotest.(check int) "hit echoes the caller's id" id
            (Serve.Codec_bin.decode_response raw).Serve.Protocol.r_id;
          Alcotest.(check string) "hit payload matches the cached result"
            (strip warm) (strip raw))
        [ 101; 102 ] replies;
      Alcotest.(check bool) "both answered from the cache" true
        (List.mem "cache_hits 2"
           (String.split_on_char '\n' (Serve.Client.stats warm_client))))

(* ---------- a cache hit is answered while the queue is full ---------- *)

let test_cache_hit_when_queue_full () =
  (* With one slot, a slow request fills the queue.  A replay of a
     cached payload must still be answered (from the cache, under its
     own id); a payload the cache has not seen is refused busy. *)
  let tweak c = { c with Serve.Server.queue_depth = 1 } in
  let warm_req =
    { (Serve.Protocol.default_request ~tree:small_tree) with
      Serve.Protocol.id = 1 }
  in
  let slow_req =
    {
      (Serve.Protocol.default_request
         ~tree:
           (Rctree.Generate.random_steiner ~seed:4 ~sinks:20 ~die_um:4000.0 ()))
      with
      Serve.Protocol.id = 2;
      mc_trials = 40_000;
    }
  in
  with_server_multi ~jobs:2 ~tweak (fun connect ->
      let ctl = connect () in
      Fun.protect ~finally:(fun () -> Serve.Client.close ctl) @@ fun () ->
      let warm =
        match Serve.Client.request_raw ctl warm_req with
        | Ok raw -> raw
        | Error e -> Alcotest.failf "warm-up failed: %s" e.Serve.Protocol.message
      in
      let slow =
        Domain.spawn (fun () ->
            let c = connect () in
            Fun.protect
              ~finally:(fun () -> Serve.Client.close c)
              (fun () -> Serve.Client.request_raw c slow_req))
      in
      (* The slow request holds the slot once it counts as a miss. *)
      let rec admitted tries =
        let lines = String.split_on_char '\n' (Serve.Client.stats ctl) in
        if List.mem "cache_misses 2" lines then ()
        else if tries = 0 then Alcotest.fail "the slow request never arrived"
        else begin
          Unix.sleepf 0.01;
          admitted (tries - 1)
        end
      in
      admitted 500;
      let c = connect () in
      Fun.protect ~finally:(fun () -> Serve.Client.close c) (fun () ->
          (match
             Serve.Client.request_raw c { warm_req with Serve.Protocol.id = 3 }
           with
          | Ok raw ->
            Alcotest.(check int) "replay carries its own id" 3
              (Serve.Codec_bin.response_id raw);
            Alcotest.(check string) "replay bytes = warm bytes but the id"
              (Serve.Codec_bin.with_response_id warm 0)
              (Serve.Codec_bin.with_response_id raw 0)
          | Error e ->
            Alcotest.failf "replay refused while the queue was full: %s %s"
              e.Serve.Protocol.code e.Serve.Protocol.message);
          match
            Serve.Client.request c
              { warm_req with Serve.Protocol.id = 4; seed = 99 }
          with
          | Ok _ -> Alcotest.fail "a new payload must be refused while full"
          | Error e ->
            Alcotest.(check string) "new payload refused busy"
              Serve.Protocol.err_busy e.Serve.Protocol.code);
      match Domain.join slow with
      | Ok _ -> ()
      | Error e -> Alcotest.failf "slow request failed: %s" e.Serve.Protocol.message)

(* ---------- trace request ---------- *)

let with_obs enabled f =
  let was = Obs.Control.on () in
  if enabled then Obs.Control.enable () else Obs.Control.disable ();
  Fun.protect
    ~finally:(fun () ->
      if was then Obs.Control.enable () else Obs.Control.disable ())
    f

let contains haystack needle =
  let nh = String.length haystack and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub haystack i nn = needle || go (i + 1)) in
  go 0

let test_trace_request () =
  with_obs true (fun () ->
      Obs.Span.clear ();
      with_server ~jobs:2 (fun client ->
          (match Serve.Client.request client
                   { (Serve.Protocol.default_request ~tree:small_tree) with
                     Serve.Protocol.id = 1 }
          with
          | Ok _ -> ()
          | Error e -> Alcotest.failf "request failed: %s" e.Serve.Protocol.message);
          (* The worker flushes its span right after completing the
             future, which can land a hair after our response frame:
             poll briefly instead of racing it. *)
          let rec poll tries =
            let payload = Serve.Client.trace client in
            if contains payload "\"name\":\"request\"" || tries = 0 then payload
            else begin
              Unix.sleepf 0.02;
              poll (tries - 1)
            end
          in
          let payload = poll 50 in
          Alcotest.(check bool) "chrome trace shape" true
            (contains payload "{\"traceEvents\":[");
          Alcotest.(check bool) "request span present" true
            (contains payload "\"name\":\"request\"");
          Alcotest.(check bool) "serve category" true
            (contains payload "\"cat\":\"serve\"")))

let suite =
  [
    Alcotest.test_case "request round-trip" `Quick test_request_roundtrip;
    Alcotest.test_case "response round-trip" `Quick test_response_roundtrip;
    Alcotest.test_case "error round-trip" `Quick test_error_roundtrip;
    Alcotest.test_case "expired deadline trips the budget" `Quick
      test_handler_deadline;
    Alcotest.test_case "error isolation, stats, shutdown" `Quick
      test_server_errors_and_requests;
    Alcotest.test_case "deadline maps to a deadline error" `Quick
      test_server_deadline;
    Alcotest.test_case "byte-identical at jobs 1 and 4" `Quick
      test_determinism_across_jobs;
    Alcotest.test_case "cache key canonicalisation" `Quick test_cache_key;
    Alcotest.test_case "cache LRU eviction" `Quick test_cache_lru;
    Alcotest.test_case "cache hit end to end" `Quick test_cache_end_to_end;
    Alcotest.test_case "cache disabled" `Quick test_cache_disabled;
    Alcotest.test_case "latency metrics cover ok only" `Quick
      test_metrics_latency_ok_only;
    Alcotest.test_case "cache hit ratio and per-kind counters" `Quick
      test_metrics_hit_ratio_and_kinds;
    Alcotest.test_case "rendered stats line set matches the documented contract"
      `Quick test_metrics_line_set;
    Alcotest.test_case "wire resync after oversized frame" `Quick
      test_wire_resync_after_oversized;
    Alcotest.test_case "cache hits from concurrent clients" `Quick
      test_cache_hit_concurrent_clients;
    Alcotest.test_case "trace request" `Quick test_trace_request;
    Alcotest.test_case "latency percentiles follow the samples" `Quick
      test_metrics_latency_percentiles;
    Alcotest.test_case "cache hit answered while the queue is full" `Quick
      test_cache_hit_when_queue_full;
    Alcotest.test_case "deadline bounds the Monte-Carlo run" `Quick
      test_handler_mc_deadline;
  ]
