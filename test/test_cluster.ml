(* End-to-end tests for lib/cluster: the routed path must be
   byte-identical to a single server at any shard count (including
   cache-hit answers, error replies and requests spilled off a busy
   home), the home shard must be a pure function of the payload (ids
   and deadlines aside), a busy or dead home must send new work to a
   ready shard, a replay must be answered at the router's front without
   reaching a worker while no error reply is ever stored there, the
   bounded queues must refuse overload with busy, the router must link
   up as soon as its worker listens, and a worker response reaches the
   client verbatim even when it does not decode. *)

let streeq = Alcotest.(check (list string))

(* The canonical 100-request stream of the determinism contract:
   10 distinct nets, each requested 10 times (interleaved), so every
   net is a cache miss once and a cache hit thereafter. *)
let distinct_trees =
  lazy
    (Array.init 10 (fun i ->
         Rctree.Generate.random_steiner ~seed:(100 + i) ~sinks:(6 + i)
           ~die_um:3000.0 ()))

let stream_request k =
  let trees = Lazy.force distinct_trees in
  {
    (Serve.Protocol.default_request ~tree:trees.(k mod 10)) with
    Serve.Protocol.id = k;
    seed = 5;
    mode = Experiments.Common.Wid;
    rule = Bufins.Prune.two_param ~p_l:0.6 ~p_t:0.6 ();
  }

(* The same stream with seed [base + id]: streams of different bases
   share no payload, so none of their replies comes from a front's
   cache. *)
let distinct_request ~base k =
  { (stream_request k) with Serve.Protocol.seed = base + k }

(* Raw response payloads for requests [0, n) over one connection. *)
let run_stream ?(n = 100) ?(request = stream_request) socket =
  let client = Serve.Client.connect socket in
  Fun.protect ~finally:(fun () -> Serve.Client.close client) @@ fun () ->
  List.init n (fun k ->
      match Serve.Client.request_raw client (request k) with
      | Ok payload -> payload
      | Error e ->
        Alcotest.failf "request %d failed: %s %s" k e.Serve.Protocol.code
          e.Serve.Protocol.message)

let fresh_base name =
  Filename.concat
    (Filename.get_temp_dir_name ())
    (Printf.sprintf "varbuf-%s-%d" name (Unix.getpid ()))

let rec wait_for_file ?(tries = 250) path =
  if Sys.file_exists path then ()
  else if tries = 0 then Alcotest.failf "%s did not appear" path
  else begin
    Unix.sleepf 0.02;
    wait_for_file ~tries:(tries - 1) path
  end

(* [f socket] against a plain router-less server. *)
let with_direct_server f =
  let socket_path = fresh_base "direct" ^ ".sock" in
  let stop = Atomic.make false in
  let server =
    Domain.spawn (fun () ->
        Serve.Server.run
          ~should_stop:(fun () -> Atomic.get stop)
          { (Serve.Server.default_config ~socket_path) with jobs = 2 })
  in
  Fun.protect
    ~finally:(fun () ->
      Atomic.set stop true;
      Domain.join server)
    (fun () ->
      wait_for_file socket_path;
      f socket_path)

let home_of ~shards req =
  Cluster.Router.shard_of_request ~shards (Serve.Codec_bin.encode_request req)

(* About 0.4 s of Monte-Carlo on a worker's two jobs, in little
   memory: still running when the next request arrives. *)
let slow_request =
  {
    (Serve.Protocol.default_request
       ~tree:(Rctree.Generate.random_steiner ~seed:7 ~sinks:30 ~die_um:3000.0 ()))
    with
    Serve.Protocol.id = 1;
    mc_trials = 20_000;
  }

(* A fast 8-sink request with the given id whose home is [home]. *)
let homed_at ~shards home ~id =
  let rec go seed =
    let req =
      {
        (Serve.Protocol.default_request
           ~tree:(Rctree.Generate.random_steiner ~seed ~sinks:8 ~die_um:3000.0 ()))
        with
        Serve.Protocol.id;
      }
    in
    if home_of ~shards req = home then req else go (seed + 1)
  in
  go 1

let request_frame req =
  Serve.Wire.frame_bytes ~kind:"request" (Serve.Codec_bin.encode_request req)

(* The raw payload of the next reply frame, which must be a response. *)
let read_payload (fd, dec) =
  match Serve.Wire.recv dec fd with
  | Serve.Wire.Frame { kind = "response"; payload } -> payload
  | Serve.Wire.Frame { kind; _ } ->
    Alcotest.failf "expected a response, got %s" kind
  | Serve.Wire.Oversized _ -> Alcotest.fail "expected a response, got oversized"

let payload_of what = function
  | Ok payload -> payload
  | Error e ->
    Alcotest.failf "%s failed: %s %s" what e.Serve.Protocol.code
      e.Serve.Protocol.message

(* Poll [client]'s stats until [ok] holds for its lines (at most 10 s). *)
let await_stats client what ok =
  let deadline = Unix.gettimeofday () +. 10.0 in
  let rec go () =
    let lines = String.split_on_char '\n' (Serve.Client.stats client) in
    if ok lines then lines
    else if Unix.gettimeofday () > deadline then
      Alcotest.failf "stats never showed %s" what
    else begin
      Unix.sleepf 0.005;
      go ()
    end
  in
  go ()

(* Wait until every shard of an [Inproc] cluster holds its 2 ready
   links: before that, a request whose home is not linked yet goes to a
   shard that is. *)
let await_linked client ~shards =
  let want = List.init shards (Printf.sprintf "cluster_shard_%d_links 2") in
  ignore
    (await_stats client "every shard linked" (fun lines ->
         List.for_all (fun l -> List.mem l lines) want))

let test_shard_counts_agree () =
  let one = Cluster.Inproc.with_cluster ~shards:1 run_stream in
  let three = Cluster.Inproc.with_cluster ~shards:3 run_stream in
  streeq "1-shard and 3-shard raw response payloads" one three;
  (* And both equal a plain router-less server: the cluster adds
     routing, not semantics. *)
  let direct = with_direct_server run_stream in
  streeq "cluster equals a single router-less server" one direct

(* ---------- error replies: router and server must agree ---------- *)

(* A raw connection, for bytes no client would send. *)
let raw_connect socket =
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_UNIX socket);
  let dec = Serve.Wire.decoder ~max_payload:(64 * 1024 * 1024) () in
  (match Serve.Wire.recv dec fd with
  | Serve.Wire.Frame { kind = "hello"; _ } -> ()
  | _ -> Alcotest.fail "expected hello");
  (fd, dec)

let write_all fd s =
  let rec go off =
    if off < String.length s then
      go (off + Unix.write_substring fd s off (String.length s - off))
  in
  go 0

(* One reply frame, as text to compare: errors by code and message,
   anything else by kind and bytes. *)
let read_reply (fd, dec) =
  match Serve.Wire.recv dec fd with
  | Serve.Wire.Frame { kind = "error"; payload } ->
    let e = Serve.Codec_bin.decode_error payload in
    Printf.sprintf "error %s: %s" e.Serve.Protocol.code e.Serve.Protocol.message
  | Serve.Wire.Frame { kind; payload } ->
    Printf.sprintf "%s %s" kind (Digest.to_hex (Digest.string payload))
  | Serve.Wire.Oversized _ -> "oversized reply"
  | exception
      (Serve.Wire.Closed | Failure _ | Unix.Unix_error (Unix.ECONNRESET, _, _))
    ->
    "closed"

let valid_request () =
  Serve.Wire.frame_bytes ~kind:"request"
    (Serve.Codec_bin.encode_request (stream_request 3))

(* Sampled requests whose relax lies outside (0, 1]: each earns one
   parse error, and the connection survives. *)
let bad_relax =
  lazy
    (List.map
       (fun relax ->
         let req =
           { (stream_request 5) with Serve.Protocol.samples = 64; relax }
         in
         ( Printf.sprintf "v2 request with relax %g" relax,
           Serve.Wire.frame_bytes ~kind:"request"
             (Serve.Codec_bin.encode_request req),
           1,
           false ))
       [ 0.0; -1.0; Float.nan; 2.0; 1e300 ])

(* A canonical 4P request under a power-aware objective: its 4P cross
   merge read no clock, so this 8-sink net held a worker far past the
   deadline.  It now earns one parse error at once. *)
let four_p_power =
  lazy
    (let tree =
       Rctree.Generate.random_steiner ~seed:211 ~sinks:8 ~die_um:4000.0 ()
     in
     let req =
       {
         (Serve.Protocol.default_request ~tree) with
         Serve.Protocol.id = 6;
         rule = Bufins.Prune.four_param ();
         objective = Bufins.Dominance.Weighted 1.0;
         deadline_ms = 2000;
       }
     in
     ( "v2 4P request with a power-aware objective",
       Serve.Wire.frame_bytes ~kind:"request"
         (Serve.Codec_bin.encode_request req),
       1,
       false ))

(* Requests for more buffer types, samples or Monte-Carlo trials than
   any workload uses: one lift over a 4096-type library, the sample
   matrix of 4e6 samples drawn before the first deadline check, or the
   streams of 10^9 trials, ran seconds past a 2-s deadline.  The router
   refuses them from the head alone. *)
let over_caps =
  lazy
    (List.map
       (fun (what, req) ->
         ( "v2 request with " ^ what,
           Serve.Wire.frame_bytes ~kind:"request"
             (Serve.Codec_bin.encode_request
                { req with Serve.Protocol.deadline_ms = 2000 }),
           1,
           false ))
       [
         ("btypes 4096", { (stream_request 7) with Serve.Protocol.btypes = 4096 });
         ("btypes 65536", { (stream_request 7) with Serve.Protocol.btypes = 65536 });
         ( "samples 4000000",
           { (stream_request 7) with Serve.Protocol.samples = 4_000_000 } );
         ( "mc_trials 1000000000",
           { (stream_request 7) with Serve.Protocol.mc_trials = 1_000_000_000 } );
       ])

(* A 2P(NaN, NaN) request: no candidate failed the NaN range check, so
   it pruned nothing and held a worker with no bound.  It now earns one
   parse error at once. *)
let nan_rule =
  lazy
    (let req =
       {
         (stream_request 9) with
         Serve.Protocol.rule =
           Bufins.Prune.Two_param { p_l = Float.nan; p_t = Float.nan };
         deadline_ms = 2000;
       }
     in
     ( "v2 request with rule 2P(nan, nan)",
       Serve.Wire.frame_bytes ~kind:"request" (Serve.Codec_bin.encode_request req),
       1,
       false ))

let refused_heads =
  lazy
    ((Lazy.force four_p_power :: Lazy.force nan_rule :: Lazy.force bad_relax)
    @ Lazy.force over_caps)

(* A sampled request whose one sink sits at x = 1e6 um: the die, hence
   the variation grid, grew to 4e6 regions, each drawn K samples before
   the first deadline check.  The head is fine, so the router forwards
   it; the worker's tree decode refuses it at once. *)
let far_sink =
  lazy
    (let sink =
       { Rctree.Tree.sink_cap = 1.0; sink_rat = 100.0; sink_name = "s1" }
     in
     let tree =
       Rctree.Tree.of_spec
         (Rctree.Tree.Node
            {
              x = 0.0;
              y = 0.0;
              children = [ (Rctree.Tree.Leaf { x = 1e6; y = 0.0; sink }, None) ];
            })
     in
     let req =
       {
         (Serve.Protocol.default_request ~tree) with
         Serve.Protocol.id = 8;
         samples = 64;
         deadline_ms = 2000;
       }
     in
     ( "v2 request with a sink at x = 1e6 um",
       Serve.Wire.frame_bytes ~kind:"request" (Serve.Codec_bin.encode_request req),
       1,
       false ))

(* Each case: name, bytes to send, how many reply frames they earn, and
   whether the connection is then closed. *)
let bad_inputs =
  lazy
    (let frame kind payload = Serve.Wire.frame_bytes ~kind payload in
     let bin = Serve.Codec_bin.encode_request (stream_request 4) in
     let off, _ = Serve.Codec_bin.request_tree_span bin in
     (* A tree node count of zero. *)
     let corrupt_tree =
       String.sub bin 0 off ^ "\000"
       ^ String.sub bin (off + 1) (String.length bin - off - 1)
     in
     let over = 8 * 1024 * 1024 + 1 in
     let oversized_v2 =
       let h = frame "request" "" in
       String.sub h 0 6 ^ "\000\128\000\001" ^ String.make over 'x'
     in
     [
       ( "v1 text in a v2 frame",
         frame "request" "id 4\nseed notanumber\ntree\n",
         1,
         false );
       ( "v2 request cut inside its head",
         frame "request" (String.sub bin 0 12),
         1,
         false );
       ("v2 request with a corrupt tree", frame "request" corrupt_tree, 1, false);
       ( "v2 request whose tree length overflows",
         frame "request" Test_codec_bin.overflow_request,
         1,
         false );
       ( "v2 request announcing 2^24 tree nodes",
         frame "request" Test_codec_bin.absurd_request,
         1,
         false );
       ("oversized v2 frame", oversized_v2, 1, false);
       ("unknown v2 kind", frame "ok" "", 1, false);
       ("v1 text header", "varbuf1 stats 0\n", 1, true);
       ( "corrupt v2 header after a v2 frame",
         frame "ok" "" ^ "\xABVB2\009\002\000\000\000\000",
         2,
         true );
       Lazy.force far_sink;
     ]
     @ Lazy.force refused_heads)

let error_replies socket =
  List.concat_map
    (fun (name, bytes, replies, closes) ->
      let conn = raw_connect socket in
      Fun.protect ~finally:(fun () -> Unix.close (fst conn)) @@ fun () ->
      write_all (fst conn) bytes;
      let first = List.init replies (fun _ -> read_reply conn) in
      let after =
        if closes then begin
          (* The daemon drops this connection but serves a new one. *)
          let closed = read_reply conn in
          let fresh = raw_connect socket in
          Fun.protect ~finally:(fun () -> Unix.close (fst fresh)) @@ fun () ->
          write_all (fst fresh) (valid_request ());
          [ closed; read_reply fresh ]
        end
        else begin
          write_all (fst conn) (valid_request ());
          [ read_reply conn ]
        end
      in
      List.map (fun r -> name ^ ": " ^ r) (first @ after))
    (Lazy.force bad_inputs)

let test_error_replies_agree () =
  let direct = with_direct_server error_replies in
  let routed = Cluster.Inproc.with_cluster ~shards:1 error_replies in
  streeq "router-less server and router reply alike" direct routed;
  (* Not vacuous: every bad input got an error, the valid request after
     it was answered, and every corrupt header closed its connection. *)
  List.iter
    (fun (name, _, _, closes) ->
      let mine =
        List.filter (String.starts_with ~prefix:(name ^ ": ")) direct
      in
      Alcotest.(check bool) (name ^ " answered with an error") true
        (List.exists (String.starts_with ~prefix:(name ^ ": error")) mine);
      Alcotest.(check bool) (name ^ " then keeps serving") true
        (List.exists (String.starts_with ~prefix:(name ^ ": response ")) mine);
      Alcotest.(check bool) (name ^ " closes only on a corrupt header") closes
        (List.mem (name ^ ": closed") mine))
    (Lazy.force bad_inputs);
  (* Bad request payloads are the request's fault, not the engine's; a
     v1 text header is the protocol's. *)
  let expect code name =
    let prefix = Printf.sprintf "%s: error %s:" name code in
    Alcotest.(check bool) (name ^ " is a " ^ code ^ " error") true
      (List.exists (String.starts_with ~prefix) direct)
  in
  List.iter
    (fun (name, _, _, _) -> expect Serve.Protocol.err_parse name)
    (Lazy.force refused_heads);
  List.iter (expect Serve.Protocol.err_parse)
    [ "v2 request whose tree length overflows";
      "v2 request announcing 2^24 tree nodes";
      "v2 request with a sink at x = 1e6 um" ];
  expect Serve.Protocol.err_proto "v1 text header"

(* ---------- a worker whose responses do not decode ---------- *)

let garbage = "\001not a binary response"

(* A fake worker on [socket_path]: it says hello on each connection,
   answers every request with a [response] frame of [garbage], and
   closes a connection on [shutdown].  [accepts] counts connections,
   so a test can tell whether the router ever dropped its link. *)
let garbage_worker ~stop ~accepts socket_path =
  let lfd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.bind lfd (Unix.ADDR_UNIX socket_path);
  Unix.listen lfd 8;
  Domain.spawn (fun () ->
      let conns = ref [] in
      let buf = Bytes.create 65536 in
      let drop fd =
        (try Unix.close fd with Unix.Unix_error _ -> ());
        conns := List.filter (fun (c, _) -> c != fd) !conns
      in
      let serve fd dec =
        match Unix.read fd buf 0 (Bytes.length buf) with
        | 0 | (exception Unix.Unix_error _) -> drop fd
        | n ->
          Serve.Wire.feed dec buf n;
          let rec frames () =
            match Serve.Wire.next dec with
            | Some (Serve.Wire.Frame { kind = "request"; _ }) ->
              Serve.Wire.write_frame fd ~kind:"response" garbage;
              frames ()
            | Some (Serve.Wire.Frame { kind = "shutdown"; _ }) -> drop fd
            | Some _ -> frames ()
            | None -> ()
          in
          frames ()
      in
      let rec loop () =
        if not (Atomic.get stop) then begin
          let readable, _, _ =
            Unix.select (lfd :: List.map fst !conns) [] [] 0.05
          in
          List.iter
            (fun fd ->
              if fd = lfd then begin
                let c, _ = Unix.accept lfd in
                Atomic.incr accepts;
                Serve.Wire.write_frame c ~kind:"hello" Serve.Protocol.hello;
                conns := (c, Serve.Wire.decoder ()) :: !conns
              end
              else
                match List.assq_opt fd !conns with
                | Some dec -> serve fd dec
                | None -> ())
            readable;
          loop ()
        end
      in
      Fun.protect
        ~finally:(fun () ->
          List.iter (fun (fd, _) -> Unix.close fd) !conns;
          Unix.close lfd)
        loop)

let test_undecodable_worker_response () =
  let base = fresh_base "garbage" in
  let router_socket = base ^ ".sock" and worker_socket = base ^ ".shard0" in
  let stop = Atomic.make false and accepts = Atomic.make 0 in
  let worker = garbage_worker ~stop ~accepts worker_socket in
  let router =
    Domain.spawn (fun () ->
        Cluster.Router.run
          ~should_stop:(fun () -> Atomic.get stop)
          {
            (Cluster.Router.default_config ~socket_path:router_socket
               ~shard_sockets:[| worker_socket |]) with
            Cluster.Router.conns_per_shard = 1;
          })
  in
  Fun.protect
    ~finally:(fun () ->
      Atomic.set stop true;
      Domain.join router;
      Domain.join worker;
      Sys.remove worker_socket)
    (fun () ->
      wait_for_file router_socket;
      (* Two requests then a stats probe on one connection.  The stats
         reply coming third shows no request earned a second frame; the
         timeout turns a lost request into a failure instead of a
         hang. *)
      let ((fd, _) as conn) = raw_connect router_socket in
      Fun.protect ~finally:(fun () -> Unix.close fd) @@ fun () ->
      Unix.setsockopt_float fd Unix.SO_RCVTIMEO 5.0;
      let ask bytes =
        write_all fd bytes;
        try read_reply conn
        with Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) ->
          "no reply"
      in
      let r1 = ask (valid_request ()) in
      let r2 = ask (valid_request ()) in
      let stats = ask (Serve.Wire.frame_bytes ~kind:"stats" "") in
      let verbatim = "response " ^ Digest.to_hex (Digest.string garbage) in
      streeq "the worker's bytes per request, then stats"
        [ verbatim; verbatim; "stats" ]
        [ r1; r2; List.hd (String.split_on_char ' ' stats) ];
      Alcotest.(check int) "the router kept its one link" 1
        (Atomic.get accepts))

let test_stats_topology_and_cache () =
  Cluster.Inproc.with_cluster ~shards:2 (fun socket ->
      let client = Serve.Client.connect socket in
      Fun.protect ~finally:(fun () -> Serve.Client.close client) @@ fun () ->
      await_linked client ~shards:2;
      ignore (run_stream ~n:30 socket);
      let lines = String.split_on_char '\n' (Serve.Client.stats client) in
      let has l =
        Alcotest.(check bool) (Printf.sprintf "stats has %S" l) true
          (List.mem l lines)
      in
      has "cluster_shards 2";
      (* One sequential connection always finds its linked home idle. *)
      has "cluster_spilled 0";
      has "ok 30";
      has "kind_request 30";
      Alcotest.(check bool) "per-shard lines present" true
        (List.exists
           (fun l ->
             String.length l >= 15 && String.sub l 0 15 = "cluster_shard_0")
           lines))

let test_shard_of_request_is_canonical () =
  let shards = 5 in
  let tree_shard k =
    let q = stream_request k in
    Cluster.Router.shard_of_request ~shards
      (Serve.Codec_bin.encode_request q)
  in
  for k = 0 to 29 do
    let s = tree_shard k in
    Alcotest.(check bool) "in range" true (s >= 0 && s < shards);
    (* Same payload, different id/deadline → same shard: home comes
       from the request's cache key, which leaves both out. *)
    let q' =
      { (stream_request k) with Serve.Protocol.id = 999_999;
        deadline_ms = 77_000 }
    in
    Alcotest.(check int) "id/deadline do not move the shard" s
      (Cluster.Router.shard_of_request ~shards
         (Serve.Codec_bin.encode_request q'));
    Alcotest.(check int) "stable across repeats" s (tree_shard k)
  done

(* ---------- dispatch: home when idle, else the least-loaded ready shard ---------- *)

let test_spill_under_load () =
  let shards = 2 in
  let slow = slow_request in
  let home = home_of ~shards slow in
  let fast = homed_at ~shards home ~id:2 in
  let routed, lines =
    Cluster.Inproc.with_cluster ~shards (fun socket ->
        let probe = Serve.Client.connect socket in
        Fun.protect ~finally:(fun () -> Serve.Client.close probe) @@ fun () ->
        await_linked probe ~shards;
        let ((fd, _) as conn) = raw_connect socket in
        Fun.protect ~finally:(fun () -> Unix.close fd) @@ fun () ->
        Unix.setsockopt_float fd Unix.SO_RCVTIMEO 30.0;
        write_all fd (request_frame slow);
        (* Only once the slow request holds its home's link does the
           fast one go out, so the spill does not hang on timing. *)
        let busy = Printf.sprintf "cluster_shard_%d_inflight 1" home in
        ignore (await_stats probe busy (List.mem busy));
        let second = Serve.Client.connect socket in
        let fast_reply =
          Fun.protect ~finally:(fun () -> Serve.Client.close second) (fun () ->
              payload_of "fast request" (Serve.Client.request_raw second fast))
        in
        let slow_reply = read_payload conn in
        ( [ slow_reply; fast_reply ],
          String.split_on_char '\n' (Serve.Client.stats probe) ))
  in
  Alcotest.(check bool) "the fast request spilled off its busy home" true
    (List.mem "cluster_spilled 1" lines);
  let direct =
    with_direct_server (fun socket ->
        let client = Serve.Client.connect socket in
        Fun.protect ~finally:(fun () -> Serve.Client.close client) @@ fun () ->
        List.map
          (fun req ->
            payload_of "direct request" (Serve.Client.request_raw client req))
          [ slow; fast ])
  in
  streeq "spilled and home replies equal a router-less server's" direct routed

let test_dead_home_does_not_strand () =
  (* Shard 0's worker never exists.  Once shard 1 links up, a request
     whose home is shard 0 must be answered by shard 1 rather than wait
     in shard 0's queue until the drain fails it.  The router keeps no
     cache, so it reads the home key itself. *)
  let base = fresh_base "deadhome" in
  let router_socket = base ^ ".sock" and worker_socket = base ^ ".shard1" in
  let stop = Atomic.make false in
  let should_stop () = Atomic.get stop in
  let worker =
    Domain.spawn (fun () ->
        Serve.Server.run ~should_stop
          { (Serve.Server.default_config ~socket_path:worker_socket) with
            jobs = 1 })
  in
  let router =
    Domain.spawn (fun () ->
        Cluster.Router.run ~should_stop
          {
            (Cluster.Router.default_config ~socket_path:router_socket
               ~shard_sockets:[| base ^ ".nowhere"; worker_socket |]) with
            Cluster.Router.cache_entries = 0;
          })
  in
  Fun.protect
    ~finally:(fun () ->
      Atomic.set stop true;
      Domain.join router;
      Domain.join worker)
    (fun () ->
      wait_for_file router_socket;
      let client = Serve.Client.connect router_socket in
      Fun.protect ~finally:(fun () -> Serve.Client.close client) @@ fun () ->
      ignore
        (await_stats client "a ready link to shard 1"
           (List.exists (fun l ->
                String.starts_with ~prefix:"cluster_shard_1_links " l
                && l <> "cluster_shard_1_links 0")));
      let rec homed_at_0 k =
        let req = stream_request k in
        if home_of ~shards:2 req = 0 then req else homed_at_0 (k + 1)
      in
      let req = homed_at_0 0 in
      let ((fd, _) as conn) = raw_connect router_socket in
      Fun.protect ~finally:(fun () -> Unix.close fd) @@ fun () ->
      Unix.setsockopt_float fd Unix.SO_RCVTIMEO 5.0;
      write_all fd (request_frame req);
      let reply =
        try read_reply conn
        with Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) ->
          "no reply"
      in
      let expected =
        Serve.Codec_bin.encode_response (Serve.Handler.run req)
      in
      Alcotest.(check string) "answered by shard 1"
        ("response " ^ Digest.to_hex (Digest.string expected))
        reply;
      Alcotest.(check bool) "counted as spilled" true
        (List.mem "cluster_spilled 1"
           (String.split_on_char '\n' (Serve.Client.stats client))))

let test_concurrent_bytes () =
  (* Two connections send a stream each at once, the second five nets
     ahead, so a request often finds its home busy with the other
     connection's and spills.  The streams' seeds differ, so no payload
     repeats and the router's front answers none of them.  Every reply
     keeps the bytes a router-less server gives. *)
  let request_a = distinct_request ~base:1000
  and request_b = distinct_request ~base:2000 in
  let direct_a, direct_b =
    with_direct_server (fun socket ->
        ( Array.of_list (run_stream ~request:request_a socket),
          Array.of_list (run_stream ~request:request_b socket) ))
  in
  let routed, spilled =
    Cluster.Inproc.with_cluster ~shards:2 (fun socket ->
        let a = raw_connect socket and b = raw_connect socket in
        Fun.protect
          ~finally:(fun () -> List.iter (fun (fd, _) -> Unix.close fd) [ a; b ])
        @@ fun () ->
        List.iter
          (fun (fd, _) -> Unix.setsockopt_float fd Unix.SO_RCVTIMEO 30.0)
          [ a; b ];
        let replies =
          List.init 100 (fun k ->
              let kb = (k + 5) mod 100 in
              write_all (fst a) (request_frame (request_a k));
              write_all (fst b) (request_frame (request_b kb));
              let ra = read_payload a in
              [
                (Printf.sprintf "a's request %d" k, direct_a.(k), ra);
                (Printf.sprintf "b's request %d" kb, direct_b.(kb), read_payload b);
              ])
        in
        let client = Serve.Client.connect socket in
        Fun.protect ~finally:(fun () -> Serve.Client.close client) @@ fun () ->
        let stats = String.split_on_char '\n' (Serve.Client.stats client) in
        ( List.concat replies,
          List.find_map
            (fun l -> Scanf.sscanf_opt l "cluster_spilled %d%!" Fun.id)
            stats ))
  in
  (* 40 of the 100 steps send two requests with one home; all 40
     spilled in trial runs. *)
  Alcotest.(check bool) "some requests spilled" true
    (match spilled with Some n -> n > 0 | None -> false);
  List.iter
    (fun (what, expected, payload) ->
      Alcotest.(check string) what
        (Digest.to_hex (Digest.string expected))
        (Digest.to_hex (Digest.string payload)))
    routed

(* ---------- the router's front holds the cluster's one cache ---------- *)

let stats_lines client = String.split_on_char '\n' (Serve.Client.stats client)

(* The [requests] line of each worker's own stats. *)
let worker_requests socket ~shards =
  List.init shards (fun i ->
      let c = Serve.Client.connect (Cluster.Inproc.shard_socket socket i) in
      Fun.protect ~finally:(fun () -> Serve.Client.close c) @@ fun () ->
      match
        List.find_map
          (fun l -> Scanf.sscanf_opt l "requests %d%!" Fun.id)
          (stats_lines c)
      with
      | Some n -> n
      | None -> Alcotest.failf "shard %d's stats have no requests line" i)

let test_replay_answered_at_front () =
  (* A replay arrives while its home is busy with the slow request: it
     is answered at the router from the first reply, and no worker sees
     it.  (A worker-side cache would have sent it to the idle shard to
     be recomputed.) *)
  let shards = 2 in
  let home = home_of ~shards slow_request in
  let fast = homed_at ~shards home ~id:2 in
  Cluster.Inproc.with_cluster ~shards (fun socket ->
      let client = Serve.Client.connect socket in
      Fun.protect ~finally:(fun () -> Serve.Client.close client) @@ fun () ->
      await_linked client ~shards;
      let first =
        payload_of "first request" (Serve.Client.request_raw client fast)
      in
      let before = worker_requests socket ~shards in
      let ((fd, _) as conn) = raw_connect socket in
      Fun.protect ~finally:(fun () -> Unix.close fd) @@ fun () ->
      Unix.setsockopt_float fd Unix.SO_RCVTIMEO 30.0;
      write_all fd (request_frame slow_request);
      let busy = Printf.sprintf "cluster_shard_%d_inflight 1" home in
      ignore (await_stats client busy (List.mem busy));
      let replay =
        payload_of "replay"
          (Serve.Client.request_raw client { fast with Serve.Protocol.id = 3 })
      in
      Alcotest.(check string) "the first reply's bytes under the new id"
        (Serve.Codec_bin.with_response_id first 3)
        replay;
      ignore (read_payload conn : string);
      Alcotest.(check bool) "the router counts one hit" true
        (List.mem "cache_hits 1" (stats_lines client));
      (* Only the slow request reached a worker: its home. *)
      Alcotest.(check (list int)) "workers' requests"
        (List.mapi (fun i n -> if i = home then n + 1 else n) before)
        (worker_requests socket ~shards))

let test_error_reply_not_stored () =
  (* A deadline trip depends on the budget, not the payload: the same
     payload with no deadline is computed, and only then stored. *)
  Cluster.Inproc.with_cluster ~shards:2 (fun socket ->
      let client = Serve.Client.connect socket in
      Fun.protect ~finally:(fun () -> Serve.Client.close client) @@ fun () ->
      (match
         Serve.Client.request_raw client
           { slow_request with Serve.Protocol.deadline_ms = 50 }
       with
      | Ok _ -> Alcotest.fail "a 50-ms deadline must trip"
      | Error e ->
        Alcotest.(check string) "a deadline error" Serve.Protocol.err_deadline
          e.Serve.Protocol.code);
      let computed =
        payload_of "the payload with no deadline"
          (Serve.Client.request_raw client
             { slow_request with Serve.Protocol.id = 4 })
      in
      let third =
        payload_of "a third copy"
          (Serve.Client.request_raw client
             { slow_request with Serve.Protocol.id = 5; deadline_ms = 60_000 })
      in
      Alcotest.(check string) "the third copy is the computed reply"
        (Serve.Codec_bin.with_response_id computed 5)
        third;
      let lines = stats_lines client in
      List.iter
        (fun l ->
          Alcotest.(check bool) (Printf.sprintf "stats has %S" l) true
            (List.mem l lines))
        [ "cache_hits 1"; "cache_misses 2"; "error_deadline 1" ])

let test_busy_backpressure_and_drain () =
  (* A router whose single worker does not exist: requests queue up to
     queue_depth, the next is refused with busy immediately, and a
     drain fails the unreachable queue rather than hanging. *)
  let socket_path = fresh_base "router" ^ ".sock" in
  let stop = Atomic.make false in
  let router =
    Domain.spawn (fun () ->
        Cluster.Router.run
          ~should_stop:(fun () -> Atomic.get stop)
          {
            (Cluster.Router.default_config ~socket_path
               ~shard_sockets:[| socket_path ^ ".nowhere" |]) with
            Cluster.Router.queue_depth = 2;
          })
  in
  wait_for_file socket_path;
  Fun.protect
    ~finally:(fun () ->
      Atomic.set stop true;
      Domain.join router)
    (fun () ->
      let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
      Fun.protect ~finally:(fun () -> try Unix.close fd with _ -> ())
      @@ fun () ->
      Unix.connect fd (Unix.ADDR_UNIX socket_path);
      let dec = Serve.Wire.decoder () in
      (match Serve.Wire.recv dec fd with
      | Serve.Wire.Frame { kind = "hello"; payload; _ } ->
        Serve.Protocol.check_hello payload
      | _ -> Alcotest.fail "expected hello");
      (* Three requests into a depth-2 queue with no worker: the first
         two pend, the third must bounce with busy while they are
         still queued. *)
      let payload =
        Serve.Codec_bin.encode_request (stream_request 0)
      in
      for _ = 1 to 3 do
        Serve.Wire.write_frame fd ~kind:"request" payload
      done;
      (match Serve.Wire.recv dec fd with
      | Serve.Wire.Frame { kind = "error"; payload; _ } ->
        let e = Serve.Codec_bin.decode_error payload in
        Alcotest.(check string) "refused with busy" Serve.Protocol.err_busy
          e.Serve.Protocol.code
      | _ -> Alcotest.fail "expected a busy error frame");
      (* Ask for a drain: the two queued requests have no worker to go
         to, so they must come back as errors promptly instead of
         holding the shutdown open. *)
      Atomic.set stop true;
      let deadline = Unix.gettimeofday () +. 5.0 in
      let rec collect acc =
        if List.length acc >= 2 || Unix.gettimeofday () > deadline then acc
        else
          match Serve.Wire.recv dec fd with
          | Serve.Wire.Frame { kind = "error"; payload; _ } ->
            collect (Serve.Codec_bin.decode_error payload :: acc)
          | Serve.Wire.Frame _ -> collect acc
          | Serve.Wire.Oversized _ -> collect acc
          | exception (Serve.Wire.Closed | Failure _ | Unix.Unix_error _) ->
            acc
      in
      let errors = collect [] in
      Alcotest.(check int) "both queued requests failed on drain" 2
        (List.length errors))

let test_links_up_soon_after_worker_binds () =
  (* The router starts before its worker exists.  Once the worker binds
     (about 50 ms later) every link must be ready within 0.2 s: failed
     dials back off from 10 ms, and one pass opens every missing
     link. *)
  let base = fresh_base "linkup" in
  let router_socket = base ^ ".sock" and worker_socket = base ^ ".shard0" in
  let conns = 4 in
  let stop = Atomic.make false in
  let should_stop () = Atomic.get stop in
  let router =
    Domain.spawn (fun () ->
        Cluster.Router.run ~should_stop
          {
            (Cluster.Router.default_config ~socket_path:router_socket
               ~shard_sockets:[| worker_socket |]) with
            Cluster.Router.conns_per_shard = conns;
          })
  in
  let worker = ref None in
  Fun.protect
    ~finally:(fun () ->
      Atomic.set stop true;
      Domain.join router;
      Option.iter Domain.join !worker)
    (fun () ->
      wait_for_file router_socket;
      let client = Serve.Client.connect router_socket in
      Fun.protect ~finally:(fun () -> Serve.Client.close client) @@ fun () ->
      Unix.sleepf 0.05;
      let started = Unix.gettimeofday () in
      worker :=
        Some
          (Domain.spawn (fun () ->
               Serve.Server.run ~should_stop
                 { (Serve.Server.default_config ~socket_path:worker_socket) with
                   jobs = 1 }));
      let ready = Printf.sprintf "cluster_shard_0_links %d" conns in
      let rec wait () =
        let elapsed = Unix.gettimeofday () -. started in
        let stats = Serve.Client.stats client in
        if List.mem ready (String.split_on_char '\n' stats) then elapsed
        else if elapsed > 5.0 then Alcotest.fail "links never came up"
        else begin
          Unix.sleepf 0.005;
          wait ()
        end
      in
      let elapsed = wait () in
      Alcotest.(check bool)
        (Printf.sprintf "all links ready %.3f s after the worker started"
           elapsed)
        true (elapsed < 0.2))

let suite =
  [
    Alcotest.test_case "1-shard, 3-shard and router-less responses are byte-identical"
      `Slow test_shard_counts_agree;
    Alcotest.test_case "stats report topology and traffic" `Quick
      test_stats_topology_and_cache;
    Alcotest.test_case "sharding is canonical in the tree" `Quick
      test_shard_of_request_is_canonical;
    Alcotest.test_case "router-less server and router give the same error replies"
      `Slow test_error_replies_agree;
    Alcotest.test_case "undecodable worker response: verbatim" `Quick
      test_undecodable_worker_response;
    Alcotest.test_case "router links up soon after its worker binds" `Quick
      test_links_up_soon_after_worker_binds;
    Alcotest.test_case "bounded queue refuses overload; drain fails stuck work"
      `Quick test_busy_backpressure_and_drain;
    Alcotest.test_case "a request whose home is busy spills to an idle shard"
      `Quick test_spill_under_load;
    Alcotest.test_case "a dead home does not strand new work" `Quick
      test_dead_home_does_not_strand;
    Alcotest.test_case "two concurrent streams keep a router-less server's bytes"
      `Slow test_concurrent_bytes;
    Alcotest.test_case "a replay is answered at the router while its home is busy"
      `Quick test_replay_answered_at_front;
    Alcotest.test_case "an error reply is never stored at the router" `Quick
      test_error_reply_not_stored;
  ]
