(* The served-request benchmark.

   One run spawns the real deployment — `varbuf-serve cluster --shards 2
   --jobs-per-shard 1` — as a child process, drives one workload at it
   closed-loop over two v2 connections for a fixed time, checks every
   response, and reports the end-to-end metrics.  With --trace 1 it then
   measures each layer from outside: it times calls into the layers'
   public functions in-process, and replays the first requests serially
   against a plain cluster and against one started with VARBUF_OBS=1,
   whose public stats lines and span buffers it reads.

   The last line of standard output is one JSON object with the keys
   correct, attempted, failed and metrics; the full record of the run
   goes to a JSON file under --out.  The exit code is 1 when any
   response failed or did not match. *)

open E2e_workload
module P = Serve.Protocol
module C = Serve.Codec_bin
module W = Workload

let shards = 2
let jobs_per_shard = 1
let connections = 2

(* Clusters spawned per run to time set-up; the last one serves the
   timed phase, and setup_s is the median. *)
let setups = 7

let now = Unix.gettimeofday

let fail fmt = Printf.ksprintf failwith fmt

(* ---------- options ---------- *)

type opts = {
  workload : W.name;
  seed : int;
  seconds : float;
  trace : bool;
  out_dir : string;
  serve_exe : string;
}

let parse_opts () =
  let workload = ref "" and seed = ref 1 and seconds = ref 25.0
  and trace = ref 0 and out_dir = ref "bench/e2e/results/local"
  and serve_exe = ref "_build/default/bin/serve_main.exe" in
  let names = String.concat ", " (List.map W.to_string W.all) in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME one of " ^ names);
      ("--seed", Arg.Set_int seed, "N input seed (default 1)");
      ("--seconds", Arg.Set_float seconds, "S length of the timed phase (default 25)");
      ("--trace", Arg.Set_int trace, "0|1 add the per-layer pass (default 0)");
      ("--out", Arg.Set_string out_dir, "DIR where run JSON and traces go");
      ("--serve-exe", Arg.Set_string serve_exe, "PATH the varbuf-serve binary");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "main.exe --workload NAME [--seed N] [--seconds S] [--trace 0|1]";
  match W.of_string !workload with
  | None -> raise (Arg.Bad (Printf.sprintf "--workload must be one of %s" names))
  | Some workload ->
    if !trace <> 0 && !trace <> 1 then raise (Arg.Bad "--trace must be 0 or 1");
    if !seconds <= 0.0 then raise (Arg.Bad "--seconds must be positive");
    { workload; seed = !seed; seconds = !seconds; trace = !trace = 1;
      out_dir = !out_dir; serve_exe = !serve_exe }

(* ---------- files and helper processes ---------- *)

let rec mkdir_p dir =
  if not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

let read_file path = In_channel.with_open_bin path In_channel.input_all

let write_file path s =
  Out_channel.with_open_bin path (fun oc -> Out_channel.output_string oc s)

let open_log path =
  Unix.openfile path [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_APPEND ] 0o644

(* First line a helper command prints, with its stderr in [log]; None if
   it cannot run or fails. *)
let capture ~log prog args =
  match Unix.pipe ~cloexec:true () with
  | exception Unix.Unix_error _ -> None
  | r, w -> (
    let err = open_log log in
    let pid =
      try Some (Unix.create_process prog (Array.of_list (prog :: args)) Unix.stdin w err)
      with Unix.Unix_error _ -> None
    in
    Unix.close w;
    Unix.close err;
    let ic = Unix.in_channel_of_descr r in
    let line = try Some (String.trim (input_line ic)) with End_of_file -> None in
    close_in ic;
    match pid with
    | None -> None
    | Some pid -> (
      match Unix.waitpid [] pid with
      | _, Unix.WEXITED 0 -> line
      | _ -> None))

(* ---------- the cluster under test ---------- *)

type cluster = { pid : int; socket : string; mutable reaped : bool }

let running : cluster list ref = ref []

let scrubbed_env ~obs =
  let keep kv =
    not
      (String.starts_with ~prefix:"VARBUF_OBS=" kv
      || String.starts_with ~prefix:"VARBUF_JOBS=" kv)
  in
  let env = List.filter keep (Array.to_list (Unix.environment ())) in
  Array.of_list (if obs then "VARBUF_OBS=1" :: env else env)

let spawn ~exe ~dir ~obs index =
  let socket = Filename.concat dir (Printf.sprintf "c%d.sock" index) in
  let log = open_log (Filename.concat dir (Printf.sprintf "c%d.log" index)) in
  let argv =
    [| exe; "cluster"; "--socket"; socket; "--shards"; string_of_int shards;
       "--jobs-per-shard"; string_of_int jobs_per_shard |]
  in
  let pid =
    Fun.protect ~finally:(fun () -> Unix.close log) (fun () ->
        Unix.create_process_env exe argv (scrubbed_env ~obs) Unix.stdin log log)
  in
  let c = { pid; socket; reaped = false } in
  running := c :: !running;
  c

let shard_socket c i = Printf.sprintf "%s.shard%d" c.socket i

let exited c =
  c.reaped
  ||
  match Unix.waitpid [ Unix.WNOHANG ] c.pid with
  | 0, _ -> false
  | _ -> c.reaped <- true; true
  | exception Unix.Unix_error (Unix.ECHILD, _, _) -> c.reaped <- true; true

(* Wait for the child to end: [grace] seconds, then SIGKILL. *)
let reap ?(grace = 60.0) c =
  let deadline = now () +. grace in
  while not (exited c) do
    if now () > deadline then begin
      (try Unix.kill c.pid Sys.sigkill with Unix.Unix_error _ -> ());
      (try ignore (Unix.waitpid [] c.pid) with Unix.Unix_error _ -> ());
      c.reaped <- true
    end
    else Unix.sleepf 0.005
  done;
  running := List.filter (fun x -> x != c) !running

let kill_all () =
  List.iter
    (fun c -> try Unix.kill c.pid Sys.sigterm with Unix.Unix_error _ -> ())
    !running;
  List.iter (reap ~grace:10.0) !running

let connect_to c socket =
  let deadline = now () +. 60.0 in
  let rec go () =
    match Serve.Client.connect_addr ~wire:Serve.Wire.V2 (Serve.Client.Unix_sock socket) with
    | client -> client
    | exception (Unix.Unix_error _ | Failure _) ->
      if exited c then fail "varbuf-serve exited during start-up (see its log)";
      if now () > deadline then fail "varbuf-serve did not accept connections";
      (* Fine-grained: set-up takes a few milliseconds. *)
      Unix.sleepf 0.0005;
      go ()
  in
  go ()

(* ---------- requests ---------- *)

type reply = Reply of string | Failed of string

(* A reply to [req] is ok only if it decodes and echoes the request's
   id. *)
let judge (req : P.request) (f : Serve.Wire.frame) =
  match f with
  | { Serve.Wire.kind = "response"; payload; _ } -> (
    match C.decode_response payload with
    | r when r.P.r_id = req.P.id -> Reply payload
    | _ -> Failed "response id does not match the request"
    | exception Failure m -> Failed ("undecodable response: " ^ m))
  | { Serve.Wire.kind = "error"; payload; _ } ->
    Failed
      (try "error " ^ (C.decode_error payload).P.code
       with Failure _ -> "undecodable error")
  | { Serve.Wire.kind; _ } -> Failed ("unexpected frame " ^ kind)

(* One request, timed from encode to decoded reply. *)
let call client (req : P.request) =
  let t0 = now () in
  let reply =
    match Serve.Client.roundtrip client ~kind:"request" (C.encode_request req) with
    | f -> judge req f
    | exception (Failure m | Sys_error m) -> Failed m
    | exception Serve.Wire.Closed -> Failed "connection closed"
    | exception Unix.Unix_error (e, _, _) -> Failed (Unix.error_message e)
  in
  (reply, (now () -. t0) *. 1000.0)

(* One small request per shard, to bring a cluster up. *)
let warmups =
  lazy
    (Array.init shards (fun shard ->
         let rec find k =
           let tree = Rctree.Generate.random_steiner ~seed:k ~sinks:8 ~die_um:4000.0 () in
           let req = P.default_request ~tree in
           if Cluster.Router.shard_of_request ~shards (C.encode_request req) = shard
           then req
           else find (k + 1)
         in
         find 1))

let warm_up client req =
  match call client req with
  | Reply _, _ -> ()
  | Failed m, _ -> fail "warm-up request failed: %s" m

(* Spawn a cluster.  Set-up ends when the router accepts connections and
   every worker has answered one request on its own socket.  Returns the
   cluster, a router connection, and the spawn time. *)
let start ~opts ~dir ~obs index =
  let t0 = now () in
  let c = spawn ~exe:opts.serve_exe ~dir ~obs index in
  let client = connect_to c c.socket in
  Array.iteri
    (fun i req ->
      let w = connect_to c (shard_socket c i) in
      Fun.protect ~finally:(fun () -> Serve.Client.close w) (fun () -> warm_up w req))
    (Lazy.force warmups);
  (c, client, t0)

let stop c client =
  (try Serve.Client.shutdown client
   with Failure _ | Unix.Unix_error _ | Serve.Wire.Closed -> ());
  Serve.Client.close client;
  reap c

(* ---------- stats lines ---------- *)

let parse_stats text =
  List.filter_map
    (fun line ->
      match String.index_opt line ' ' with
      | None -> None
      | Some i ->
        Option.map
          (fun v -> (String.sub line 0 i, v))
          (float_of_string_opt (String.sub line (i + 1) (String.length line - i - 1))))
    (String.split_on_char '\n' text)

let stats_of c socket =
  let client = connect_to c socket in
  Fun.protect ~finally:(fun () -> Serve.Client.close client) (fun () ->
      parse_stats (Serve.Client.stats client))

let worker_stats c = Array.init shards (fun i -> stats_of c (shard_socket c i))

let get stats key = Option.value ~default:0.0 (List.assoc_opt key stats)

(* Wait until the router has answered one request per shard and holds
   one link per client connection to every worker, so timing starts in
   steady state.  Returns the seconds from spawn to the first answers
   through the router. *)
let await_routed client ~spawned =
  Array.iter (warm_up client) (Lazy.force warmups);
  let routed = now () -. spawned in
  let deadline = now () +. 10.0 in
  let linked s i =
    get s (Printf.sprintf "cluster_shard_%d_links" i) >= float_of_int connections
  in
  let rec wait () =
    let s = parse_stats (Serve.Client.stats client) in
    if not (List.for_all (linked s) (List.init shards Fun.id)) then begin
      if now () > deadline then fail "the router did not link to every worker";
      Unix.sleepf 0.01;
      wait ()
    end
  in
  wait ();
  routed

(* Sum of [key] over the workers, counted between two snapshots. *)
let delta before after key =
  let total snap = Array.fold_left (fun a s -> a +. get s key) 0.0 snap in
  total after -. total before

(* Summed value of every counter whose name starts with [prefix]. *)
let delta_prefix before after prefix =
  let keys =
    Array.to_list after
    |> List.concat_map (List.map fst)
    |> List.filter (String.starts_with ~prefix)
    |> List.sort_uniq compare
  in
  List.fold_left (fun a k -> a +. delta before after k) 0.0 keys

(* Mean of an obs histogram over the samples added between snapshots;
   stats lines carry each histogram's count and mean. *)
let delta_hist_mean before after name =
  let sum snap =
    Array.fold_left
      (fun a s -> a +. (get s (name ^ "_count") *. get s (name ^ "_mean")))
      0.0 snap
  in
  let n = delta before after (name ^ "_count") in
  if n > 0.0 then (sum after -. sum before) /. n else 0.0

let ratio a b = if b > 0.0 then a /. b else 0.0

(* ---------- memory and CPU of the server tree ---------- *)

let proc_field pid field =
  match read_file (Printf.sprintf "/proc/%d/status" pid) with
  | exception Sys_error _ -> 0.0
  | text ->
    List.find_map
      (fun line ->
        if String.starts_with ~prefix:field line then
          String.sub line (String.length field) (String.length line - String.length field)
          |> String.trim |> String.split_on_char ' ' |> List.hd |> float_of_string_opt
        else None)
      (String.split_on_char '\n' text)
    |> Option.value ~default:0.0

let children_of pid =
  Sys.readdir "/proc" |> Array.to_list
  |> List.filter_map int_of_string_opt
  |> List.filter (fun p ->
         match read_file (Printf.sprintf "/proc/%d/stat" p) with
         | exception Sys_error _ -> false
         | stat -> (
           (* "pid (comm) state ppid ...": comm may contain spaces. *)
           match String.rindex_opt stat ')' with
           | None -> false
           | Some i -> (
             match String.split_on_char ' ' (String.sub stat (i + 2) (String.length stat - i - 2)) with
             | _ :: ppid :: _ -> int_of_string_opt ppid = Some pid
             | _ -> false)))

(* Peak resident memory of the router and its workers, MB. *)
let server_rss_mb c =
  List.fold_left (fun a p -> a +. proc_field p "VmHWM:") 0.0 (c.pid :: children_of c.pid)
  /. 1024.0

(* CPU seconds of reaped children (the router reaps its workers). *)
let child_cpu_s () =
  let t = Unix.times () in
  t.Unix.tms_cutime +. t.Unix.tms_cstime

(* ---------- the timed phase ---------- *)

type sent = { item : W.item; lat_ms : float; reply : reply; done_at : float }

(* A client connection driven from the one-thread event loop below: at
   most one request in flight, as a P&R flow waiting on its reply. *)
type conn = {
  fd : Unix.file_descr;
  dec : Serve.Wire.decoder;
  mutable inflight : (W.item * float) option;  (* request, encode start *)
  mutable next : W.item option;
}

let open_conn socket =
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_UNIX socket);
  let dec = Serve.Wire.decoder ~max_payload:(64 * 1024 * 1024) () in
  (match Serve.Wire.recv dec fd with
  | Serve.Wire.Frame { Serve.Wire.kind = "hello"; payload; _ } -> P.check_hello payload
  | _ -> fail "the router sent no hello");
  { fd; dec; inflight = None; next = None }

(* Closed loop over [connections] connections from one thread: each
   connection sends its next request when the previous reply is in,
   until [seconds] have passed.  With one thread, the load generator
   never takes more than one of the cores the server runs on. *)
let drive c ~gen ~seconds =
  let conns = List.init connections (fun _ -> open_conn c.socket) in
  let buf = Bytes.create 65536 in
  let sent = ref [] in
  let t_start = now () in
  let t_end = t_start +. seconds in
  let finish conn reply =
    match conn.inflight with
    | None -> ()
    | Some (item, t0) ->
      let t1 = now () in
      conn.inflight <- None;
      sent := { item; lat_ms = (t1 -. t0) *. 1000.0; reply; done_at = t1 -. t_start } :: !sent
  in
  (* Each connection's next request is generated while its current one
     is at the server, so a reply is followed by a send at once.  The
     requests still held at the end are the two newest, so the ids sent
     are exactly 0 .. n-1. *)
  let send conn =
    if now () < t_end then begin
      let item = match conn.next with Some it -> it | None -> W.next gen in
      conn.inflight <- Some (item, now ());
      match
        Serve.Wire.write_frame_pv conn.fd ~proto:Serve.Wire.V2 ~kind:"request"
          (C.encode_request item.W.req)
      with
      | () -> conn.next <- Some (W.next gen)
      | exception Unix.Unix_error (e, _, _) -> finish conn (Failed (Unix.error_message e))
    end
  in
  let readable conn =
    match Unix.read conn.fd buf 0 (Bytes.length buf) with
    | 0 -> finish conn (Failed "connection closed")
    | n ->
      Serve.Wire.feed conn.dec buf n;
      let rec pump () =
        match Serve.Wire.next conn.dec with
        | Some (Serve.Wire.Frame f) ->
          (match conn.inflight with
          | Some (item, _) -> finish conn (judge item.W.req f)
          | None -> ());
          send conn;
          pump ()
        | Some (Serve.Wire.Oversized _) -> finish conn (Failed "oversized reply")
        | None -> ()
      in
      (try pump () with Failure m -> finish conn (Failed m))
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
    | exception Unix.Unix_error (e, _, _) -> finish conn (Failed (Unix.error_message e))
  in
  List.iter send conns;
  let rec loop () =
    match List.filter (fun cn -> cn.inflight <> None) conns with
    | [] -> ()
    | busy ->
      let ready, _, _ =
        try Unix.select (List.map (fun cn -> cn.fd) busy) [] [] 1.0
        with Unix.Unix_error (Unix.EINTR, _, _) -> ([], [], [])
      in
      List.iter (fun cn -> if List.mem cn.fd ready then readable cn) busy;
      loop ()
  in
  loop ();
  let elapsed = now () -. t_start in
  List.iter (fun cn -> Unix.close cn.fd) conns;
  (List.sort (fun a b -> compare a.item.W.req.P.id b.item.W.req.P.id) !sent, elapsed)

(* ---------- correctness gate ---------- *)

let in_sample ~seed id = Random.State.int (Random.State.make [| seed; id; 0x5e |]) 20 = 0

let expected_bytes req = C.encode_response (Serve.Handler.run req)

let zero_id payload = C.with_response_id payload 0

(* Failures by id: errors, a seeded 5% sample that differs from the
   in-process answer, and replays whose bytes differ from the first
   answer to the same body. *)
let check ~seed sent =
  let answered = Hashtbl.create 1024 in
  List.iter
    (fun s -> match s.reply with Reply p -> Hashtbl.replace answered s.item.W.req.P.id p | Failed _ -> ())
    sent;
  List.filter_map
    (fun s ->
      let id = s.item.W.req.P.id in
      match s.reply with
      | Failed m -> Some (id, m)
      | Reply payload ->
        if in_sample ~seed id && payload <> expected_bytes s.item.W.req then
          Some (id, "differs from the in-process Handler.run bytes")
        else if s.item.W.origin <> id then
          match Hashtbl.find_opt answered s.item.W.origin with
          | Some first when zero_id first <> zero_id payload ->
            Some (id, Printf.sprintf "replay differs from the answer to %d" s.item.W.origin)
          | _ -> None
        else None)
    sent

(* Digest of the answers to ids below [n], in id order: equal across runs
   of one seed, whatever the run length. *)
let response_digest sent n =
  let buf = Buffer.create 4096 in
  List.iter
    (fun s ->
      if s.item.W.req.P.id < n then
        match s.reply with
        | Reply p -> Buffer.add_string buf (Digest.string p)
        | Failed m -> Buffer.add_string buf ("failed " ^ m))
    sent;
  Digest.to_hex (Digest.string (Buffer.contents buf))

(* ---------- the per-layer pass ---------- *)

type layers = {
  mutable spans : Obs.Span.span list;
  mutable expected : (int * string) list;  (* id -> Handler.run bytes *)
}

let timed l name f =
  let t0 = Obs.Span.now_ns () in
  let v = f () in
  let dur_ns = Obs.Span.now_ns () - t0 in
  l.spans <- { Obs.Span.name; cat = "bench"; ts_ns = t0; dur_ns; tid = 0 } :: l.spans;
  (v, float_of_int dur_ns)

(* The handler's calls, each timed on its own, in the handler's order.
   Mirrors Serve.Handler.compute's configuration for the request. *)
let trace_request l (req : P.request) =
  let payload, enc = timed l "request_encode" (fun () -> C.encode_request req) in
  let _, dec = timed l "request_decode" (fun () -> C.decode_request payload) in
  let digest, dig =
    timed l "router_digest" (fun () ->
        let off, len = C.request_tree_span payload in
        Serve.Tapes.digest_of_span payload ~off ~len)
  in
  let tree = req.P.tree in
  let default = Experiments.Common.default_setup in
  let setup =
    {
      default with
      Experiments.Common.mc_trials = req.P.mc_trials;
      library =
        (if req.P.btypes > 0 then Device.Buffer.synth_library ~btypes:req.P.btypes
         else default.Experiments.Common.library);
    }
  in
  let grid = Experiments.Common.grid_for setup ~die_um:(Serve.Handler.die_of_tree tree) in
  let spatial = Varmodel.Model.default_heterogeneous in
  let budget = { Bufins.Engine.max_candidates = None; max_seconds = None } in
  let tape, compile = timed l "tape_compile" (fun () -> Compile.Tape.compile tree) in
  let sampled = req.P.samples > 0 in
  let (buffers, widths, stats), engine =
    if sampled then
      timed l "sample_run" (fun () ->
          let r =
            Experiments.Common.run_sampled setup ~budget ~wire_sizing:req.P.wire_sizing
              ~samples:req.P.samples ~relax:req.P.relax ~seed:req.P.seed
              ~objective:req.P.objective ~eps_power:req.P.eps_power ~tape ~spatial
              ~grid req.P.mode tree
          in
          (r.Sample.Engine.buffers, r.Sample.Engine.widths, r.Sample.Engine.stats))
    else
      timed l "dp_run" (fun () ->
          let r =
            Experiments.Common.run_algo setup ~rule:req.P.rule ~budget
              ~wire_sizing:req.P.wire_sizing ~objective:req.P.objective
              ~eps_power:req.P.eps_power ~tape ~spatial ~grid req.P.mode tree
          in
          (r.Bufins.Engine.buffers, r.Bufins.Engine.widths, r.Bufins.Engine.stats))
  in
  let _, evaluate =
    timed l "sta_evaluate" (fun () ->
        Experiments.Common.evaluate setup ~spatial ~grid tree ~widths buffers)
  in
  let resp, handler =
    timed l "handler_run" (fun () ->
        Serve.Handler.run ~tapes:(Serve.Tapes.create ~entries:1) ~tape_digest:digest req)
  in
  let bytes, renc = timed l "response_encode" (fun () -> C.encode_response resp) in
  let _, rdec = timed l "response_decode" (fun () -> C.decode_response bytes) in
  l.expected <- (req.P.id, bytes) :: l.expected;
  ( sampled,
    [
      ("codec.request_encode_us", enc /. 1e3);
      ("codec.request_decode_us", dec /. 1e3);
      ("codec.response_encode_us", renc /. 1e3);
      ("codec.response_decode_us", rdec /. 1e3);
      ("codec.request_bytes", float_of_int (String.length payload));
      ("codec.response_bytes", float_of_int (String.length bytes));
      ("router.digest_us", dig /. 1e3);
      ("tape.compile_us", compile /. 1e3);
      ("engine_ms", engine /. 1e6);
      ("nodes", float_of_int stats.Bufins.Engine.nodes);
      ("peak_candidates", float_of_int stats.Bufins.Engine.peak_candidates);
      ("total_candidates", float_of_int stats.Bufins.Engine.total_candidates);
      ("sta.evaluate_ms", evaluate /. 1e6);
      ("handler.run_ms", handler /. 1e6);
    ] )

(* Serial replay over one connection to each of two clusters, one
   request to each in turn, alternating which goes first: the pairs see
   the same machine, so their ratio holds when its speed drifts.  Every
   answer must equal the in-process Handler.run bytes.  Returns both
   clusters' latencies and the mismatches. *)
let serial_pair (a, b) items expected =
  List.fold_left
    (fun (la, lb, bad) (item : W.item) ->
      let id = item.W.req.P.id in
      let ask client =
        let reply, lat = call client item.W.req in
        (lat, match reply with Reply p -> List.assoc_opt id expected = Some p | Failed _ -> false)
      in
      let (ta, oka), (tb, okb) =
        if id mod 2 = 0 then
          let ra = ask a in
          (ra, ask b)
        else
          let rb = ask b in
          (ask a, rb)
      in
      ( ta :: la,
        tb :: lb,
        if oka && okb then bad else (id, "served bytes differ from the in-process answer") :: bad ))
    ([], [], []) items

(* Layer metrics read from the timed cluster's stats lines, counted
   between the end of set-up and the end of the timed phase. *)
let timed_layers ~workers:(wb, wa) ~router:(rb, ra) =
  let hit_ratio before after hits misses =
    let h = delta before after hits in
    ratio h (h +. delta before after misses)
  in
  let per_shard = Array.init shards (fun i -> get wa.(i) "requests" -. get wb.(i) "requests") in
  [
    ( "router.shard_skew",
      ratio (Array.fold_left Float.max 0.0 per_shard) (Summary.mean per_shard),
      "ratio" );
    ("cache.hit_ratio", hit_ratio wb wa "cache_hits" "cache_misses", "ratio");
    ("tapes.hit_ratio", hit_ratio wb wa "tape_hits" "tape_misses", "ratio");
    ( "router.digest_hit_ratio",
      hit_ratio [| rb |] [| ra |] "cluster_v2_cache_hits" "cluster_v2_cache_misses",
      "ratio" );
  ]

type traced = {
  metrics : (string * float * string) list;
  serial_ms : float * float;  (* mean served latency: untraced, traced *)
  failures : (int * string) list;
  files : string list;
}

let trace_pass ~opts ~dir ~stem =
  let items = W.take opts.workload ~seed:opts.seed W.trace_count in
  let l = { spans = []; expected = [] } in
  let rows = List.map (fun (it : W.item) -> trace_request l it.W.req) items in
  let mean_of ?(only = fun _ -> true) key =
    Summary.mean
      (Array.of_list
         (List.filter_map (fun (s, row) -> if only s then List.assoc_opt key row else None) rows))
  in
  let canonical s = not s and sampled s = s in
  (* Served serial passes: one cluster with trace off, one with
     VARBUF_OBS=1, side by side. *)
  let up obs index =
    let c, client, spawned = start ~opts ~dir ~obs index in
    ignore (await_routed client ~spawned : float);
    (c, client)
  in
  let c_plain, plain_client = up false 100 in
  let c, client = up true 101 in
  let before = worker_stats c in
  let plain, with_obs, bad = serial_pair (plain_client, client) items l.expected in
  let after = worker_stats c in
  stop c_plain plain_client;
  let files =
    List.init shards (fun i ->
        let cl = connect_to c (shard_socket c i) in
        let json = Fun.protect ~finally:(fun () -> Serve.Client.close cl) (fun () -> Serve.Client.trace cl) in
        let path = Filename.concat opts.out_dir (Printf.sprintf "%s.shard%d.trace.json" stem i) in
        write_file path json;
        path)
  in
  stop c client;
  let bench_trace = Filename.concat opts.out_dir (stem ^ ".bench.trace.json") in
  Obs.Export.write_chrome ~path:bench_trace (List.rev l.spans);
  let n_sampled = float_of_int (List.length (List.filter fst rows)) in
  let plain_sum = List.fold_left ( +. ) 0.0 plain in
  let obs_sum = List.fold_left ( +. ) 0.0 with_obs in
  let queue_wait = delta_hist_mean before after "obs_serve.queue_wait_ms" in
  let exec = delta_hist_mean before after "obs_serve.exec_ms" in
  let client_codec_ms =
    (mean_of "codec.request_encode_us" +. mean_of "codec.response_decode_us") /. 1e3
  in
  let handler = mean_of "handler.run_ms" in
  let accounted =
    (mean_of "tape.compile_us" /. 1e3) +. mean_of "engine_ms" +. mean_of "sta.evaluate_ms"
  in
  let metrics =
    List.map (fun k -> (k, mean_of k, "us"))
      [ "codec.request_encode_us"; "codec.request_decode_us"; "codec.response_encode_us";
        "codec.response_decode_us" ]
    @ [
        ("codec.request_bytes", mean_of "codec.request_bytes", "bytes");
        ("codec.response_bytes", mean_of "codec.response_bytes", "bytes");
        ("router.digest_us", mean_of "router.digest_us", "us");
        (* From the traced pass alone, where queue wait and exec are
           measured: tracing slows the DP, so the untraced pass would
           leave a negative remainder on DP-heavy workloads. *)
        ( "transport_ms",
          Summary.mean (Array.of_list with_obs) -. client_codec_ms -. queue_wait -. exec,
          "ms" );
        ("server.queue_wait_ms", queue_wait, "ms");
        ("server.exec_ms", exec, "ms");
        ("tape.compile_us", mean_of "tape.compile_us", "us");
        ("dp.run_ms", mean_of ~only:canonical "engine_ms", "ms");
        ("dp.nodes", mean_of ~only:canonical "nodes", "count");
        ("dp.peak_candidates", mean_of ~only:canonical "peak_candidates", "count");
        ("dp.total_candidates", mean_of ~only:canonical "total_candidates", "count");
        ( "dp.keep_ratio",
          ratio
            (delta_prefix before after "obs_dp.kept.")
            (delta_prefix before after "obs_dp.generated."),
          "ratio" );
        ("sample.run_ms", mean_of ~only:sampled "engine_ms", "ms");
        ("sample.peak_candidates", mean_of ~only:sampled "peak_candidates", "count");
        ("sample.total_candidates", mean_of ~only:sampled "total_candidates", "count");
        ( "sample.keep_ratio",
          ratio (delta before after "obs_sample.kept") (delta before after "obs_sample.generated"),
          "ratio" );
        ( "sample.dominance_checks_per_req",
          ratio (delta before after "obs_sample.dominance_checks") n_sampled,
          "count" );
        ("sta.evaluate_ms", mean_of "sta.evaluate_ms", "ms");
        ("handler.run_ms", handler, "ms");
        ("handler.unattributed_share", ratio (handler -. accounted) handler, "ratio");
        ("obs.overhead_share", ratio (obs_sum -. plain_sum) plain_sum, "ratio");
      ]
  in
  {
    metrics;
    serial_ms = (Summary.mean (Array.of_list plain), Summary.mean (Array.of_list with_obs));
    failures = bad;
    files = bench_trace :: files;
  }

(* ---------- output ---------- *)

let json_string s =
  let b = Buffer.create (String.length s + 2) in
  Buffer.add_char b '"';
  String.iter
    (function
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | c when Char.code c < 0x20 -> Printf.bprintf b "\\u%04x" (Char.code c)
      | c -> Buffer.add_char b c)
    s;
  Buffer.add_char b '"';
  Buffer.contents b

let json_float x = if Float.is_finite x then Printf.sprintf "%.17g" x else "null"

let json_obj fields =
  "{" ^ String.concat ", " (List.map (fun (k, v) -> json_string k ^ ": " ^ v) fields) ^ "}"

let json_list items = "[" ^ String.concat ", " items ^ "]"

let json_metrics ms =
  json_obj
    (List.map
       (fun (name, v, unit) ->
         (name, json_obj [ ("value", json_float v); ("unit", json_string unit) ]))
       ms)

let median a =
  let a = Array.copy a in
  Array.sort compare a;
  let n = Array.length a in
  if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

let () =
  let opts =
    try parse_opts ()
    with Arg.Bad msg | Arg.Help msg ->
      prerr_string msg;
      exit 2
  in
  (* In-process layer timings must run with obs off, whatever the
     caller's environment says. *)
  Obs.Control.disable ();
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let dir = Filename.concat ".bench_run" (string_of_int (Unix.getpid ())) in
  mkdir_p dir;
  mkdir_p opts.out_dir;
  at_exit kill_all;
  (* Stopped from outside, still stop and reap the clusters. *)
  List.iter
    (fun s -> Sys.set_signal s (Sys.Signal_handle (fun _ -> exit 2)))
    [ Sys.sigint; Sys.sigterm ];
  let helper_log = Filename.concat dir "helpers.log" in
  let nproc =
    Option.bind (capture ~log:helper_log "nproc" []) int_of_string_opt
    |> Option.value ~default:(Domain.recommended_domain_count ())
  in
  let git_rev =
    Option.value ~default:"unknown"
      (capture ~log:helper_log "git" [ "rev-parse"; "--short=12"; "HEAD" ])
  in
  let oversubscribed = shards * jobs_per_shard > nproc || connections > nproc in
  let name = W.to_string opts.workload in
  let stem =
    let tm = Unix.gmtime (now ()) in
    Printf.sprintf "%s-seed%d-%s-%04d%02d%02dT%02d%02d%02d-%d" name opts.seed
      (if opts.trace then "trace" else "timed")
      (tm.Unix.tm_year + 1900) (tm.Unix.tm_mon + 1) tm.Unix.tm_mday tm.Unix.tm_hour
      tm.Unix.tm_min tm.Unix.tm_sec (Unix.getpid ())
  in
  if not (Sys.file_exists opts.serve_exe) then begin
    prerr_endline ("no varbuf-serve binary at " ^ opts.serve_exe);
    exit 2
  end;
  Printf.printf "workload %s seed %d seconds %g trace %b\n" name opts.seed opts.seconds opts.trace;
  Printf.printf "env nproc %d domains %d ocaml %s git %s shards %d jobs_per_shard %d connections %d oversubscribed %b\n%!"
    nproc (Domain.recommended_domain_count ()) Sys.ocaml_version git_rev shards
    jobs_per_shard connections oversubscribed;
  (* Set-up, several times; the last cluster serves the timed phase. *)
  let setup_times = Array.make setups 0.0 in
  let cpu_before = ref 0.0 in
  let rec set_up k =
    if k = setups - 1 then cpu_before := child_cpu_s ();
    let c, client, spawned = start ~opts ~dir ~obs:false k in
    setup_times.(k) <- now () -. spawned;
    if k < setups - 1 then begin
      stop c client;
      set_up (k + 1)
    end
    else (c, client, await_routed client ~spawned)
  in
  let c, control, first_reply_s = set_up 0 in
  let gen = W.create opts.workload ~seed:opts.seed in
  let stats_before = (worker_stats c, stats_of c c.socket) in
  let sent, elapsed = drive c ~gen ~seconds:opts.seconds in
  let stats_after = (worker_stats c, stats_of c c.socket) in
  let rss_mb = server_rss_mb c in
  stop c control;
  let cpu_s = child_cpu_s () -. !cpu_before in
  let attempted = List.length sent in
  let lats =
    Array.of_list (List.filter_map (fun s -> match s.reply with Reply _ -> Some s.lat_ms | Failed _ -> None) sent)
  in
  Array.sort compare lats;
  let ok = Array.length lats in
  let failures = check ~seed:opts.seed sent in
  let pct q = if ok = 0 then 0.0 else Summary.nearest_rank lats q in
  let p50 = pct 0.50 and p99 = pct 0.99 in
  let tail = Array.fold_left (fun a x -> if x > p99 then a + 1 else a) 0 lats in
  let digest_n = W.trace_count in
  let digest = response_digest sent digest_n in
  let slowest =
    List.filteri (fun i _ -> i < 3)
      (List.sort (fun a b -> compare b.lat_ms a.lat_ms) sent)
  in
  let e2e =
    [
      ("throughput_rps", float_of_int ok /. elapsed, "1/s");
      ("latency_p50_ms", p50, "ms");
      ("latency_p99_ms", p99, "ms");
      ("server_rss_mb", rss_mb, "MB");
      ("setup_s", median setup_times, "s");
    ]
  in
  let cpu_ms_per_req = cpu_s *. 1000.0 /. float_of_int (max 1 attempted) in
  let traced =
    if opts.trace then begin
      let t = trace_pass ~opts ~dir ~stem in
      let (wb, rb), (wa, ra) = (stats_before, stats_after) in
      Some
        {
          t with
          metrics =
            t.metrics
            @ (("server.cpu_ms_per_req", cpu_ms_per_req, "ms")
              :: timed_layers ~workers:(wb, wa) ~router:(rb, ra));
        }
    end
    else None
  in
  let failures = failures @ (match traced with Some t -> t.failures | None -> []) in
  let failed = List.length (List.sort_uniq compare (List.map fst failures)) in
  let error_ratio = float_of_int failed /. float_of_int (max 1 attempted) in
  let correct = failed = 0 in
  List.iter (fun (id, why) -> Printf.printf "failure id %d: %s\n" id why)
    (List.filteri (fun i _ -> i < 20) failures);
  List.iter (fun (n, v, u) -> Printf.printf "metric %s %.6g %s\n" n v u) e2e;
  Printf.printf "metric error_ratio %.6g ratio\n" error_ratio;
  Printf.printf "server cpu_ms_per_req %.6g ms\n" cpu_ms_per_req;
  Printf.printf "samples %d beyond_p99 %d elapsed_s %.3f first_routed_reply_s %.4f\n" ok tail
    elapsed first_reply_s;
  (* Latency by shard: whether the hot shard of a skewed mix sets the
     tail. *)
  let shard_of s = Cluster.Router.shard_of_request ~shards (C.encode_request s.item.W.req) in
  let by_shard = Array.make shards [] in
  List.iter
    (fun s ->
      match s.reply with
      | Reply _ ->
        let i = shard_of s in
        by_shard.(i) <- s.lat_ms :: by_shard.(i)
      | Failed _ -> ())
    sent;
  let per_shard =
    Array.to_list
      (Array.mapi
         (fun i l ->
           let a = Array.of_list l in
           Array.sort compare a;
           let q p = if a = [||] then 0.0 else Summary.nearest_rank a p in
           Printf.printf "shard %d requests %d p50_ms %.3f p99_ms %.3f\n" i (Array.length a)
             (q 0.5) (q 0.99);
           json_obj
             [ ("requests", string_of_int (Array.length a)); ("p50_ms", json_float (q 0.5));
               ("p99_ms", json_float (q 0.99)) ])
         by_shard)
  in
  let slowest =
    List.map
      (fun s ->
        let shard = shard_of s in
        Printf.printf "slow id %d %.1f ms at %.2f s shard %d\n" s.item.W.req.P.id s.lat_ms
          s.done_at shard;
        json_obj
          [ ("id", string_of_int s.item.W.req.P.id); ("ms", json_float s.lat_ms);
            ("at_s", json_float s.done_at); ("shard", string_of_int shard) ])
      slowest
  in
  Printf.printf "response_digest %s (first %d ids)\n" digest digest_n;
  (match traced with
  | Some t ->
    List.iter (fun (n, v, u) -> Printf.printf "layer %s %.6g %s\n" n v u) t.metrics;
    Printf.printf "serial_ms untraced %.4f traced %.4f\n" (fst t.serial_ms) (snd t.serial_ms);
    List.iter (fun f -> Printf.printf "trace %s\n" f) t.files
  | None -> ());
  let run_json =
    json_obj
      ([
         ("schema", json_string "varbuf-e2e/1");
         ("workload", json_string name);
         ("seed", string_of_int opts.seed);
         ("seconds", json_float opts.seconds);
         ("trace", string_of_bool opts.trace);
         ( "env",
           json_obj
             [
               ("nproc", string_of_int nproc);
               ("recommended_domain_count", string_of_int (Domain.recommended_domain_count ()));
               ("ocaml_version", json_string Sys.ocaml_version);
               ("git_rev", json_string git_rev);
               ("shards", string_of_int shards);
               ("jobs_per_shard", string_of_int jobs_per_shard);
               ("connections", string_of_int connections);
             ] );
         ("oversubscribed", string_of_bool oversubscribed);
         ("correct", string_of_bool correct);
         ("attempted", string_of_int attempted);
         ("failed", string_of_int failed);
         ("error_ratio", json_float error_ratio);
         ("cpu_ms_per_req", json_float cpu_ms_per_req);
         ("latency_samples", string_of_int ok);
         ("beyond_p99", string_of_int tail);
         ("setup_s_each", json_list (Array.to_list (Array.map json_float setup_times)));
         ("first_routed_reply_s", json_float first_reply_s);
         ("per_shard", json_list per_shard);
         ("slowest", json_list slowest);
         ("response_digest", json_string digest);
         ("digest_ids", string_of_int digest_n);
         ("metrics", json_metrics e2e);
       ]
      @
      match traced with
      | Some t ->
        [
          ("layers", json_metrics t.metrics);
          ( "serial_ms",
            json_obj
              [ ("untraced", json_float (fst t.serial_ms));
                ("traced", json_float (snd t.serial_ms)) ] );
          ("traces", json_list (List.map json_string t.files));
        ]
      | None -> [])
  in
  let run_path = Filename.concat opts.out_dir (stem ^ ".json") in
  write_file run_path (run_json ^ "\n");
  Printf.printf "run %s\n" run_path;
  let reported = match traced with Some t -> t.metrics | None -> e2e in
  print_endline
    (json_obj
       [
         ("correct", string_of_bool correct);
         ("attempted", string_of_int attempted);
         ("failed", string_of_int failed);
         ("metrics", json_metrics reported);
       ]);
  (try
     Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir);
     Unix.rmdir dir
   with Sys_error _ | Unix.Unix_error _ -> ());
  exit (if correct then 0 else 1)
