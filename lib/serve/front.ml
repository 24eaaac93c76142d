type config = {
  socket_path : string;
  tcp_port : int option;
  max_payload : int;
  cache_entries : int;
}

(* Far beyond the bench's and CI's handful of clients. *)
let backlog = 64
let max_connections = 128

type conn = {
  fd : Unix.file_descr;
  dec : Wire.decoder;
  mutable alive : bool;
}

(* [entry] is the request's cache key and id, when the front keeps a
   cache. *)
type caller = { conn : conn; entry : (string * int) option }

type t = {
  config : config;
  metrics : Metrics.t;
  cache : string Lru.t option;
  listeners : Unix.file_descr list;
  prev_sigpipe : Sys.signal_behavior option;
  read_buf : Bytes.t;
  mutable conns : conn list;
  mutable draining : bool;
}

let close_quietly fd = try Unix.close fd with Unix.Unix_error _ -> ()
let unlink_quietly path = try Unix.unlink path with Unix.Unix_error _ -> ()

let bound_listener domain addr =
  let fd = Unix.socket domain Unix.SOCK_STREAM 0 in
  try
    if domain = Unix.PF_INET then Unix.setsockopt fd Unix.SO_REUSEADDR true;
    Unix.bind fd addr;
    Unix.listen fd backlog;
    fd
  with e ->
    close_quietly fd;
    raise e

let listen ~metrics config =
  (* The Unix socket is bound and listening under a staging name and
     then renamed into place, so its file never exists while connects
     to it would be refused.  A stale file from a crashed daemon is
     removed first. *)
  let staging = config.socket_path ^ ".new" in
  unlink_quietly config.socket_path;
  unlink_quietly staging;
  let bound = ref [] in
  let add domain addr =
    bound := !bound @ [ bound_listener domain addr ]
  in
  (try
     add Unix.PF_UNIX (Unix.ADDR_UNIX staging);
     Option.iter
       (fun port ->
         add Unix.PF_INET (Unix.ADDR_INET (Unix.inet_addr_loopback, port)))
       config.tcp_port;
     Unix.rename staging config.socket_path
   with e ->
     List.iter close_quietly !bound;
     unlink_quietly staging;
     raise e);
  let prev_sigpipe =
    try Some (Sys.signal Sys.sigpipe Sys.Signal_ignore)
    with Invalid_argument _ -> None
  in
  {
    config;
    metrics;
    cache =
      (if config.cache_entries > 0 then
         Some (Lru.create ~capacity:config.cache_entries)
       else None);
    listeners = !bound;
    prev_sigpipe;
    read_buf = Bytes.create 65536;
    conns = [];
    draining = false;
  }

let draining t = t.draining
let drain t = t.draining <- true
let alive caller = caller.conn.alive
let key caller = Option.map fst caller.entry

(* Write a frame, isolating connection death (EPIPE & friends) to this
   connection. *)
let send c ~kind payload =
  if c.alive then
    try Wire.write_frame c.fd ~kind payload
    with Unix.Unix_error _ | Sys_error _ -> c.alive <- false

let send_error c code message =
  send c ~kind:"error" (Codec_bin.encode_error { Protocol.code; message })

let refuse t c code message =
  Metrics.request_error t.metrics ~code;
  send_error c code message

let fail t caller code message = refuse t caller.conn code message

let reply_ok t c ~latency_ms payload =
  Metrics.request_ok t.metrics ~latency_ms;
  send c ~kind:"response" payload

(* Only a reply that echoes its request's id is stored: a hit rewrites
   that field, and bytes that do not carry it are nothing to replay. *)
let echoes id payload =
  match Codec_bin.response_id payload with
  | r -> r = id
  | exception Failure _ -> false

let respond t caller ~latency_ms payload =
  (match (t.cache, caller.entry) with
  | Some cache, Some (key, id) when echoes id payload -> Lru.put cache key payload
  | _ -> ());
  reply_ok t caller.conn ~latency_ms payload

let admitted t = if Option.is_some t.cache then Metrics.cache_miss t.metrics

(* A replay is answered here, before the caller decodes, routes or
   queues anything: so a full queue never refuses it.  With no cache
   the payload goes on untouched. *)
let handle_request t ~request c payload =
  if t.draining then refuse t c Protocol.err_busy "server is draining"
  else
    match t.cache with
    | None -> request { conn = c; entry = None } payload
    | Some cache -> (
      let received = Unix.gettimeofday () in
      match Codec_bin.request_key payload with
      | exception Failure msg -> refuse t c Protocol.err_parse msg
      | key -> (
        let id = Codec_bin.request_id payload in
        match Lru.find cache key with
        | Some reply ->
          Metrics.cache_hit t.metrics;
          reply_ok t c
            ~latency_ms:((Unix.gettimeofday () -. received) *. 1000.0)
            (Codec_bin.with_response_id reply id)
        | None -> request { conn = c; entry = Some (key, id) } payload))

let watched t =
  let accepting =
    (not t.draining) && List.length t.conns < max_connections
  in
  (if accepting then t.listeners else []) @ List.map (fun c -> c.fd) t.conns

let accept t listen_fd =
  match Unix.accept listen_fd with
  | fd, _ ->
    (* TCP clients benefit from immediate small frames. *)
    (try Unix.setsockopt fd Unix.TCP_NODELAY true
     with Unix.Unix_error _ | Invalid_argument _ -> ());
    let c =
      { fd; dec = Wire.decoder ~max_payload:t.config.max_payload (); alive = true }
    in
    Metrics.conn_opened t.metrics;
    send c ~kind:"hello" Protocol.hello;
    t.conns <- c :: t.conns
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()

(* The cache's occupancy, in the stats frame's "key value" lines. *)
let cache_lines t =
  match t.cache with
  | None -> ""
  | Some cache ->
    let s = Lru.stats cache in
    Printf.sprintf "cache_entries %d\ncache_capacity %d\n" s.Lru.entries
      s.Lru.capacity

let handle_frame t ~request ~stats c (f : Wire.frame) =
  Metrics.request_kind t.metrics ~kind:f.Wire.kind;
  match f.Wire.kind with
  | "request" -> handle_request t ~request c f.Wire.payload
  | "stats" ->
    send c ~kind:"stats" (Metrics.render t.metrics ^ cache_lines t ^ stats ())
  | "trace" ->
    (* The recent span buffer as Chrome trace JSON; an empty trace
       when observability is off. *)
    send c ~kind:"trace" (Obs.Export.chrome_json (Obs.Span.snapshot ()))
  | "shutdown" ->
    send c ~kind:"ok" "";
    t.draining <- true
  | kind ->
    refuse t c Protocol.err_proto (Printf.sprintf "unknown frame kind %S" kind)

let handle_readable t ~request ~stats c =
  match Unix.read c.fd t.read_buf 0 (Bytes.length t.read_buf) with
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
  | exception Unix.Unix_error _ -> c.alive <- false
  | 0 -> c.alive <- false
  | n -> (
    Wire.feed c.dec t.read_buf n;
    let rec pump () =
      match Wire.next c.dec with
      | None -> ()
      | Some (Wire.Oversized { kind; len }) ->
        refuse t c Protocol.err_too_large
          (Printf.sprintf "%s frame of %d bytes exceeds the %d-byte limit"
             kind len t.config.max_payload);
        pump ()
      | Some (Wire.Frame f) ->
        handle_frame t ~request ~stats c f;
        pump ()
    in
    try pump ()
    with Failure msg ->
      (* Framing is lost: tell the client why, then drop it.  The
         daemon itself keeps serving. *)
      send_error c Protocol.err_proto msg;
      c.alive <- false)

let close_conn t c =
  c.alive <- false;
  close_quietly c.fd;
  Metrics.conn_closed t.metrics

let serve t ~request ?(stats = fun () -> "") readable =
  List.iter
    (fun fd -> if List.mem fd readable then accept t fd)
    t.listeners;
  List.iter
    (fun c ->
      if c.alive && List.mem c.fd readable then
        handle_readable t ~request ~stats c)
    t.conns;
  (* Reap connections that died (EOF, write error, framing error);
     replies still owed to them are dropped by [send]'s alive check. *)
  let dead, live = List.partition (fun c -> not c.alive) t.conns in
  List.iter (close_conn t) dead;
  t.conns <- live

let close t =
  List.iter (close_conn t) t.conns;
  t.conns <- [];
  List.iter close_quietly t.listeners;
  unlink_quietly t.config.socket_path;
  match t.prev_sigpipe with
  | Some b -> ( try Sys.set_signal Sys.sigpipe b with Invalid_argument _ -> ())
  | None -> ()
