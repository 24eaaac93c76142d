type addr = Unix_sock of string | Tcp of string * int

let addr_of_string s =
  match String.rindex_opt s ':' with
  | Some i when i > 0 && i < String.length s - 1 -> (
    match int_of_string_opt (String.sub s (i + 1) (String.length s - i - 1)) with
    | Some port -> Tcp (String.sub s 0 i, port)
    | None -> Unix_sock s)
  | _ -> Unix_sock s

let resolve_addr ~socket = function
  | None -> Unix_sock socket
  | Some s -> (
    match int_of_string_opt s with
    | Some port -> Tcp ("127.0.0.1", port)
    | None -> addr_of_string s)

let pp_addr = function
  | Unix_sock path -> path
  | Tcp (host, port) -> Printf.sprintf "%s:%d" host port

type t = { fd : Unix.file_descr; dec : Wire.decoder }

let recv_frame t =
  match Wire.recv t.dec t.fd with
  | Wire.Frame f -> f
  | Wire.Oversized { kind; len; _ } ->
    failwith
      (Printf.sprintf "server sent an oversized %s frame (%d bytes)" kind len)

let connect_fd = function
  | Unix_sock path ->
    let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    (try Unix.connect fd (Unix.ADDR_UNIX path)
     with e -> (try Unix.close fd with Unix.Unix_error _ -> ()); raise e);
    fd
  | Tcp (host, port) ->
    let ip =
      try Unix.inet_addr_of_string host
      with Failure _ -> (
        match Unix.getaddrinfo host "" [ Unix.AI_FAMILY Unix.PF_INET ] with
        | { Unix.ai_addr = Unix.ADDR_INET (ip, _); _ } :: _ -> ip
        | _ -> failwith (Printf.sprintf "cannot resolve host %S" host))
    in
    let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
    (try
       Unix.setsockopt fd Unix.TCP_NODELAY true;
       Unix.connect fd (Unix.ADDR_INET (ip, port))
     with e -> (try Unix.close fd with Unix.Unix_error _ -> ()); raise e);
    fd

let connect_addr ?(max_payload = 64 * 1024 * 1024) ?wire:_ addr =
  let fd = connect_fd addr in
  match
    let t = { fd; dec = Wire.decoder ~max_payload () } in
    let hello = recv_frame t in
    if hello.Wire.kind <> "hello" then
      failwith
        (Printf.sprintf "expected a hello frame, got %S" hello.Wire.kind);
    Protocol.check_hello hello.Wire.payload;
    t
  with
  | t -> t
  | exception e ->
    (try Unix.close fd with Unix.Unix_error _ -> ());
    raise e

let connect ?max_payload path = connect_addr ?max_payload (Unix_sock path)

let roundtrip t ~kind payload =
  Wire.write_frame t.fd ~kind payload;
  recv_frame t

let request_raw t req =
  let reply = roundtrip t ~kind:"request" (Codec_bin.encode_request req) in
  match reply.Wire.kind with
  | "response" -> Ok reply.Wire.payload
  | "error" -> Error (Codec_bin.decode_error reply.Wire.payload)
  | kind -> failwith (Printf.sprintf "unexpected reply frame %S" kind)

let request t req = Result.map Codec_bin.decode_response (request_raw t req)

let stats t =
  let reply = roundtrip t ~kind:"stats" "" in
  match reply.Wire.kind with
  | "stats" -> reply.Wire.payload
  | kind -> failwith (Printf.sprintf "unexpected reply frame %S" kind)

let trace t =
  let reply = roundtrip t ~kind:"trace" "" in
  match reply.Wire.kind with
  | "trace" -> reply.Wire.payload
  | kind -> failwith (Printf.sprintf "unexpected reply frame %S" kind)

let shutdown t =
  let reply = roundtrip t ~kind:"shutdown" "" in
  match reply.Wire.kind with
  | "ok" -> ()
  | kind -> failwith (Printf.sprintf "unexpected reply frame %S" kind)

let close t = try Unix.close t.fd with Unix.Unix_error _ -> ()
