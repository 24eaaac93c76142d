type proto = V2

type frame = { kind : string; payload : string }

type event =
  | Frame of frame
  | Oversized of { kind : string; len : int }

(* A fixed 10-byte header
     0xAB 'V' 'B' '2'  version  kind  len_be32
   followed by exactly [len] payload bytes. *)
let magic = "\xABVB2"
let header_len = 10
let version = 2

let kind_code = function
  | "hello" -> 1
  | "request" -> 2
  | "response" -> 3
  | "error" -> 4
  | "stats" -> 5
  | "trace" -> 6
  | "shutdown" -> 7
  | "ok" -> 8
  | kind -> invalid_arg (Printf.sprintf "Wire.kind_code: unknown kind %S" kind)

let kind_of_code = function
  | 1 -> "hello"
  | 2 -> "request"
  | 3 -> "response"
  | 4 -> "error"
  | 5 -> "stats"
  | 6 -> "trace"
  | 7 -> "shutdown"
  | 8 -> "ok"
  | c -> failwith (Printf.sprintf "frame header: unknown kind code %d" c)

type decoder = {
  mutable acc : string;        (* buffered, unconsumed input *)
  mutable skip : int;          (* payload bytes of an oversized frame
                                  still to discard *)
  max_payload : int;
}

let decoder ?(max_payload = 8 * 1024 * 1024) () =
  { acc = ""; skip = 0; max_payload }

let feed d buf n =
  if n > 0 then begin
    let chunk = Bytes.sub_string buf 0 n in
    if d.skip > 0 then begin
      let eaten = min d.skip (String.length chunk) in
      d.skip <- d.skip - eaten;
      let rest = String.sub chunk eaten (String.length chunk - eaten) in
      if rest <> "" then d.acc <- d.acc ^ rest
    end
    else d.acc <- d.acc ^ chunk
  end

let next d =
  let n = String.length d.acc in
  if d.skip > 0 || n = 0 then None
  else if n < header_len then begin
    (* Reject a wrong magic as soon as the prefix diverges, not only
       once the whole header is in. *)
    let avail = min n 4 in
    if String.sub d.acc 0 avail <> String.sub magic 0 avail then
      failwith "frame header: bad magic";
    None
  end
  else begin
    if String.sub d.acc 0 4 <> magic then failwith "frame header: bad magic";
    let v = Char.code d.acc.[4] in
    if v <> version then
      failwith (Printf.sprintf "frame header: unsupported version %d" v);
    let kind = kind_of_code (Char.code d.acc.[5]) in
    let len =
      (Char.code d.acc.[6] lsl 24)
      lor (Char.code d.acc.[7] lsl 16)
      lor (Char.code d.acc.[8] lsl 8)
      lor Char.code d.acc.[9]
    in
    let after = n - header_len in
    if len > d.max_payload then begin
      (* Discard the payload but keep the stream in sync. *)
      let eaten = min len after in
      d.acc <- String.sub d.acc (header_len + eaten) (after - eaten);
      d.skip <- len - eaten;
      Some (Oversized { kind; len })
    end
    else if after >= len then begin
      let payload = String.sub d.acc header_len len in
      d.acc <- String.sub d.acc (header_len + len) (after - len);
      Some (Frame { kind; payload })
    end
    else None
  end

exception Closed

let rec read_retry fd buf =
  match Unix.read fd buf 0 (Bytes.length buf) with
  | n -> n
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> read_retry fd buf

let recv d fd =
  let buf = Bytes.create 65536 in
  let rec go () =
    match next d with
    | Some ev -> ev
    | None ->
      let n = read_retry fd buf in
      if n = 0 then
        if d.acc = "" && d.skip = 0 then raise Closed
        else failwith "connection closed mid-frame"
      else begin
        feed d buf n;
        go ()
      end
  in
  go ()

let write_all fd s =
  let len = String.length s in
  let rec go off =
    if off < len then
      match Unix.write_substring fd s off (len - off) with
      | n -> go (off + n)
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> go off
  in
  go 0

let frame_bytes ~kind payload =
  let len = String.length payload in
  let b = Bytes.create (header_len + len) in
  Bytes.blit_string magic 0 b 0 4;
  Bytes.set b 4 (Char.chr version);
  Bytes.set b 5 (Char.chr (kind_code kind));
  Bytes.set b 6 (Char.chr ((len lsr 24) land 0xff));
  Bytes.set b 7 (Char.chr ((len lsr 16) land 0xff));
  Bytes.set b 8 (Char.chr ((len lsr 8) land 0xff));
  Bytes.set b 9 (Char.chr (len land 0xff));
  Bytes.blit_string payload 0 b header_len len;
  Bytes.unsafe_to_string b

let write_frame fd ~kind payload = write_all fd (frame_bytes ~kind payload)
let write_frame_pv fd ~proto:V2 ~kind payload = write_frame fd ~kind payload
