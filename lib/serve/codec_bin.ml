(* The protocol's binary payload encodings.

   Primitives: unsigned LEB128 varints for lengths/counts, zigzag
   varints for signed integers, IEEE-754 float64 little-endian (the
   exact bits, so encode→decode is lossless and equal values encode to
   equal bytes), length-prefixed strings.

   Envelope layouts put the request/response id first as a fixed
   8-byte little-endian field so a front door can read or rewrite it
   without decoding the rest, and the request keeps the tree as one
   length-prefixed blob at the tail so it can be located from the raw
   bytes ({!request_tree_span}) without building the tree.

   Every decoder is strict: trailing bytes, truncated input, unknown
   tags and out-of-range values raise [Failure], and never any other
   exception: a server answers it with a parse error. *)

(* ---------- primitives ---------- *)

let add_u8 buf v = Buffer.add_char buf (Char.chr (v land 0xff))

let add_varint buf v =
  if v < 0 then invalid_arg "Codec_bin.add_varint: negative";
  let rec go v =
    if v < 0x80 then Buffer.add_char buf (Char.chr v)
    else begin
      Buffer.add_char buf (Char.chr (0x80 lor (v land 0x7f)));
      go (v lsr 7)
    end
  in
  go v

let add_zigzag buf v =
  (* Standard zigzag: small magnitudes of either sign stay short. *)
  add_varint buf ((v lsl 1) lxor (v asr (Sys.int_size - 1)))

let add_f64 buf v = Buffer.add_int64_le buf (Int64.bits_of_float v)

let token_ok s =
  s <> "" && String.for_all (fun c -> c > ' ' && c <> '\x7f') s

let add_string buf s =
  add_varint buf (String.length s);
  Buffer.add_string buf s

type reader = { src : string; mutable pos : int; limit : int }

let reader ?(pos = 0) ?limit src =
  let limit = match limit with Some l -> l | None -> String.length src in
  { src; pos; limit }

let need r n what =
  if n < 0 || r.limit - r.pos < n then
    failwith (Printf.sprintf "binary payload: truncated %s at byte %d" what r.pos)

let get_u8 r what =
  need r 1 what;
  let v = Char.code r.src.[r.pos] in
  r.pos <- r.pos + 1;
  v

(* Encoders emit values in [0, 2^62) only, so a ninth group has at most
   six value bits; anything more would reach the sign bit. *)
let get_varint r what =
  let rec go shift acc =
    let b = get_u8 r what in
    if shift = 56 && b >= 0x40 then
      failwith (Printf.sprintf "binary payload: varint overflow in %s" what);
    let acc = acc lor ((b land 0x7f) lsl shift) in
    if b land 0x80 = 0 then acc else go (shift + 7) acc
  in
  go 0 0

let get_zigzag r what =
  let v = get_varint r what in
  (v lsr 1) lxor (- (v land 1))

let get_f64 r what =
  need r 8 what;
  let v = Int64.float_of_bits (String.get_int64_le r.src r.pos) in
  r.pos <- r.pos + 8;
  v

let get_string r what =
  let len = get_varint r what in
  need r len what;
  let s = String.sub r.src r.pos len in
  r.pos <- r.pos + len;
  s

let get_token r what =
  let s = get_string r what in
  if not (token_ok s) then
    failwith
      (Printf.sprintf "binary payload: %s %S is not a printable token" what s);
  s

let expect_end r what =
  if r.pos <> r.limit then
    failwith
      (Printf.sprintf "binary payload: %d trailing bytes after %s"
         (r.limit - r.pos) what)

let get_i64le r what =
  need r 8 what;
  let v = Int64.to_int (String.get_int64_le r.src r.pos) in
  r.pos <- r.pos + 8;
  v

(* ---------- trees ---------- *)

(* varint node-count, then each node in id (preorder) order:
   tag u8 (0 root | 1 internal | 2 sink), x f64, y f64;
   non-root: parent varint (must precede the node), wire f64;
   sink: cap f64, rat f64, name string. *)

let add_tree buf t =
  let n = Rctree.Tree.node_count t in
  add_varint buf n;
  for id = 0 to n - 1 do
    let x, y = Rctree.Tree.position t id in
    match (Rctree.Tree.parent t id, Rctree.Tree.sink t id) with
    | None, _ ->
      add_u8 buf 0;
      add_f64 buf x;
      add_f64 buf y
    | Some p, None ->
      add_u8 buf 1;
      add_f64 buf x;
      add_f64 buf y;
      add_varint buf p;
      add_f64 buf (Rctree.Tree.wire_to t id)
    | Some p, Some s ->
      add_u8 buf 2;
      add_f64 buf x;
      add_f64 buf y;
      add_varint buf p;
      add_f64 buf (Rctree.Tree.wire_to t id);
      add_f64 buf s.Rctree.Tree.sink_cap;
      add_f64 buf s.Rctree.Tree.sink_rat;
      add_string buf s.Rctree.Tree.sink_name
  done

let encode_tree t =
  let buf = Buffer.create 1024 in
  add_tree buf t;
  Buffer.contents buf

type bin_node = {
  b_x : float;
  b_y : float;
  b_parent : int;  (* -1 for the root *)
  b_wire : float;
  b_sink : Rctree.Tree.sink option;
}

(* Caps on what a request may ask for, well beyond every workload,
   experiment and test: the bench sweeps b <= 16, the experiments draw
   K <= 1024, the largest Monte-Carlo run asks 200,000 trials, and r5's
   die is 22.5 mm.  Above them nothing bounds the work: a lift over the
   whole library reads no clock, the sample matrix is drawn before the
   first deadline check, the Monte-Carlo result array is sized by the
   trial count, and a far node widens the die, hence the variation
   grid, quadratically. *)
let max_btypes = 64
let max_samples = 4096
let max_mc_trials = 1_000_000
let max_coord_um = 5e4

let read_tree r =
  let n = get_varint r "tree node count" in
  if n < 1 then failwith "binary payload: tree has no nodes";
  (* Every node takes at least 17 bytes (a tag and two f64), so a count
     the input cannot hold fails before the node array is allocated. *)
  if n > (r.limit - r.pos) / 17 then
    failwith
      (Printf.sprintf "binary payload: %d tree nodes cannot fit in %d bytes" n
         (r.limit - r.pos));
  (* The reader is stateful: nodes must be read strictly in id order
     (Array.init's application order is unspecified). *)
  let read_node id =
    let what = Printf.sprintf "tree node %d" id in
        let tag = get_u8 r what in
        let x = get_f64 r what in
        let y = get_f64 r what in
        if not (Float.abs x <= max_coord_um && Float.abs y <= max_coord_um) then
          failwith
            (Printf.sprintf
               "binary payload: node %d's coordinates must be finite and within %g um"
               id max_coord_um);
        match tag with
        | 0 -> { b_x = x; b_y = y; b_parent = -1; b_wire = 0.0; b_sink = None }
        | 1 | 2 ->
          let parent = get_varint r what in
          if parent >= id then
            failwith
              (Printf.sprintf
                 "binary payload: node %d's parent %d does not precede it" id
                 parent);
          let wire = get_f64 r what in
          if wire < 0.0 || Float.is_nan wire then
            failwith
              (Printf.sprintf "binary payload: node %d has a negative wire length"
                 id);
          let sink =
            if tag = 2 then
              let cap = get_f64 r what in
              let rat = get_f64 r what in
              let name = get_token r "sink name" in
              Some { Rctree.Tree.sink_cap = cap; sink_rat = rat; sink_name = name }
            else None
          in
          { b_x = x; b_y = y; b_parent = parent; b_wire = wire; b_sink = sink }
        | t -> failwith (Printf.sprintf "binary payload: bad node tag %d" t)
  in
  let first = read_node 0 in
  let nodes = Array.make n first in
  for id = 1 to n - 1 do
    nodes.(id) <- read_node id
  done;
  if nodes.(0).b_parent <> -1 then
    failwith "binary payload: the first tree node must be the root";
  Array.iteri
    (fun id nd ->
      if id > 0 && nd.b_parent = -1 then
        failwith (Printf.sprintf "binary payload: second root at node %d" id))
    nodes;
  let children = Array.make n [] in
  for id = n - 1 downto 1 do
    let p = nodes.(id).b_parent in
    children.(p) <- id :: children.(p)
  done;
  let rec spec_of id =
    let nd = nodes.(id) in
    match (nd.b_sink, children.(id)) with
    | Some sink, [] -> Rctree.Tree.Leaf { x = nd.b_x; y = nd.b_y; sink }
    | Some _, _ ->
      failwith (Printf.sprintf "binary payload: sink %d has children" id)
    | None, [] ->
      failwith
        (Printf.sprintf "binary payload: internal node %d has no children" id)
    | None, kids ->
      Rctree.Tree.Node
        {
          x = nd.b_x;
          y = nd.b_y;
          children = List.map (fun c -> (spec_of c, Some nodes.(c).b_wire)) kids;
        }
  in
  try Rctree.Tree.of_spec (spec_of 0)
  with Invalid_argument msg -> failwith ("binary payload: " ^ msg)

let decode_tree s =
  let r = reader s in
  let t = read_tree r in
  expect_end r "tree";
  t

(* ---------- assignments ---------- *)

(* varint buffer-count, then per buffer: node zigzag, name string,
   cap/delay/res f64; then the same shape for widths (r/c f64).
   Entries are written node-sorted, like the text encoding.  When the
   assignment contains inverters, a trailing polarity section follows:
   marker u8 0x03, varint count, then the inverting node ids (zigzag,
   strictly node-sorted).  All-repeater assignments — every historical
   one — keep their exact bytes. *)

let polarity_marker = 0x03
let power_marker = 0x04

let add_assignment buf (a : Bufins.Assignment.t) =
  let buffers = List.sort compare a.Bufins.Assignment.buffers in
  add_varint buf (List.length buffers);
  List.iter
    (fun (node, (b : Device.Buffer.t)) ->
      add_zigzag buf node;
      add_string buf b.Device.Buffer.name;
      add_f64 buf b.Device.Buffer.cap_ff;
      add_f64 buf b.Device.Buffer.delay_ps;
      add_f64 buf b.Device.Buffer.res_kohm)
    buffers;
  add_varint buf (List.length a.Bufins.Assignment.widths);
  List.iter
    (fun (node, (w : Device.Wire_lib.t)) ->
      add_zigzag buf node;
      add_string buf w.Device.Wire_lib.name;
      add_f64 buf w.Device.Wire_lib.res_per_um;
      add_f64 buf w.Device.Wire_lib.cap_per_um)
    (List.sort compare a.Bufins.Assignment.widths);
  let inverting =
    List.filter_map
      (fun (node, b) ->
        if Device.Buffer.is_inverting b then Some node else None)
      buffers
  in
  if inverting <> [] then begin
    add_u8 buf polarity_marker;
    add_varint buf (List.length inverting);
    List.iter (fun node -> add_zigzag buf node) inverting
  end

let encode_assignment a =
  let buf = Buffer.create 256 in
  add_assignment buf a;
  Buffer.contents buf

let read_assignment r =
  let read_section what read_entry =
    let n = get_varint r (what ^ " count") in
    if n > 16_777_216 then
      failwith (Printf.sprintf "binary payload: absurd %s count" what);
    let seen = Hashtbl.create (min n 64) in
    List.init n (fun i ->
        let node = get_zigzag r (Printf.sprintf "%s %d" what i) in
        if Hashtbl.mem seen node then
          failwith (Printf.sprintf "binary payload: duplicate %s at node %d" what node);
        Hashtbl.add seen node ();
        (node, read_entry i))
  in
  let buffers =
    read_section "buffer" (fun i ->
        let what = Printf.sprintf "buffer %d" i in
        let name = get_token r (what ^ " name") in
        let cap_ff = get_f64 r what in
        let delay_ps = get_f64 r what in
        let res_kohm = get_f64 r what in
        {
          Device.Buffer.name;
          cap_ff;
          delay_ps;
          res_kohm;
          polarity = Device.Buffer.Non_inverting;
        })
  in
  let widths =
    read_section "width" (fun i ->
        let what = Printf.sprintf "width %d" i in
        let name = get_token r (what ^ " name") in
        let res_per_um = get_f64 r what in
        let cap_per_um = get_f64 r what in
        { Device.Wire_lib.name; res_per_um; cap_per_um })
  in
  (* Optional trailing polarity section (the assignment is always the
     last element of its enclosing payload, so a remaining marker byte
     can only belong to it). *)
  let buffers =
    if r.pos < r.limit && Char.code r.src.[r.pos] = polarity_marker then begin
      r.pos <- r.pos + 1;
      let n = get_varint r "inverter count" in
      if n > 16_777_216 then failwith "binary payload: absurd inverter count";
      let inv = Hashtbl.create (min n 64) in
      let prev = ref min_int in
      for i = 0 to n - 1 do
        let node = get_zigzag r (Printf.sprintf "inverter %d" i) in
        if node <= !prev then
          failwith "binary payload: inverter nodes must be strictly sorted";
        prev := node;
        Hashtbl.add inv node ()
      done;
      List.map
        (fun (node, (b : Device.Buffer.t)) ->
          if Hashtbl.mem inv node then begin
            Hashtbl.remove inv node;
            (node, { b with Device.Buffer.polarity = Device.Buffer.Inverting })
          end
          else (node, b))
        buffers
      |> fun marked ->
      if Hashtbl.length inv > 0 then
        failwith "binary payload: inverter node without a buffer entry";
      marked
    end
    else buffers
  in
  { Bufins.Assignment.buffers; widths }

let decode_assignment s =
  let r = reader s in
  let a = read_assignment r in
  expect_end r "assignment";
  a

(* ---------- requests ---------- *)

let mode_code = function
  | Varmodel.Model.Nom -> 0
  | Varmodel.Model.D2d -> 1
  | Varmodel.Model.Wid -> 2

let mode_of_code = function
  | 0 -> Varmodel.Model.Nom
  | 1 -> Varmodel.Model.D2d
  | 2 -> Varmodel.Model.Wid
  | c -> failwith (Printf.sprintf "binary payload: unknown mode code %d" c)

let add_rule buf = function
  | Bufins.Prune.Deterministic -> add_u8 buf 0
  | Bufins.Prune.Two_param { p_l; p_t } ->
    add_u8 buf 1;
    add_f64 buf p_l;
    add_f64 buf p_t
  | Bufins.Prune.One_param { alpha } ->
    add_u8 buf 2;
    add_f64 buf alpha
  | Bufins.Prune.Four_param { alpha_l; alpha_u; beta_l; beta_u } ->
    add_u8 buf 3;
    add_f64 buf alpha_l;
    add_f64 buf alpha_u;
    add_f64 buf beta_l;
    add_f64 buf beta_u

let read_rule r =
  let smart f =
    try f () with Invalid_argument m -> failwith ("binary payload: bad rule: " ^ m)
  in
  match get_u8 r "rule tag" with
  | 0 -> Bufins.Prune.deterministic
  | 1 ->
    let p_l = get_f64 r "rule p_l" in
    let p_t = get_f64 r "rule p_t" in
    smart (fun () -> Bufins.Prune.two_param ~p_l ~p_t ())
  | 2 ->
    let alpha = get_f64 r "rule alpha" in
    smart (fun () -> Bufins.Prune.one_param ~alpha)
  | 3 ->
    let alpha_l = get_f64 r "rule alpha_l" in
    let alpha_u = get_f64 r "rule alpha_u" in
    let beta_l = get_f64 r "rule beta_l" in
    let beta_u = get_f64 r "rule beta_u" in
    smart (fun () -> Bufins.Prune.four_param ~alpha_l ~alpha_u ~beta_l ~beta_u ())
  | t -> failwith (Printf.sprintf "binary payload: unknown rule tag %d" t)

let encode_request (r : Protocol.request) =
  let buf = Buffer.create 1024 in
  Buffer.add_int64_le buf (Int64.of_int r.Protocol.id);
  add_zigzag buf r.Protocol.seed;
  add_u8 buf (mode_code r.Protocol.mode);
  add_rule buf r.Protocol.rule;
  add_zigzag buf r.Protocol.deadline_ms;
  add_zigzag buf r.Protocol.mc_trials;
  add_u8 buf (if r.Protocol.wire_sizing then 1 else 0);
  add_zigzag buf r.Protocol.samples;
  add_f64 buf r.Protocol.relax;
  let tree = encode_tree r.Protocol.tree in
  add_varint buf (String.length tree);
  Buffer.add_string buf tree;
  (* Extension region after the tree blob: (tag u8, value) pairs,
     each emitted only away from its default so historical payloads —
     and the digests derived from them — keep their exact bytes.
     Decoders reject unknown tags, like every other strict decoder
     here. *)
  if r.Protocol.btypes <> 0 then begin
    add_u8 buf 0x01;
    add_zigzag buf r.Protocol.btypes
  end;
  if r.Protocol.objective <> Bufins.Dominance.default then begin
    add_u8 buf 0x02;
    (* The wire/CLI spelling ("weighted <w>"); it contains a space, so
       it is a length-prefixed string, not a token. *)
    add_string buf (Bufins.Dominance.to_string r.Protocol.objective)
  end;
  if r.Protocol.eps_power <> 0.0 then begin
    add_u8 buf 0x03;
    add_f64 buf r.Protocol.eps_power
  end;
  Buffer.contents buf

let get_bool r what =
  match get_u8 r what with
  | 0 -> false
  | 1 -> true
  | v -> failwith (Printf.sprintf "binary payload: %s byte %d is not a boolean" what v)

(* Read everything up to (but not into) the tree blob; returns the
   request as a function of its tree, the blob length and the deadline
   field's byte range, and leaves [r.pos] at the blob's first byte with
   the length already checked against the remaining input. *)
let read_request_head r =
  let id = get_i64le r "request id" in
  let seed = get_zigzag r "seed" in
  let mode = mode_of_code (get_u8 r "mode") in
  let rule = read_rule r in
  let deadline_at = r.pos in
  let deadline_ms = get_zigzag r "deadline_ms" in
  let deadline_span = (deadline_at, r.pos) in
  let mc_trials = get_zigzag r "mc" in
  if mc_trials > max_mc_trials then
    failwith
      (Printf.sprintf "binary payload: mc_trials must be <= %d" max_mc_trials);
  let wire_sizing = get_bool r "wire_sizing" in
  let samples = get_zigzag r "samples" in
  if samples > max_samples then
    failwith (Printf.sprintf "binary payload: samples must be <= %d" max_samples);
  let relax = get_f64 r "relax" in
  if not (relax > 0.0) then failwith "binary payload: relax must be > 0";
  (* relax > 1 turns sample pruning off, which no served workload asks
     for and nothing bounds. *)
  if relax > 1.0 then failwith "binary payload: relax must be <= 1";
  let tree_len = get_varint r "tree length" in
  need r tree_len "tree blob";
  (* Bytes after the blob form the extension region (see
     [encode_request]); parse and validate it here so every head
     reader agrees on what a well-formed payload is, while [r.pos]
     still lands on the blob's first byte for the caller. *)
  let btypes = ref 0 in
  let objective = ref Bufins.Dominance.default in
  let eps_power = ref 0.0 in
  let er = { src = r.src; pos = r.pos + tree_len; limit = r.limit } in
  let seen_btypes = ref false in
  let seen_objective = ref false in
  let seen_eps = ref false in
  while er.pos < er.limit do
    match get_u8 er "extension tag" with
    | 0x01 ->
      if !seen_btypes then
        failwith "binary payload: duplicate btypes extension";
      seen_btypes := true;
      let v = get_zigzag er "btypes" in
      if v < 0 || v > max_btypes then
        failwith
          (Printf.sprintf "binary payload: btypes must lie in 0..%d" max_btypes);
      btypes := v
    | 0x02 ->
      if !seen_objective then
        failwith "binary payload: duplicate objective extension";
      seen_objective := true;
      let s = get_string er "objective" in
      (try objective := Bufins.Dominance.of_string s
       with Failure m -> failwith ("binary payload: " ^ m))
    | 0x03 ->
      if !seen_eps then
        failwith "binary payload: duplicate eps_power extension";
      seen_eps := true;
      let v = get_f64 er "eps_power" in
      if v < 0.0 || Float.is_nan v then
        failwith "binary payload: eps_power must be >= 0";
      eps_power := v
    | t -> failwith (Printf.sprintf "binary payload: unknown extension tag %d" t)
  done;
  let btypes = !btypes and objective = !objective and eps_power = !eps_power in
  (* The canonical engine takes no power-aware objective under 4P
     ([Bufins.Engine.run_tape] raises); sampled requests ignore
     [rule]. *)
  if samples <= 0
     && Bufins.Dominance.power_aware objective
     && not (Bufins.Prune.is_linear rule)
  then failwith "binary payload: rule 4p takes no power-aware objective";
  ( (fun tree ->
      {
        Protocol.id;
        seed;
        mode;
        rule;
        deadline_ms;
        mc_trials;
        wire_sizing;
        samples;
        relax;
        btypes;
        objective;
        eps_power;
        tree;
      }),
    tree_len,
    deadline_span )

let decode_request s =
  let r = reader s in
  let request, tree_len, _ = read_request_head r in
  let tr = reader ~pos:r.pos ~limit:(r.pos + tree_len) s in
  let tree = read_tree tr in
  expect_end tr "tree";
  request tree

let request_tree_span s =
  let r = reader s in
  let _, tree_len, _ = read_request_head r in
  (r.pos, tree_len)

(* The id is the first 8 bytes, and the deadline follows the rule: the
   bytes in between are the seed, mode and rule (at most 43), kept
   verbatim after the digest of everything past the deadline. *)
let request_key s =
  let _, _, (deadline_at, deadline_end) = read_request_head (reader s) in
  Digest.substring s deadline_end (String.length s - deadline_end)
  ^ String.sub s 8 (deadline_at - 8)

let request_id s =
  let r = reader s in
  get_i64le r "request id"

let with_request_id s id =
  if String.length s < 8 then failwith "binary payload: truncated request id";
  let b = Bytes.of_string s in
  Bytes.set_int64_le b 0 (Int64.of_int id);
  Bytes.unsafe_to_string b

(* ---------- responses ---------- *)

let encode_response (r : Protocol.response) =
  let buf = Buffer.create 512 in
  Buffer.add_int64_le buf (Int64.of_int r.Protocol.r_id);
  add_zigzag buf r.Protocol.nodes;
  add_zigzag buf r.Protocol.peak_candidates;
  add_zigzag buf r.Protocol.total_candidates;
  add_f64 buf r.Protocol.root_mean;
  add_f64 buf r.Protocol.root_std;
  add_f64 buf r.Protocol.root_yield95;
  (match r.Protocol.sampled with
  | None -> add_u8 buf 0
  | Some s ->
    add_u8 buf 1;
    add_varint buf s.Protocol.s_k;
    add_f64 buf s.Protocol.s_mean;
    add_f64 buf s.Protocol.s_std;
    add_f64 buf s.Protocol.s_rat_at_yield);
  (match r.Protocol.mc with
  | None -> add_u8 buf 0
  | Some (mean, std) ->
    add_u8 buf 1;
    add_f64 buf mean;
    add_f64 buf std);
  add_assignment buf r.Protocol.assignment;
  (* Trailing extension after the assignment, same shape as the
     request's region: emitted only for power-aware responses so every
     historical response keeps its exact bytes.  The marker must
     differ from [polarity_marker] — the assignment reader sniffs that
     byte for its own optional tail. *)
  (match r.Protocol.r_power with
  | None -> ()
  | Some p ->
    add_u8 buf power_marker;
    add_f64 buf p);
  Buffer.contents buf

let decode_response s =
  let r = reader s in
  let r_id = get_i64le r "response id" in
  let nodes = get_zigzag r "nodes" in
  let peak_candidates = get_zigzag r "peak_candidates" in
  let total_candidates = get_zigzag r "total_candidates" in
  let root_mean = get_f64 r "root_mean" in
  let root_std = get_f64 r "root_std" in
  let root_yield95 = get_f64 r "root_yield95" in
  let sampled =
    if get_bool r "sampled flag" then begin
      let s_k = get_varint r "sample_k" in
      let s_mean = get_f64 r "sample_mean" in
      let s_std = get_f64 r "sample_std" in
      let s_rat_at_yield = get_f64 r "sample_yield_rat" in
      Some { Protocol.s_k; s_mean; s_std; s_rat_at_yield }
    end
    else None
  in
  let mc =
    if get_bool r "mc flag" then begin
      let mean = get_f64 r "mc_mean" in
      let std = get_f64 r "mc_std" in
      Some (mean, std)
    end
    else None
  in
  let assignment = read_assignment r in
  let r_power =
    if r.pos < r.limit && Char.code r.src.[r.pos] = power_marker then begin
      r.pos <- r.pos + 1;
      Some (get_f64 r "power")
    end
    else None
  in
  expect_end r "response";
  {
    Protocol.r_id;
    nodes;
    peak_candidates;
    total_candidates;
    root_mean;
    root_std;
    root_yield95;
    sampled;
    mc;
    r_power;
    assignment;
  }

let response_id s =
  let r = reader s in
  get_i64le r "response id"

let with_response_id = with_request_id

(* ---------- errors ---------- *)

let encode_error (e : Protocol.error) =
  let buf = Buffer.create 64 in
  add_string buf e.Protocol.code;
  add_string buf e.Protocol.message;
  Buffer.contents buf

let decode_error s =
  let r = reader s in
  let code = get_string r "error code" in
  let message = get_string r "error message" in
  expect_end r "error";
  { Protocol.code; message }
