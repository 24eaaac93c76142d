(* Fuzz/property tests for the binary payload codec (`Codec_bin`) and
   the framing (`Wire`), mirroring what `test_wire_formats` establishes
   for the tree and buffering text formats:

   - round-trips are bit-exact (encode → decode → encode is the
     identity on bytes) and keep every field's value;
   - any strict prefix of an encoding is rejected with `Failure`;
   - arbitrary single-byte corruption, an overflowing varint or an
     impossible node count either still decodes (to some value) or
     raises `Failure` — never any other exception;
   - the frame decoder resynchronises after an oversized frame and
     rejects a retired v1 text header. *)

let qcheck = QCheck_alcotest.to_alcotest

(* ---------- generators (trees/assignments come from test_wire_formats) ---------- *)

let rule_gen =
  QCheck.Gen.(
    oneof
      [
        return Bufins.Prune.deterministic;
        (let* p_l = float_range 0.5 1.0 and* p_t = float_range 0.5 1.0 in
         return (Bufins.Prune.two_param ~p_l ~p_t ()));
        (let* alpha = float_range 0.01 0.99 in
         return (Bufins.Prune.one_param ~alpha));
        (let* alpha_l = float_range 0.0 0.49
         and* alpha_u = float_range 0.51 1.0
         and* beta_l = float_range 0.0 0.49
         and* beta_u = float_range 0.51 1.0 in
         return (Bufins.Prune.four_param ~alpha_l ~alpha_u ~beta_l ~beta_u ()));
      ])

let request_gen =
  QCheck.Gen.(
    let* tree = Test_wire_formats.tree_gen in
    let* id = int_range 0 1_000_000
    and* seed = int_range 0 100_000
    and* mode =
      oneofl
        [ Experiments.Common.Nom; Experiments.Common.D2d;
          Experiments.Common.Wid ]
    and* rule = rule_gen
    and* deadline_ms = int_range 0 100_000
    and* mc_trials = int_range 0 1000
    and* wire_sizing = bool
    (* The defaults must stay common so the historical-bytes path is
       exercised.  Only accepted requests: relax lies in (0, 1], and a
       canonical 4P request keeps the default objective. *)
    and* samples = oneof [ return 0; int_range 1 4096 ]
    and* relax = oneof [ return 1.0; float_range 0.25 1.0 ]
    and* btypes = oneof [ return 0; int_range 1 32 ]
    and* objective =
      oneof
        [
          return Bufins.Dominance.Max_yield;
          (let* t = float_range (-1e6) 1e6 in
           return (Bufins.Dominance.Min_power t));
          (let* w = float_range 0.0 10.0 in
           return (Bufins.Dominance.Weighted w));
        ]
    and* eps_power = oneof [ return 0.0; float_range 1e-6 1.0 ] in
    let objective =
      if samples = 0 && not (Bufins.Prune.is_linear rule) then
        Bufins.Dominance.Max_yield
      else objective
    in
    return
      {
        Serve.Protocol.id;
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
      })

(* Value equality read field by field, independent of the codec under
   test: floats compare by their bits, trees by their Rctree.Io text and
   assignments by their Bufins.Assignment text.  A field that the
   encoder and the decoder both dropped therefore still fails. *)
let bits = Int64.bits_of_float

let rule_bits = function
  | Bufins.Prune.Deterministic -> (0, [])
  | Bufins.Prune.Two_param { p_l; p_t } -> (1, List.map bits [ p_l; p_t ])
  | Bufins.Prune.One_param { alpha } -> (2, [ bits alpha ])
  | Bufins.Prune.Four_param { alpha_l; alpha_u; beta_l; beta_u } ->
    (3, List.map bits [ alpha_l; alpha_u; beta_l; beta_u ])

let objective_bits = function
  | Bufins.Dominance.Max_yield -> (0, [])
  | Bufins.Dominance.Min_power t -> (1, [ bits t ])
  | Bufins.Dominance.Weighted w -> (2, [ bits w ])

let request_fields (q : Serve.Protocol.request) =
  let open Serve.Protocol in
  ( (q.id, q.seed, q.mode, rule_bits q.rule, q.deadline_ms, q.mc_trials),
    (q.wire_sizing, q.samples, bits q.relax, q.btypes),
    (objective_bits q.objective, bits q.eps_power, Rctree.Io.to_string q.tree) )

let response_fields (r : Serve.Protocol.response) =
  let open Serve.Protocol in
  ( (r.r_id, r.nodes, r.peak_candidates, r.total_candidates),
    List.map bits [ r.root_mean; r.root_std; r.root_yield95 ],
    Option.map
      (fun s -> (s.s_k, List.map bits [ s.s_mean; s.s_std; s.s_rat_at_yield ]))
      r.sampled,
    Option.map (fun (m, s) -> (bits m, bits s)) r.mc,
    Option.map bits r.r_power,
    Bufins.Assignment.to_string r.assignment )

let arb_request =
  QCheck.make request_gen ~print:(fun q ->
      String.escaped (Serve.Codec_bin.encode_request q))

let finite_float = QCheck.Gen.float_range (-1e9) 1e9

let response_gen =
  QCheck.Gen.(
    let* r_id = int_range 0 1_000_000
    and* nodes = int_range 1 10_000
    and* peak_candidates = int_range 0 1_000_000
    and* total_candidates = int_range 0 10_000_000
    and* root_mean = finite_float
    and* root_std = float_range 0.0 1e6
    and* root_yield95 = finite_float
    and* sampled =
      option
        (let* s_k = int_range 1 4096
         and* s_mean = finite_float
         and* s_std = float_range 0.0 1e6
         and* s_rat_at_yield = finite_float in
         return { Serve.Protocol.s_k; s_mean; s_std; s_rat_at_yield })
    and* mc =
      option (let* m = finite_float and* s = float_range 0.0 1e6 in
              return (m, s))
    and* r_power = option (float_range 0.0 1e6)
    and* assignment = Test_wire_formats.assignment_gen in
    return
      {
        Serve.Protocol.r_id;
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
      })

let arb_response =
  QCheck.make response_gen ~print:(fun r ->
      String.escaped (Serve.Codec_bin.encode_response r))

(* ---------- bit-exact round-trips that keep every value ---------- *)

let prop_request_roundtrip =
  QCheck.Test.make ~name:"v2 request round-trip is bit-exact and value-equal"
    ~count:100 arb_request (fun q ->
      let b = Serve.Codec_bin.encode_request q in
      let q' = Serve.Codec_bin.decode_request b in
      Serve.Codec_bin.encode_request q' = b
      && request_fields q' = request_fields q)

let prop_response_roundtrip =
  QCheck.Test.make ~name:"v2 response round-trip is bit-exact and value-equal"
    ~count:200 arb_response (fun r ->
      let b = Serve.Codec_bin.encode_response r in
      let r' = Serve.Codec_bin.decode_response b in
      Serve.Codec_bin.encode_response r' = b
      && response_fields r' = response_fields r)

let prop_tree_roundtrip =
  QCheck.Test.make ~name:"v2 tree round-trip is bit-exact and Io-equal"
    ~count:100 Test_wire_formats.arb_tree (fun t ->
      let b = Serve.Codec_bin.encode_tree t in
      let t' = Serve.Codec_bin.decode_tree b in
      Serve.Codec_bin.encode_tree t' = b
      && Rctree.Io.to_string t' = Rctree.Io.to_string t)

let prop_assignment_roundtrip =
  QCheck.Test.make ~name:"v2 assignment round-trip is bit-exact" ~count:200
    Test_wire_formats.arb_assignment (fun a ->
      let b = Serve.Codec_bin.encode_assignment a in
      Serve.Codec_bin.decode_assignment b = a
      && Serve.Codec_bin.encode_assignment (Serve.Codec_bin.decode_assignment b)
         = b)

let prop_error_roundtrip =
  QCheck.Test.make ~name:"v2 error round-trip"
    ~count:100
    QCheck.(
      make
        Gen.(
          let* code =
            oneofl
              [ Serve.Protocol.err_parse; Serve.Protocol.err_busy;
                Serve.Protocol.err_internal ]
          and* message = string_size ~gen:Gen.printable (Gen.int_range 0 60) in
          return { Serve.Protocol.code; message }))
    (fun e ->
      let b = Serve.Codec_bin.encode_error e in
      let e' = Serve.Codec_bin.decode_error b in
      Serve.Codec_bin.encode_error e' = b && e'.Serve.Protocol.code = e.Serve.Protocol.code)

(* ---------- router helpers ---------- *)

let prop_id_rewrite =
  QCheck.Test.make ~name:"request id reads/rewrites without decoding"
    ~count:50
    QCheck.(pair arb_request (int_range 0 1_000_000))
    (fun (q, id') ->
      let b = Serve.Codec_bin.encode_request q in
      Serve.Codec_bin.request_id b = q.Serve.Protocol.id
      &&
      let b' = Serve.Codec_bin.with_request_id b id' in
      Serve.Codec_bin.request_id b' = id'
      && (Serve.Codec_bin.decode_request b').Serve.Protocol.id = id'
      && String.length b' = String.length b)

let prop_tree_span =
  QCheck.Test.make ~name:"request_tree_span locates the tree blob"
    ~count:50 arb_request (fun q ->
      let b = Serve.Codec_bin.encode_request q in
      let off, len = Serve.Codec_bin.request_tree_span b in
      (* The extension region (btypes/objective/eps_power) sits after
         the blob; without it the blob runs to the end of the
         payload. *)
      (q.Serve.Protocol.btypes <> 0
      || q.Serve.Protocol.objective <> Bufins.Dominance.Max_yield
      || q.Serve.Protocol.eps_power <> 0.0
      || off + len = String.length b)
      && String.sub b off len = Serve.Codec_bin.encode_tree q.Serve.Protocol.tree)

(* ---------- truncation and corruption never crash ---------- *)

let prop_request_truncation =
  QCheck.Test.make ~name:"every strict prefix of a request is a Failure"
    ~count:40 arb_request (fun q ->
      let b = Serve.Codec_bin.encode_request q in
      let n = String.length b in
      (* The extension region after the tree blob is optional and
         self-delimiting, so a cut landing exactly on an entry
         boundary there is a shorter-but-valid request (its trailing
         extensions revert to defaults).  Any cut before the region —
         anywhere inside the head or the tree blob — must fail. *)
      let off, len = Serve.Codec_bin.request_tree_span b in
      let ext_start = off + len in
      (* All short prefixes, then a sample across the payload. *)
      let cuts =
        List.init (min n 24) (fun i -> i)
        @ List.init 24 (fun i -> 24 + (i * (max 1 ((n - 24) / 24))))
      in
      List.for_all
        (fun k ->
          k >= n
          || (match Serve.Codec_bin.decode_request (String.sub b 0 k) with
             | _ -> k >= ext_start
             | exception Failure _ -> true))
        cuts)

let prop_response_corruption =
  QCheck.Test.make
    ~name:"byte corruption of a response decodes or raises Failure only"
    ~count:200
    QCheck.(pair arb_response (pair small_nat (int_range 0 255)))
    (fun (r, (pos, byte)) ->
      let b = Serve.Codec_bin.encode_response r in
      let pos = pos mod String.length b in
      let b' =
        String.mapi (fun i c -> if i = pos then Char.chr byte else c) b
      in
      match Serve.Codec_bin.decode_response b' with
      | _ -> true
      | exception Failure _ -> true
      | exception _ -> false)

let prop_request_corruption =
  QCheck.Test.make
    ~name:"byte corruption of a request decodes or raises Failure only"
    ~count:200
    QCheck.(pair arb_request (pair small_nat (int_range 0 255)))
    (fun (q, (pos, byte)) ->
      let b = Serve.Codec_bin.encode_request q in
      let pos = pos mod String.length b in
      let b' =
        String.mapi (fun i c -> if i = pos then Char.chr byte else c) b
      in
      match Serve.Codec_bin.decode_request b' with
      | _ -> true
      | exception Failure _ -> true
      | exception _ -> false)

(* ---------- hostile lengths: overflowing varints, impossible counts ---------- *)

(* A nine-byte varint whose last group reaches the sign bit: read
   naively it is -100. *)
let varint_overflow = "\x9c\xff\xff\xff\xff\xff\xff\xff\x7f"

let f64 x =
  let b = Bytes.create 8 in
  Bytes.set_int64_le b 0 (Int64.bits_of_float x);
  Bytes.to_string b

(* The blob of a root with one sink child "s1"; [parent] and [name_len]
   are the raw bytes of the sink's parent id and name length, the
   others the sink's position, wire, capacitance and RAT. *)
let tree_blob ?(parent = "\x00") ?(name_len = "\x02") ?(x = 10.0) ?(y = 0.0)
    ?(wire = 10.0) ?(cap = 1.0) ?(rat = 100.0) () =
  String.concat ""
    [ "\x02\x00"; f64 0.0; f64 0.0; "\x02"; f64 x; f64 y; parent;
      f64 wire; f64 cap; f64 rat; name_len; "s1" ]

(* The 39-byte head of a default request (everything before its tree
   length), then [rest]. *)
let request_with rest =
  let tree = Serve.Codec_bin.decode_tree (tree_blob ()) in
  let b = Serve.Codec_bin.encode_request (Serve.Protocol.default_request ~tree) in
  let off, _ = Serve.Codec_bin.request_tree_span b in
  String.sub b 0 (off - 1) ^ rest

let with_blob blob = request_with (String.make 1 (Char.chr (String.length blob)) ^ blob)

(* 48 bytes: the head, then an overflowing tree length. *)
let overflow_request = request_with varint_overflow

(* 2^24 tree nodes announced, one root present; 61 bytes as a request. *)
let absurd_blob = "\x80\x80\x80\x08\x00" ^ f64 0.0 ^ f64 0.0
let absurd_request = with_blob absurd_blob

let fails what f =
  match f () with
  | _ -> Alcotest.failf "%s decoded" what
  | exception Failure _ -> ()

let test_varint_overflow () =
  (* Not vacuous: the unmodified blob decodes inside a request. *)
  ignore (Serve.Codec_bin.decode_request (with_blob (tree_blob ())));
  fails "tree length (decode_request)" (fun () ->
      Serve.Codec_bin.decode_request overflow_request);
  fails "tree length (request_tree_span)" (fun () ->
      Serve.Codec_bin.request_tree_span overflow_request);
  List.iter
    (fun (what, blob) ->
      fails (what ^ " (decode_tree)") (fun () -> Serve.Codec_bin.decode_tree blob);
      fails (what ^ " (decode_request)") (fun () ->
          Serve.Codec_bin.decode_request (with_blob blob)))
    [
      ("string length", tree_blob ~name_len:varint_overflow ());
      ("parent id", tree_blob ~parent:varint_overflow ());
    ]

let test_absurd_node_count () =
  List.iter
    (fun (what, decode) ->
      let before = Gc.allocated_bytes () in
      fails what decode;
      let allocated = Gc.allocated_bytes () -. before in
      Alcotest.(check bool)
        (Printf.sprintf "%s allocated %.0f bytes" what allocated)
        true (allocated < 1e6))
    [
      ("decode_tree", fun () -> ignore (Serve.Codec_bin.decode_tree absurd_blob));
      ( "decode_request",
        fun () -> ignore (Serve.Codec_bin.decode_request absurd_request) );
    ]

(* The head reader refuses what no caller needs and nothing bounds:
   relax outside (0, 1], and a canonical (samples = 0) 4P request
   under a power-aware objective, whose 4P cross merge ran unbounded
   on this 8-sink net.  The refusal needs no tree. *)
let head_request =
  lazy
    (Serve.Protocol.default_request
       ~tree:(Rctree.Generate.random_steiner ~seed:211 ~sinks:8 ~die_um:4000.0 ()))

let refused what q =
  let b = Serve.Codec_bin.encode_request q in
  fails (what ^ " (decode_request)") (fun () -> Serve.Codec_bin.decode_request b);
  fails (what ^ " (request_tree_span)") (fun () ->
      Serve.Codec_bin.request_tree_span b)

let accepted what q =
  let b = Serve.Codec_bin.encode_request q in
  match Serve.Codec_bin.decode_request b with
  | _ -> ()
  | exception Failure m -> Alcotest.failf "%s refused: %s" what m

let test_refuses_4p_power () =
  let four_p =
    {
      (Lazy.force head_request) with
      Serve.Protocol.rule = Bufins.Prune.four_param ();
      objective = Bufins.Dominance.Weighted 1.0;
    }
  in
  refused "4P weighted 1" four_p;
  refused "4P min_power"
    { four_p with Serve.Protocol.objective = Bufins.Dominance.Min_power 0.0 };
  accepted "4P max_yield" { four_p with Serve.Protocol.objective = Bufins.Dominance.Max_yield };
  accepted "sampled 4P weighted 1" { four_p with Serve.Protocol.samples = 16 }

let test_refuses_relax_above_1 () =
  let base = Lazy.force head_request in
  List.iter
    (fun relax ->
      refused (Printf.sprintf "relax %g" relax) { base with Serve.Protocol.relax })
    [ 0.0; -1.0; Float.nan; 1.0 +. epsilon_float; 2.0; 1e300; infinity ];
  List.iter
    (fun relax ->
      accepted (Printf.sprintf "relax %g" relax) { base with Serve.Protocol.relax })
    [ 1.0; 0.8; 1e-300 ]

(* NaN rule parameters: the 2P and 1P range checks once read
   [p < 0.5 || p > 1.0], which is false for NaN, so 2P(NaN) reached the
   engine and pruned nothing (a 12-sink net took 10 s; 20 sinks did not
   finish).  A NaN p_l, p_t or alpha is a parse error now. *)
let test_refuses_nan_rule () =
  let base = Lazy.force head_request in
  let nan = Float.nan in
  List.iter
    (fun (what, rule) -> refused what { base with Serve.Protocol.rule })
    [
      ("2P(nan, nan)", Bufins.Prune.Two_param { p_l = nan; p_t = nan });
      ("2P(nan, 0.5)", Bufins.Prune.Two_param { p_l = nan; p_t = 0.5 });
      ("2P(0.5, nan)", Bufins.Prune.Two_param { p_l = 0.5; p_t = nan });
      ("1P(nan)", Bufins.Prune.One_param { alpha = nan });
    ];
  accepted "2P(0.5, 1)"
    { base with Serve.Protocol.rule = Bufins.Prune.two_param ~p_t:1.0 () };
  accepted "1P(0.95)"
    { base with Serve.Protocol.rule = Bufins.Prune.one_param ~alpha:0.95 }

(* Caps far beyond every workload, experiment and test (the bench
   sweeps b <= 16, the experiments draw K <= 1024): above them one lift
   over the library, or the sample matrix drawn before the first
   deadline check, ran unbounded. *)
let test_refuses_btypes_above_64 () =
  let base = Lazy.force head_request in
  List.iter
    (fun btypes ->
      refused (Printf.sprintf "btypes %d" btypes) { base with Serve.Protocol.btypes })
    [ 65; 4096; 65536 ];
  List.iter
    (fun btypes ->
      accepted (Printf.sprintf "btypes %d" btypes) { base with Serve.Protocol.btypes })
    [ 1; 16; 64 ]

let test_refuses_samples_above_4096 () =
  let base = Lazy.force head_request in
  List.iter
    (fun samples ->
      refused (Printf.sprintf "samples %d" samples) { base with Serve.Protocol.samples })
    [ 4097; 4_000_000 ];
  List.iter
    (fun samples ->
      accepted (Printf.sprintf "samples %d" samples) { base with Serve.Protocol.samples })
    [ 64; 1024; 4096 ]

(* Nothing bounds a Monte-Carlo stage's setup before its first deadline
   check: 10^9 trials held a worker for 12 s at 2.3 GB against a 500-ms
   deadline.  The largest caller asks 200,000. *)
let test_refuses_mc_trials_above_1e6 () =
  let base = Lazy.force head_request in
  List.iter
    (fun mc_trials ->
      refused (Printf.sprintf "mc_trials %d" mc_trials) { base with Serve.Protocol.mc_trials })
    [ 1_000_001; 1_000_000_000 ];
  List.iter
    (fun mc_trials ->
      accepted (Printf.sprintf "mc_trials %d" mc_trials) { base with Serve.Protocol.mc_trials })
    [ 0; 200_000; 1_000_000 ]

(* Tree values: the codec refuses a node beyond 5e4 um (over twice
   r5's 22.5 mm die; a sink at 1e6 um made the sample matrix draw K
   samples for each of 4e6 grid regions), and [Rctree.Tree.of_spec],
   which every tree constructor shares, refuses non-finite values and
   a negative capacitance.  Each blob also fails inside a request. *)
let refused_tree what blob =
  fails (what ^ " (decode_tree)") (fun () -> Serve.Codec_bin.decode_tree blob);
  fails (what ^ " (decode_request)") (fun () ->
      Serve.Codec_bin.decode_request (with_blob blob))

let accepted_tree what blob =
  match Serve.Codec_bin.decode_request (with_blob blob) with
  | _ -> ()
  | exception Failure m -> Alcotest.failf "%s refused: %s" what m

let sink_spec ?(x = 10.0) ?(y = 0.0) ?wire ?(cap = 1.0) ?(rat = 100.0) () =
  Rctree.Tree.Node
    {
      x = 0.0;
      y = 0.0;
      children =
        [
          ( Rctree.Tree.Leaf
              {
                x;
                y;
                sink =
                  { Rctree.Tree.sink_cap = cap; sink_rat = rat; sink_name = "s1" };
              },
            wire );
        ];
    }

let spec_refused what spec =
  match Rctree.Tree.of_spec spec with
  | _ -> Alcotest.failf "Tree.of_spec accepted %s" what
  | exception Invalid_argument _ -> ()

let test_refuses_far_coordinates () =
  List.iter
    (fun (x, y) ->
      refused_tree (Printf.sprintf "sink at (%g, %g)" x y) (tree_blob ~x ~y ()))
    [ (1e6, 0.0); (0.0, -1e6); (5e4 +. 1.0, 0.0); (0.0, -.(5e4 +. 1.0)) ];
  accepted_tree "sink at (5e4, -5e4)" (tree_blob ~x:5e4 ~y:(-5e4) ());
  (* The far sink of a sampled request: its head decodes, so the router
     forwards it, and the worker's decode refuses it. *)
  let far =
    {
      (Serve.Protocol.default_request
         ~tree:(Rctree.Tree.of_spec (sink_spec ~x:1e6 ())))
      with
      Serve.Protocol.samples = 64;
      deadline_ms = 2000;
    }
  in
  let b = Serve.Codec_bin.encode_request far in
  ignore (Serve.Codec_bin.request_tree_span b);
  fails "far-sink request" (fun () -> Serve.Codec_bin.decode_request b)

let test_refuses_nonfinite_coordinates () =
  List.iter
    (fun (x, y) ->
      let what = Printf.sprintf "sink at (%g, %g)" x y in
      refused_tree what (tree_blob ~x ~y ());
      spec_refused what (sink_spec ~x ~y ()))
    [ (Float.nan, 0.0); (0.0, Float.nan); (infinity, 0.0); (0.0, neg_infinity) ]

let test_refuses_bad_sink_cap () =
  List.iter
    (fun cap ->
      let what = Printf.sprintf "sink cap %g" cap in
      refused_tree what (tree_blob ~cap ());
      spec_refused what (sink_spec ~cap ()))
    [ Float.nan; infinity; -1.0; -.epsilon_float ];
  accepted_tree "sink cap 0" (tree_blob ~cap:0.0 ())

let test_refuses_bad_sink_rat () =
  List.iter
    (fun rat ->
      let what = Printf.sprintf "sink RAT %g" rat in
      refused_tree what (tree_blob ~rat ());
      spec_refused what (sink_spec ~rat ()))
    [ Float.nan; infinity; neg_infinity ];
  accepted_tree "sink RAT -1e6" (tree_blob ~rat:(-1e6) ())

let test_refuses_infinite_wire () =
  refused_tree "wire inf" (tree_blob ~wire:infinity ());
  spec_refused "wire inf" (sink_spec ~wire:infinity ())

(* ---------- framing: resync, header errors ---------- *)

let drain_events dec =
  let rec go acc =
    match Serve.Wire.next dec with
    | None -> List.rev acc
    | Some e -> go (e :: acc)
  in
  go []

(* Three bytes at a time, so headers and payloads split across
   feeds. *)
let feed_all dec s =
  let rec go i =
    if i < String.length s then begin
      let n = min 3 (String.length s - i) in
      Serve.Wire.feed dec (Bytes.of_string (String.sub s i n)) n;
      go (i + n)
    end
  in
  go 0

let test_v2_resync_after_oversized () =
  let dec = Serve.Wire.decoder ~max_payload:8 () in
  let stream =
    Serve.Wire.frame_bytes ~kind:"ok" "hi"
    ^ Serve.Wire.frame_bytes ~kind:"request" (String.make 20 'x')
    ^ Serve.Wire.frame_bytes ~kind:"stats" "yes"
  in
  feed_all dec stream;
  match drain_events dec with
  | [ Serve.Wire.Frame { kind = "ok"; payload = "hi" };
      Serve.Wire.Oversized { kind = "request"; len = 20 };
      Serve.Wire.Frame { kind = "stats"; payload = "yes" };
    ] ->
    ()
  | events ->
    Alcotest.failf "unexpected event stream (%d events)" (List.length events)

let test_v1_header_is_failure () =
  (* The retired text framing: its first byte already diverges from the
     magic, so the stream is lost there, even after a good frame. *)
  let dec = Serve.Wire.decoder () in
  feed_all dec (Serve.Wire.frame_bytes ~kind:"ok" "" ^ "varbuf1 stats 0\n");
  (match Serve.Wire.next dec with
  | Some (Serve.Wire.Frame { kind = "ok"; payload = "" }) -> ()
  | _ -> Alcotest.fail "expected the good frame first");
  (match Serve.Wire.next dec with
  | _ -> Alcotest.fail "expected a framing Failure"
  | exception Failure _ -> ());
  let dec = Serve.Wire.decoder () in
  Serve.Wire.feed dec (Bytes.of_string "v") 1;
  match Serve.Wire.next dec with
  | _ -> Alcotest.fail "one byte of a v1 header must already fail"
  | exception Failure _ -> ()

let test_v2_header_errors () =
  let bad_version =
    let b = Bytes.of_string (Serve.Wire.frame_bytes ~kind:"ok" "") in
    Bytes.set b 4 '\x03';
    Bytes.to_string b
  in
  let bad_kind =
    let b = Bytes.of_string (Serve.Wire.frame_bytes ~kind:"ok" "") in
    Bytes.set b 5 '\xff';
    Bytes.to_string b
  in
  let bad_magic = "\xABVB9\x02\x08\x00\x00\x00\x00" in
  List.iter
    (fun stream ->
      let dec = Serve.Wire.decoder () in
      feed_all dec stream;
      match drain_events dec with
      | _ -> Alcotest.fail "expected a framing Failure"
      | exception Failure _ -> ())
    [ bad_version; bad_kind; bad_magic ];
  (* A partial header is not an error — just an incomplete frame. *)
  let dec = Serve.Wire.decoder () in
  let frame = Serve.Wire.frame_bytes ~kind:"ok" "x" in
  feed_all dec (String.sub frame 0 6);
  Alcotest.(check bool) "partial header pends" true (drain_events dec = [])

let suite =
  [
    qcheck prop_request_roundtrip;
    qcheck prop_response_roundtrip;
    qcheck prop_tree_roundtrip;
    qcheck prop_assignment_roundtrip;
    qcheck prop_error_roundtrip;
    qcheck prop_id_rewrite;
    qcheck prop_tree_span;
    qcheck prop_request_truncation;
    qcheck prop_response_corruption;
    qcheck prop_request_corruption;
    Alcotest.test_case "varint overflow is a Failure in every decoder" `Quick
      test_varint_overflow;
    Alcotest.test_case "an absurd tree node count fails before allocating"
      `Quick test_absurd_node_count;
    Alcotest.test_case "the head refuses canonical 4P under a power objective"
      `Quick test_refuses_4p_power;
    Alcotest.test_case "the head refuses relax outside (0, 1]" `Quick
      test_refuses_relax_above_1;
    Alcotest.test_case "the head refuses NaN rule parameters" `Quick
      test_refuses_nan_rule;
    Alcotest.test_case "the head refuses btypes above 64" `Quick
      test_refuses_btypes_above_64;
    Alcotest.test_case "the head refuses samples above 4096" `Quick
      test_refuses_samples_above_4096;
    Alcotest.test_case "the head refuses mc_trials above 10^6" `Quick
      test_refuses_mc_trials_above_1e6;
    Alcotest.test_case "a tree refuses a node beyond 5e4 um" `Quick
      test_refuses_far_coordinates;
    Alcotest.test_case "a tree refuses NaN or infinite coordinates" `Quick
      test_refuses_nonfinite_coordinates;
    Alcotest.test_case "a tree refuses a NaN, infinite or negative sink cap"
      `Quick test_refuses_bad_sink_cap;
    Alcotest.test_case "a tree refuses a NaN or infinite sink RAT" `Quick
      test_refuses_bad_sink_rat;
    Alcotest.test_case "a tree refuses an infinite wire length" `Quick
      test_refuses_infinite_wire;
    Alcotest.test_case "v2 resync after oversized frame" `Quick
      test_v2_resync_after_oversized;
    Alcotest.test_case "a v1 text header is a framing Failure" `Quick
      test_v1_header_is_failure;
    Alcotest.test_case "v2 header corruption is a framing Failure" `Quick
      test_v2_header_errors;
  ]
