(* Tests for the sampling-based yield engine (lib/sample):

   - the shared sample matrix depends only on (seed, id, K), never on
     draw order;
   - engine output is bit-identical across job counts and with
     observability on or off;
   - per-sample dominance pruning at relax = 1 never loses the
     per-sample optimum (exact equality against the unpruned brute
     force on small trees);
   - sampled yield figures cross-validate the canonical prediction: a
     Nom model makes every sample identical and reproduces the
     deterministic optimum, and under WID the sampled quantile tracks
     Sta.Yield's analytic one;
   - the handler attaches a sampled block exactly when the request
     samples, the sample fields round-trip through the request and
     response encodings, and a relax that is not > 0 is a parse
     failure. *)

let qcheck = QCheck_alcotest.to_alcotest
let tech = Device.Tech.default_65nm
let library = Device.Buffer.default_library

let grid die =
  Varmodel.Grid.create ~width_um:die ~height_um:die ~pitch_um:500.0
    ~range_um:2000.0

let model ?(mode = Varmodel.Model.Wid) die =
  Varmodel.Model.create ~mode ~spatial:Varmodel.Model.default_heterogeneous
    ~grid:(grid die) ()

let config ?(samples = 64) ?(seed = 1) ?(relax = 1.0) () =
  {
    (Sample.Engine.default_config ~samples ~seed ~relax ())
    with
    Sample.Engine.tech;
    library;
  }

let with_pool jobs f =
  let pool = Exec.Pool.create ~jobs () in
  Fun.protect ~finally:(fun () -> Exec.Pool.shutdown pool) (fun () -> f pool)

let with_obs enabled f =
  let was = Obs.Control.on () in
  if enabled then Obs.Control.enable () else Obs.Control.disable ();
  Fun.protect f ~finally:(fun () ->
      if was then Obs.Control.enable () else Obs.Control.disable ())

(* Everything the serve layer would encode, so equality here is
   byte-equality of responses. *)
let strip (r : Sample.Engine.result) =
  ( r.Sample.Engine.best.Sample.Engine.load,
    r.Sample.Engine.best.Sample.Engine.rat,
    r.Sample.Engine.root_rat,
    r.Sample.Engine.root_best_per_sample,
    r.Sample.Engine.buffers,
    r.Sample.Engine.widths,
    r.Sample.Engine.sampled_mean,
    r.Sample.Engine.sampled_std,
    r.Sample.Engine.rat_at_yield,
    r.Sample.Engine.load_limit_met,
    r.Sample.Engine.stats.Bufins.Engine.peak_candidates,
    r.Sample.Engine.stats.Bufins.Engine.total_candidates )

(* ---------- sample matrix ---------- *)

let test_matrix_order_independent () =
  let a = Sample.Matrix.create ~seed:7 ~k:32 ~sources:9 in
  let b = Sample.Matrix.create ~seed:7 ~k:32 ~sources:9 in
  (* Draw a forward and b backward (and some rows twice): rows must
     agree pairwise anyway. *)
  for id = 0 to 8 do
    ignore (Sample.Matrix.source a id)
  done;
  for id = 8 downto 0 do
    ignore (Sample.Matrix.source b id)
  done;
  Sample.Matrix.prefill b ~lo:0 ~hi:99;
  for id = 0 to 8 do
    Alcotest.(check bool)
      (Printf.sprintf "row %d identical" id)
      true
      (Sample.Matrix.source a id = Sample.Matrix.source b id)
  done;
  let c = Sample.Matrix.create ~seed:8 ~k:32 ~sources:9 in
  Alcotest.(check bool) "different seed differs" false
    (Sample.Matrix.source a 0 = Sample.Matrix.source c 0)

(* ---------- kernels against naive references ---------- *)

let bits = Int64.bits_of_float

(* Values on a coarse dyadic grid, so rows tie often in both axes. *)
let grid_block rng n =
  Array.init n (fun _ -> 0.5 *. float_of_int (Random.State.int rng 4))

(* The dominance verdict equals a full count over all K samples, for
   every K up to 70 (every K mod 4) and every threshold.  The blocks
   hold one spare row past the rows compared, so a kernel that read
   past sample K of a row would see the next row's samples and
   disagree with the count somewhere. *)
let test_dominance_count_oracle () =
  let rng = Random.State.make [| 15 |] in
  let rows = 4 in
  for k = 1 to 70 do
    let load = grid_block rng ((rows + 1) * k) in
    let rat = grid_block rng ((rows + 1) * k) in
    for need = 1 to k do
      for j = 0 to rows - 1 do
        for i = 0 to rows - 1 do
          let count = ref 0 in
          for t = 0 to k - 1 do
            if load.((j * k) + t) <= load.((i * k) + t)
               && rat.((j * k) + t) >= rat.((i * k) + t)
            then incr count
          done;
          let want = !count >= need in
          let got = Sample.Engine.sample_dominates ~k ~need ~load ~rat j i in
          if got <> want then
            Alcotest.failf "K=%d need=%d rows %d,%d: kernel %b, count %d" k
              need j i got !count
        done
      done
    done
  done

(* [Matrix.eval_into] against the loop over terms it replaced: every
   sample starts at the mean and adds the terms in id order, so the
   results must agree bit for bit; samples outside the block stay
   untouched. *)
let test_eval_into_oracle () =
  let rng = Random.State.make [| 16 |] in
  let sources = 120 in
  List.iter
    (fun k ->
      let m = Sample.Matrix.create ~seed:5 ~k ~sources in
      List.iter
        (fun nt ->
          let perm = Array.init sources Fun.id in
          for i = sources - 1 downto 1 do
            let j = Random.State.int rng (i + 1) in
            let x = perm.(i) in
            perm.(i) <- perm.(j);
            perm.(j) <- x
          done;
          let ids = Array.sub perm 0 nt in
          Array.sort compare ids;
          let coefs =
            Array.init nt (fun _ ->
                (Random.State.float rng 2.0 -. 1.0)
                *. (10.0 ** float_of_int (Random.State.int rng 7 - 3)))
          in
          let form = Linform.of_sorted_arrays ~nominal:(-123.456) ~ids ~coefs in
          let off = 3 in
          let got = Array.make (off + k + 2) Float.nan in
          Sample.Matrix.eval_into m form got ~off;
          let want = Array.make (off + k + 2) Float.nan in
          for j = 0 to k - 1 do
            want.(off + j) <- Linform.mean form
          done;
          Array.iter
            (fun (id, c) ->
              let src = Sample.Matrix.source m id in
              for j = 0 to k - 1 do
                want.(off + j) <- want.(off + j) +. (c *. src.(j))
              done)
            (Linform.sensitivities form);
          Array.iteri
            (fun j w ->
              if bits got.(j) <> bits w then
                Alcotest.failf "K=%d terms=%d slot %d: %h vs %h" k nt j
                  got.(j) w)
            want)
        [ 0; 1; 50 ])
    [ 1; 3; 4; 5; 64; 67 ]

(* The merge's min against [Float.min] on signed zeros, ties,
   infinities and NaNs (two payloads), in both argument orders. *)
let test_merge_min_is_float_min () =
  let vals =
    [
      0.0; -0.0; 1.0; -1.0; 1.5; 1.5; Float.min_float; Float.max_float;
      Float.infinity; Float.neg_infinity; Float.nan; -.Float.nan;
      Int64.float_of_bits 0x7ff0000000000001L;
    ]
  in
  List.iter
    (fun x ->
      List.iter
        (fun y ->
          let got = Sample.Engine.merge_min x y and want = Float.min x y in
          if bits got <> bits want then
            Alcotest.failf "merge_min %h %h = %h, Float.min gives %h" x y got
              want)
        vals)
    vals

(* ---------- determinism across jobs and observability ---------- *)

let test_jobs_and_obs_identical () =
  let die = 4000.0 in
  let tree = Rctree.Generate.random_steiner ~seed:7 ~sinks:24 ~die_um:die () in
  let cfg = config ~samples:64 () in
  (* The model consumes device ids as the DP runs, so every run gets a
     fresh one; determinism across job counts is exactly the claim
     under test. *)
  let seq = strip (Sample.Engine.run cfg ~model:(model die) tree) in
  List.iter
    (fun jobs ->
      with_pool jobs (fun pool ->
          let r =
            Sample.Engine.run ~pool ~grain:2 cfg ~model:(model die) tree
          in
          Alcotest.(check bool)
            (Printf.sprintf "jobs=%d identical" jobs)
            true
            (strip r = seq)))
    [ 1; 2; 4 ];
  let on =
    with_obs true (fun () ->
        strip (Sample.Engine.run cfg ~model:(model die) tree))
  in
  let off =
    with_obs false (fun () ->
        strip (Sample.Engine.run cfg ~model:(model die) tree))
  in
  Alcotest.(check bool) "obs on = obs off" true (on = off);
  Alcotest.(check bool) "obs on = baseline" true (on = seq)

(* ---------- pruning exactness vs brute force ---------- *)

let prop_pruning_preserves_per_sample_optimum =
  (* relax > 1 disables pruning entirely (the brute-force reference);
     at relax = 1 full dominance must keep, for every sample, some
     candidate achieving that sample's maximum driver-output RAT.
     Small trees only: the unpruned frontier grows as 4^positions. *)
  QCheck.Test.make
    ~name:"relax=1 dominance preserves every per-sample optimum (vs brute force)"
    ~count:8
    QCheck.(pair (int_range 2 4) (int_range 0 1000))
    (fun (sinks, seed) ->
      let die = 4000.0 in
      let tree = Rctree.Generate.random_steiner ~seed ~sinks ~die_um:die () in
      let pruned =
        Sample.Engine.run (config ~samples:16 ()) ~model:(model die) tree
      in
      let brute =
        Sample.Engine.run
          (config ~samples:16 ~relax:2.0 ())
          ~model:(model die) tree
      in
      pruned.Sample.Engine.root_best_per_sample
      = brute.Sample.Engine.root_best_per_sample
      && pruned.Sample.Engine.stats.Bufins.Engine.peak_candidates
         <= brute.Sample.Engine.stats.Bufins.Engine.peak_candidates)

(* relax > 1 disables pruning at any magnitude: a relax·K beyond
   max_int must not collapse the threshold to 1 sample, the harshest
   pruning there is.  Compared bit for bit through Marshal. *)
let test_huge_relax_is_no_pruning () =
  let die = 4000.0 in
  let tree = Rctree.Generate.random_steiner ~seed:3 ~sinks:3 ~die_um:die () in
  let bits relax =
    Marshal.to_string
      (strip (Sample.Engine.run (config ~relax ()) ~model:(model die) tree))
      [ Marshal.No_sharing ]
  in
  let reference = bits 2.0 in
  List.iter
    (fun relax ->
      Alcotest.(check bool)
        (Printf.sprintf "relax %g = relax 2" relax)
        true
        (bits relax = reference))
    [ 1e17; 1e300; infinity ]

(* ---------- cross-validation against the canonical engines ---------- *)

let test_nom_model_matches_deterministic_optimum () =
  (* Under a Nom model every sample sees the same (nominal) process, so
     the K-vectors are constant: std must vanish and the optimum must
     equal the canonical deterministic DP's root RAT. *)
  let die = 4000.0 in
  let tree = Rctree.Generate.random_steiner ~seed:11 ~sinks:10 ~die_um:die () in
  let r =
    Sample.Engine.run
      (config ~samples:32 ())
      ~model:(model ~mode:Varmodel.Model.Nom die)
      tree
  in
  Alcotest.(check (float 1e-9)) "sampled std is zero" 0.0
    r.Sample.Engine.sampled_std;
  Alcotest.(check (float 1e-9))
    "quantile equals mean when samples are constant" r.Sample.Engine.sampled_mean
    r.Sample.Engine.rat_at_yield;
  let det =
    Bufins.Engine.run
      {
        (Bufins.Engine.default_config ~rule:Bufins.Prune.deterministic ()) with
        Bufins.Engine.tech;
        library;
      }
      ~model:(model ~mode:Varmodel.Model.Nom die)
      tree
  in
  Alcotest.(check (float 1e-6))
    "sampled optimum = deterministic optimum"
    (Linform.mean det.Bufins.Engine.root_rat)
    r.Sample.Engine.sampled_mean

let test_wid_tracks_canonical_yield () =
  (* Under WID the sampled quantile and the canonical (linearised,
     Clark-merged) prediction are different approximations of the same
     quantity; on a small net they must agree to a few percent. *)
  let setup = Experiments.Common.default_setup in
  let die = 4000.0 in
  let tree = Rctree.Generate.random_steiner ~seed:5 ~sinks:12 ~die_um:die () in
  let spatial = Varmodel.Model.default_heterogeneous in
  let grid = grid die in
  let r =
    Experiments.Common.run_sampled setup ~samples:256 ~spatial ~grid
      Experiments.Common.Wid tree
  in
  let form =
    Experiments.Common.evaluate setup ~spatial ~grid tree
      ~widths:r.Sample.Engine.widths r.Sample.Engine.buffers
  in
  let close what a b =
    let tol = 0.05 *. Float.max (Float.abs a) (Float.abs b) in
    Alcotest.(check bool)
      (Printf.sprintf "%s: sampled %.1f vs canonical %.1f" what a b)
      true
      (Float.abs (a -. b) <= tol)
  in
  close "mean" r.Sample.Engine.sampled_mean (Linform.mean form);
  close "95%-yield RAT" r.Sample.Engine.rat_at_yield
    (Sta.Yield.rat_at_yield form ~yield:0.95)

(* ---------- wire codecs ---------- *)

let small_tree =
  lazy (Rctree.Generate.random_steiner ~seed:3 ~sinks:4 ~die_um:4000.0 ())

(* The handler routes on [samples]: a sample-free request takes the
   canonical path and carries no sampled block; a sampling request
   carries one whose K echoes the request and which survives the v2
   response encoding bit for bit. *)
let test_handler_sampled_block () =
  let plain = Serve.Protocol.default_request ~tree:(Lazy.force small_tree) in
  let r0 = Serve.Handler.run plain in
  Alcotest.(check bool) "sample-free: no sampled block" true
    (r0.Serve.Protocol.sampled = None);
  let r = Serve.Handler.run { plain with Serve.Protocol.samples = 32 } in
  (match r.Serve.Protocol.sampled with
   | None -> Alcotest.fail "samples 32: no sampled block"
   | Some s ->
     Alcotest.(check int) "K echoes the request" 32 s.Serve.Protocol.s_k;
     Alcotest.(check bool) "sampled std >= 0" true
       (s.Serve.Protocol.s_std >= 0.0));
  let b = Serve.Codec_bin.encode_response r in
  Alcotest.(check string) "sampled response re-encodes bit-exact" b
    (Serve.Codec_bin.encode_response (Serve.Codec_bin.decode_response b))

let sampled_response sampled =
  {
    Serve.Protocol.r_id = 9;
    nodes = 17;
    peak_candidates = 23;
    total_candidates = 99;
    root_mean = -1234.5;
    root_std = 45.6;
    root_yield95 = -1309.8;
    sampled;
    mc = None;
    r_power = None;
    assignment = { Bufins.Assignment.buffers = []; widths = [] };
  }

let test_sampled_response_roundtrips () =
  let some =
    Some
      {
        Serve.Protocol.s_k = 256;
        s_mean = -1230.25;
        s_std = 44.125;
        s_rat_at_yield = -1301.5;
      }
  in
  List.iter
    (fun sampled ->
      let r = sampled_response sampled in
      let bb = Serve.Codec_bin.encode_response r in
      let rb = Serve.Codec_bin.decode_response bb in
      Alcotest.(check bool) "v2 sampled block round-trips" true
        (rb.Serve.Protocol.sampled = sampled);
      Alcotest.(check string) "v2 re-encoding is bit-exact" bb
        (Serve.Codec_bin.encode_response rb))
    [ None; some ]

let test_v2_request_fields () =
  let tree = Lazy.force small_tree in
  let req =
    {
      (Serve.Protocol.default_request ~tree) with
      Serve.Protocol.id = 77;
      samples = 1024;
      relax = 0.75;
    }
  in
  let b = Serve.Codec_bin.encode_request req in
  let req' = Serve.Codec_bin.decode_request b in
  Alcotest.(check int) "samples round-trips" 1024 req'.Serve.Protocol.samples;
  Alcotest.(check (float 0.0)) "relax round-trips" 0.75
    req'.Serve.Protocol.relax;
  Alcotest.(check string) "re-encoding is bit-exact" b
    (Serve.Codec_bin.encode_request req');
  (* The router helpers must keep working with the new head fields. *)
  let b' = Serve.Codec_bin.with_request_id b 5 in
  Alcotest.(check int) "id rewrite" 5 (Serve.Codec_bin.request_id b');
  Alcotest.(check int) "samples survive id rewrite" 1024
    (Serve.Codec_bin.decode_request b').Serve.Protocol.samples;
  let off, len = Serve.Codec_bin.request_tree_span b in
  Alcotest.(check int) "tree is the payload tail" (String.length b) (off + len)

(* relax must be > 0 and not NaN, whether or not the request samples:
   both head readers — the full decode and the tree span the router
   shards by — reject it as a parse failure instead of leaving it to
   the engine. *)
let test_relax_must_be_positive () =
  let plain = Serve.Protocol.default_request ~tree:(Lazy.force small_tree) in
  let rejects what f =
    match f () with
    | _ -> Alcotest.failf "%s was accepted" what
    | exception Failure m ->
      Alcotest.(check bool) (what ^ ": " ^ m) true
        (String.ends_with ~suffix:"relax must be > 0" m)
  in
  List.iter
    (fun (samples, relax) ->
      let req = { plain with Serve.Protocol.samples; relax } in
      let what = Printf.sprintf "samples %d relax %g" samples relax in
      let b = Serve.Codec_bin.encode_request req in
      rejects what (fun () -> Serve.Codec_bin.decode_request b);
      rejects (what ^ " (tree span)") (fun () ->
          Serve.Codec_bin.request_tree_span b))
    (List.concat_map
       (fun samples ->
         List.map (fun relax -> (samples, relax))
           [ 0.0; -0.0; -1.0; Float.neg_infinity; Float.nan ])
       [ 0; 64 ])

let suite =
  [
    Alcotest.test_case "sample matrix is draw-order independent" `Quick
      test_matrix_order_independent;
    Alcotest.test_case "engine identical across jobs and obs" `Quick
      test_jobs_and_obs_identical;
    qcheck prop_pruning_preserves_per_sample_optimum;
    Alcotest.test_case "Nom model reproduces the deterministic optimum" `Quick
      test_nom_model_matches_deterministic_optimum;
    Alcotest.test_case "WID sampled yield tracks the canonical prediction"
      `Quick test_wid_tracks_canonical_yield;
    Alcotest.test_case "handler sampled block follows the request" `Quick
      test_handler_sampled_block;
    Alcotest.test_case "sampled response round-trips" `Quick
      test_sampled_response_roundtrips;
    Alcotest.test_case "v2 request sample fields" `Quick test_v2_request_fields;
    Alcotest.test_case "relax must be > 0 in both decoders" `Quick
      test_relax_must_be_positive;
    Alcotest.test_case "dominance count = full per-sample count" `Quick
      test_dominance_count_oracle;
    Alcotest.test_case "eval_into = loop over terms, bit for bit" `Quick
      test_eval_into_oracle;
    Alcotest.test_case "merge min = Float.min, bit for bit" `Quick
      test_merge_min_is_float_min;
    Alcotest.test_case "huge relax = relax 2 (no pruning), bit for bit" `Quick
      test_huge_relax_is_no_pruning;
  ]
