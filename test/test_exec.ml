(* Tests for the deterministic multicore execution subsystem: the
   domain pool's combinators, its exception contract, the chunk-keyed
   RNG streams, and end-to-end bit-identical parallel Monte Carlo. *)

let qcheck = QCheck_alcotest.to_alcotest

(* ---------- combinators vs sequential ---------- *)

let test_parallel_map_matches_sequential () =
  Exec.Pool.with_pool ~jobs:4 (fun pool ->
      let xs = List.init 1003 (fun i -> i - 37) in
      let f x = (x * x) + (3 * x) in
      Alcotest.(check (list int))
        "order preserved, values equal" (List.map f xs)
        (Exec.Pool.parallel_map pool ~f xs))

let test_parallel_map_array_and_init () =
  Exec.Pool.with_pool ~jobs:3 (fun pool ->
      let arr = Array.init 257 (fun i -> float_of_int i) in
      Alcotest.(check (array (float 0.0)))
        "map_array" (Array.map sqrt arr)
        (Exec.Pool.parallel_map_array pool ~f:sqrt arr);
      Alcotest.(check (array int))
        "init" (Array.init 100 (fun i -> 7 * i))
        (Exec.Pool.parallel_init pool 100 ~f:(fun i -> 7 * i));
      Alcotest.(check (array int)) "init 0" [||] (Exec.Pool.parallel_init pool 0 ~f:Fun.id);
      Alcotest.(check (list int)) "map []" [] (Exec.Pool.parallel_map pool ~f:Fun.id []))

let test_explicit_chunking_irrelevant () =
  Exec.Pool.with_pool ~jobs:4 (fun pool ->
      let xs = Array.init 97 Fun.id in
      let expect = Array.map succ xs in
      List.iter
        (fun chunk ->
          Alcotest.(check (array int))
            (Printf.sprintf "chunk=%d" chunk)
            expect
            (Exec.Pool.parallel_map_array ~chunk pool ~f:succ xs))
        [ 1; 2; 13; 97; 1000 ])

let test_jobs_one_runs_inline () =
  Exec.Pool.with_pool ~jobs:1 (fun pool ->
      Alcotest.(check int) "jobs clamped" 1 (Exec.Pool.jobs pool);
      Alcotest.(check (array int))
        "sequential fallback" (Array.init 50 Fun.id)
        (Exec.Pool.parallel_init pool 50 ~f:Fun.id))

let test_nested_call_runs_inline () =
  (* A task that fans out on its own pool must not deadlock. *)
  Exec.Pool.with_pool ~jobs:2 (fun pool ->
      let nested =
        Exec.Pool.parallel_init pool 8 ~f:(fun i ->
            Array.fold_left ( + ) 0 (Exec.Pool.parallel_init pool 10 ~f:(fun j -> i + j)))
      in
      Alcotest.(check (array int))
        "nested results" (Array.init 8 (fun i -> (10 * i) + 45)) nested)

let prop_parallel_map_is_map =
  QCheck.Test.make ~name:"parallel_map = List.map at any job count"
    ~count:30
    QCheck.(pair (small_list int) (int_range 1 6))
    (fun (xs, jobs) ->
      Exec.Pool.with_pool ~jobs (fun pool ->
          Exec.Pool.parallel_map pool ~f:(fun x -> (2 * x) - 1) xs
          = List.map (fun x -> (2 * x) - 1) xs))

(* ---------- exceptions ---------- *)

let test_exception_propagates_pool_reusable () =
  Exec.Pool.with_pool ~jobs:4 (fun pool ->
      Alcotest.check_raises "worker exception reaches caller"
        (Failure "boom") (fun () ->
          ignore
            (Exec.Pool.parallel_init ~chunk:1 pool 64 ~f:(fun i ->
                 if i = 37 then failwith "boom" else i)));
      (* The same pool keeps working afterwards. *)
      Alcotest.(check (array int))
        "pool reusable after exception" (Array.init 64 Fun.id)
        (Exec.Pool.parallel_init pool 64 ~f:Fun.id))

let test_shutdown_rejects_work () =
  let pool = Exec.Pool.create ~jobs:2 () in
  Exec.Pool.shutdown pool;
  Exec.Pool.shutdown pool (* idempotent *);
  Alcotest.check_raises "combinator after shutdown"
    (Invalid_argument "Exec.Pool: pool is shut down") (fun () ->
      ignore (Exec.Pool.parallel_init pool 8 ~f:Fun.id))

(* ---------- chunk-keyed RNG streams ---------- *)

let draws rng = Array.init 16 (fun _ -> Numeric.Rng.gaussian rng)

let test_split_at_contract () =
  let parent () = Numeric.Rng.create ~seed:42 in
  (* Reproducible: same parent state + index = same stream. *)
  let p = parent () in
  Alcotest.(check (array (float 0.0)))
    "same index, same stream"
    (draws (Numeric.Rng.split_at p 7))
    (draws (Numeric.Rng.split_at p 7));
  (* Distinct indices give distinct streams. *)
  Alcotest.(check bool) "distinct indices differ" false
    (draws (Numeric.Rng.split_at p 0) = draws (Numeric.Rng.split_at p 1));
  (* The parent is not advanced: its own stream is unchanged by
     interleaved split_at calls. *)
  let a = parent () in
  let b = parent () in
  ignore (Numeric.Rng.split_at b 3);
  ignore (Numeric.Rng.split_at b 9);
  Alcotest.(check (array (float 0.0))) "parent unperturbed" (draws a) (draws b);
  Alcotest.check_raises "negative index"
    (Invalid_argument "Rng.split_at: index must be >= 0") (fun () ->
      ignore (Numeric.Rng.split_at (parent ()) (-1)))

(* ---------- end-to-end: parallel Monte Carlo ---------- *)

let mc_instance () =
  let die = 4000.0 in
  let tech = Device.Tech.default_65nm in
  let tree = Rctree.Generate.random_steiner ~seed:8 ~sinks:40 ~die_um:die () in
  let grid =
    Varmodel.Grid.create ~width_um:die ~height_um:die ~pitch_um:500.0
      ~range_um:2000.0
  in
  let model () =
    Varmodel.Model.create ~mode:Varmodel.Model.Wid
      ~spatial:Varmodel.Model.default_heterogeneous ~grid ()
  in
  let cfg =
    { (Bufins.Engine.default_config ()) with
      Bufins.Engine.tech;
      library = Device.Buffer.default_library }
  in
  let r = Bufins.Engine.run cfg ~model:(model ()) tree in
  let buffered = Sta.Buffered.make ~tech tree r.Bufins.Engine.buffers in
  Sta.Buffered.instantiate ~model:(model ()) buffered

let test_monte_carlo_bit_identical_across_jobs () =
  let inst = mc_instance () in
  (* 300 trials spans several 64-trial chunks plus a ragged tail. *)
  let mc ?pool () =
    Sta.Buffered.monte_carlo ?pool inst ~rng:(Numeric.Rng.create ~seed:5)
      ~trials:300
  in
  let sequential = mc () in
  Alcotest.(check int) "trial count" 300 (Array.length sequential);
  List.iter
    (fun jobs ->
      Exec.Pool.with_pool ~jobs (fun pool ->
          Alcotest.(check (array (float 0.0)))
            (Printf.sprintf "jobs=%d bit-identical to sequential" jobs)
            sequential
            (mc ~pool ())))
    [ 1; 2; 4 ]

let test_monte_carlo_rng_not_advanced () =
  let inst = mc_instance () in
  let rng = Numeric.Rng.create ~seed:17 in
  let before = Numeric.Rng.uniform (Numeric.Rng.create ~seed:17) in
  ignore (Sta.Buffered.monte_carlo inst ~rng ~trials:10);
  Alcotest.(check (float 0.0)) "caller rng untouched" before (Numeric.Rng.uniform rng)

(* ---------- dependency-counted graphs ---------- *)

(* A random layered DAG: every node depends on a subset of the
   previous layer.  Each task records the max of its dependencies'
   values plus one; the result is schedule-independent, so any
   interleaving bug shows up as a wrong level. *)
let test_run_graph_levels () =
  List.iter
    (fun jobs ->
      Exec.Pool.with_pool ~jobs (fun pool ->
          let n = 200 in
          let deps =
            Array.init n (fun i ->
                if i < 10 then [||]
                else
                  Array.init
                    (1 + (i mod 3))
                    (fun k -> (i * 7 + k * 13) mod i))
          in
          let level = Array.make n (-1) in
          Exec.Pool.run_graph pool ~deps ~run:(fun i ->
              let l =
                Array.fold_left (fun acc d -> max acc level.(d)) (-1) deps.(i)
              in
              level.(i) <- l + 1);
          let expected = Array.make n (-1) in
          for i = 0 to n - 1 do
            let l =
              Array.fold_left (fun acc d -> max acc expected.(d)) (-1) deps.(i)
            in
            expected.(i) <- l + 1
          done;
          Alcotest.(check (array int))
            (Printf.sprintf "levels at jobs=%d" jobs)
            expected level))
    [ 1; 2; 4 ]

let test_run_graph_failure () =
  Exec.Pool.with_pool ~jobs:2 (fun pool ->
      let deps = [| [||]; [| 0 |]; [| 1 |]; [| 2 |] |] in
      let ran = Array.make 4 false in
      (match
         Exec.Pool.run_graph pool ~deps ~run:(fun i ->
             if i = 1 then failwith "boom";
             ran.(i) <- true)
       with
      | () -> Alcotest.fail "the task failure must propagate"
      | exception Failure msg -> Alcotest.(check string) "message" "boom" msg);
      Alcotest.(check bool) "source ran" true ran.(0);
      (* Tasks downstream of the failure are skipped, not run. *)
      Alcotest.(check bool) "downstream skipped" false (ran.(2) || ran.(3));
      (* The pool survives a poisoned graph. *)
      Alcotest.(check (list int)) "pool reusable" [ 2; 4 ]
        (Exec.Pool.parallel_map pool ~f:(fun x -> 2 * x) [ 1; 2 ]))

let test_run_graph_degenerate () =
  Exec.Pool.with_pool ~jobs:2 (fun pool ->
      Exec.Pool.run_graph pool ~deps:[||] ~run:(fun _ -> assert false);
      (match Exec.Pool.run_graph pool ~deps:[| [| 1 |]; [| 0 |] |] ~run:ignore with
      | () -> Alcotest.fail "a cycle must be rejected"
      | exception Invalid_argument _ -> ());
      match Exec.Pool.run_graph pool ~deps:[| [| 5 |] |] ~run:ignore with
      | () -> Alcotest.fail "an out-of-range dependency must be rejected"
      | exception Invalid_argument _ -> ())

let suite =
  [
    Alcotest.test_case "parallel_map = sequential map" `Quick
      test_parallel_map_matches_sequential;
    Alcotest.test_case "map_array / init" `Quick test_parallel_map_array_and_init;
    Alcotest.test_case "chunking never changes results" `Quick
      test_explicit_chunking_irrelevant;
    Alcotest.test_case "jobs=1 runs inline" `Quick test_jobs_one_runs_inline;
    Alcotest.test_case "nested fan-out runs inline" `Quick
      test_nested_call_runs_inline;
    qcheck prop_parallel_map_is_map;
    Alcotest.test_case "exception propagates; pool reusable" `Quick
      test_exception_propagates_pool_reusable;
    Alcotest.test_case "shutdown rejects work" `Quick test_shutdown_rejects_work;
    Alcotest.test_case "split_at determinism contract" `Quick test_split_at_contract;
    Alcotest.test_case "run_graph: layered DAG at any jobs" `Quick
      test_run_graph_levels;
    Alcotest.test_case "run_graph: failure poisons, pool survives" `Quick
      test_run_graph_failure;
    Alcotest.test_case "run_graph: degenerate inputs" `Quick
      test_run_graph_degenerate;
    Alcotest.test_case "Monte Carlo bit-identical at jobs 1/2/4" `Quick
      test_monte_carlo_bit_identical_across_jobs;
    Alcotest.test_case "Monte Carlo leaves caller rng untouched" `Quick
      test_monte_carlo_rng_not_advanced;
  ]
