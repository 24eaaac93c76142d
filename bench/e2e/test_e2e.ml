(* Fast checks of the benchmark's own generator and summaries; no server
   runs here.  Plain assertions rather than alcotest: the suite-size
   check in scripts/check_test_count.sh reads the last "N tests run"
   line of `dune runtest`, which this suite must not shadow. *)

open E2e_workload

let failures = ref 0

let expect label ok =
  if not ok then begin
    incr failures;
    Printf.printf "FAIL %s\n" label
  end

let stream name ~seed n =
  List.map (fun (it : Workload.item) -> Serve.Codec_bin.encode_request it.Workload.req)
    (Workload.take name ~seed n)

let same_seed () =
  List.iter
    (fun name ->
      let label = Workload.to_string name in
      let a = stream name ~seed:1 24 in
      expect (label ^ ": same seed gives the same bytes") (a = stream name ~seed:1 24);
      expect (label ^ ": another seed gives other bytes") (a <> stream name ~seed:2 24))
    Workload.all

let nearest_rank () =
  let rank sorted q want =
    expect
      (Printf.sprintf "nearest rank q=%g of %d samples is %g" q (Array.length sorted) want)
      (Summary.nearest_rank sorted q = want)
  in
  let ten = Array.init 10 (fun i -> float_of_int (i + 1)) in
  rank ten 0.5 5.0;
  rank ten 0.99 10.0;
  rank ten 0.1 1.0;
  rank ten 0.11 2.0;
  rank ten 1.0 10.0;
  let hundred = Array.init 100 (fun i -> float_of_int (i + 1)) in
  rank hundred 0.99 99.0;
  rank hundred 0.5 50.0;
  rank hundred 0.995 100.0;
  rank [| 7.0 |] 0.5 7.0;
  rank [| 1.0; 2.0; 3.0; 4.0; 5.0 |] 0.5 3.0;
  rank [| 1.0; 2.0; 3.0; 4.0; 5.0; 6.0 |] 0.5 3.0

let replay_share () =
  let n = 2000 in
  let items = Workload.take Workload.Repeat_mixed ~seed:1 n in
  let id (it : Workload.item) = it.Workload.req.Serve.Protocol.id in
  let replays = List.filter (fun (it : Workload.item) -> it.Workload.origin <> id it) items in
  let share = float_of_int (List.length replays) /. float_of_int n in
  expect
    (Printf.sprintf "replay share %.3f within 0.05 of %.2f" share Workload.replay_share)
    (Float.abs (share -. Workload.replay_share) <= 0.05);
  (* A replay carries the body of the request it repeats, id aside. *)
  let by_id = Hashtbl.create n in
  List.iter (fun it -> Hashtbl.replace by_id (id it) it) items;
  let body (it : Workload.item) =
    Serve.Codec_bin.encode_request { it.Workload.req with Serve.Protocol.id = 0 }
  in
  expect "every replay repeats its first request's body"
    (List.for_all (fun it -> body it = body (Hashtbl.find by_id it.Workload.origin)) replays)

let () =
  same_seed ();
  nearest_rank ();
  replay_share ();
  if !failures > 0 then exit 1;
  print_endline "e2e generator checks passed"
