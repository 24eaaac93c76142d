(* Tests for lib/job's parsers; the pipeline itself is pinned by
   test_golden's handler cases. *)

(* bufferins and varbuf-serve's request command take p from the
   command line: outside [0.5, 1], or NaN, is an error to print, not an
   exception. *)
let test_rule_of_string_p_range () =
  List.iter
    (fun p ->
      match Job.rule_of_string ~p "2p" with
      | Error msg ->
        Alcotest.(check bool)
          (Printf.sprintf "p = %g names the range" p)
          true
          (String.ends_with ~suffix:(Printf.sprintf "[0.5, 1], got %g" p) msg)
      | Ok _ -> Alcotest.failf "2p with p = %g must be an error" p)
    [ 0.3; 1.5; Float.nan ];
  List.iter
    (fun p ->
      match Job.rule_of_string ~p "2p" with
      | Ok rule ->
        Alcotest.(check bool)
          (Printf.sprintf "p = %g" p)
          true
          (rule = Bufins.Prune.two_param ~p_l:p ~p_t:p ())
      | Error msg -> Alcotest.failf "2p with p = %g: %s" p msg)
    [ 0.5; 1.0 ]

let suite =
  [
    Alcotest.test_case "rule_of_string: 2p outside [0.5, 1] is an Error" `Quick
      test_rule_of_string_p_range;
  ]
