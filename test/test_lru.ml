(* Model-based tests for Serve.Lru.

   The model is an association list ordered most-recent-first; a
   random program of find/put operations is replayed against both the
   model and the real cache, and every intermediate observation
   (lookup results, length, hit/miss counters) must agree.  The model
   encodes the contract directly: [find] refreshes recency and counts,
   and [put] of a present key only restamps it.  A capacity below 1 is
   rejected. *)

let kv_eq = Alcotest.(check (option int))

(* ---------- reference model ---------- *)

type model = {
  m_capacity : int;
  mutable m_entries : (string * int) list;  (* most recent first *)
  mutable m_hits : int;
  mutable m_misses : int;
}

let model_create capacity =
  { m_capacity = capacity; m_entries = []; m_hits = 0; m_misses = 0 }

let promote m key =
  match List.assoc_opt key m.m_entries with
  | None -> ()
  | Some v ->
    m.m_entries <- (key, v) :: List.remove_assoc key m.m_entries

let model_find m key =
  match List.assoc_opt key m.m_entries with
  | Some v ->
    m.m_hits <- m.m_hits + 1;
    promote m key;
    Some v
  | None ->
    m.m_misses <- m.m_misses + 1;
    None

let model_put m key v =
  if List.mem_assoc key m.m_entries then promote m key
    (* stored value kept: entries are pure functions of their key *)
  else begin
    let entries =
      if List.length m.m_entries >= m.m_capacity then
        (* drop the least recently stamped = last in the list *)
        List.filteri (fun i _ -> i < List.length m.m_entries - 1) m.m_entries
      else m.m_entries
    in
    m.m_entries <- (key, v) :: entries
  end

(* ---------- random programs ---------- *)

type op = Find of string | Put of string * int

let pp_op = function
  | Find k -> Printf.sprintf "find %S" k
  | Put (k, v) -> Printf.sprintf "put %S %d" k v

(* A small key universe so programs revisit keys often enough to
   exercise promotion and eviction, not just insertion. *)
let key_gen = QCheck.Gen.map (Printf.sprintf "k%d") (QCheck.Gen.int_bound 7)

let op_gen =
  QCheck.Gen.(
    frequency
      [
        (3, map (fun k -> Find k) key_gen);
        (4, map2 (fun k v -> Put (k, v)) key_gen (int_bound 1000));
      ])

let program_gen = QCheck.Gen.(pair (int_range 1 5) (list_size (int_range 0 60) op_gen))

let program_arb =
  QCheck.make program_gen
    ~print:(fun (cap, ops) ->
      Printf.sprintf "capacity %d: [%s]" cap
        (String.concat "; " (List.map pp_op ops)))

let run_program (capacity, ops) =
  let lru = Serve.Lru.create ~capacity in
  let m = model_create capacity in
  List.iter
    (fun op ->
      (match op with
      | Find k ->
        let got = Serve.Lru.find lru k and want = model_find m k in
        kv_eq (pp_op op) want got
      | Put (k, v) ->
        Serve.Lru.put lru k v;
        model_put m k v);
      Alcotest.(check int) "length" (List.length m.m_entries)
        (Serve.Lru.length lru);
      Alcotest.(check int) "hits" m.m_hits (Serve.Lru.hits lru);
      Alcotest.(check int) "misses" m.m_misses (Serve.Lru.misses lru))
    ops;
  true

let model_agreement =
  QCheck.Test.make ~count:500 ~name:"random programs agree with the model"
    program_arb run_program

(* ---------- targeted unit checks ---------- *)

let test_find_refreshes () =
  (* Capacity 2; which of the two old keys survives a third insertion
     depends only on whether an intervening find refreshed the older
     one.  The survivors are read after the last insertion, so those
     reads cannot change what was evicted. *)
  let survivors ~lookup =
    let lru = Serve.Lru.create ~capacity:2 in
    Serve.Lru.put lru "a" 1;
    Serve.Lru.put lru "b" 2;
    if lookup then ignore (Serve.Lru.find lru "a" : int option);
    Serve.Lru.put lru "c" 3;
    (Serve.Lru.find lru "a", Serve.Lru.find lru "b")
  in
  (match survivors ~lookup:true with
  | Some 1, None -> ()
  | _ -> Alcotest.fail "find must refresh: expected a kept, b evicted");
  match survivors ~lookup:false with
  | None, Some 2 -> ()
  | _ -> Alcotest.fail "without a find: expected a evicted, b kept"

let test_capacity_below_one_rejected () =
  List.iter
    (fun capacity ->
      Alcotest.check_raises
        (Printf.sprintf "capacity %d refused" capacity)
        (Invalid_argument "Serve.Lru.create: capacity must be >= 1")
        (fun () -> ignore (Serve.Lru.create ~capacity : int Serve.Lru.t)))
    [ 0; -1 ]

let test_shared_across_domains () =
  (* The response and tape caches share one instance across the pool's
     domains: under concurrent finds and puts every lookup is counted
     exactly once and the capacity bound holds. *)
  let lru = Serve.Lru.create ~capacity:8 in
  let per_domain = 2000 and domains = 4 in
  let worker d () =
    for i = 1 to per_domain do
      let k = Printf.sprintf "k%d" (i * (d + 1) mod 16) in
      match Serve.Lru.find lru k with
      | Some _ -> ()
      | None -> Serve.Lru.put lru k i
    done
  in
  List.iter Domain.join (List.init domains (fun d -> Domain.spawn (worker d)));
  Alcotest.(check int) "every find counted once" (domains * per_domain)
    (Serve.Lru.hits lru + Serve.Lru.misses lru);
  Alcotest.(check bool) "capacity bound holds" true (Serve.Lru.length lru <= 8)

let suite =
  [
    QCheck_alcotest.to_alcotest model_agreement;
    Alcotest.test_case "find refreshes recency" `Quick test_find_refreshes;
    Alcotest.test_case "capacity below one is rejected" `Quick
      test_capacity_below_one_rejected;
    Alcotest.test_case "shared across domains: every find counted once"
      `Quick test_shared_across_domains;
  ]
