(* Seeded request streams for the served-request benchmark.

   Every input the server sees is a pure function of (workload, seed):
   request [k] of a stream is always the same value with id [k], so two
   runs at one seed send byte-identical request streams however many
   requests each run has time for. *)

module P = Serve.Protocol

type name = Small_distinct | Sampled_k64 | Repeat_mixed

let all = [ Small_distinct; Sampled_k64; Repeat_mixed ]

let to_string = function
  | Small_distinct -> "small_distinct"
  | Sampled_k64 -> "sampled_k64"
  | Repeat_mixed -> "repeat_mixed"

let of_string s = List.find_opt (fun w -> to_string w = s) all

(* Requests the traced pass replays, and the ids the response digest
   covers. *)
let trace_count = 200

(* [origin] is the id of the first request that carried this body: the
   request's own id, except for a replay in repeat_mixed. *)
type item = { req : P.request; origin : int }

type t = {
  rng : Random.State.t;
  mutable next_id : int;
  shape : shape;
}

and shape =
  | Distinct of { lo : int; hi : int; start : float; samples : int; req_seed : int }
  | Mixed of mixed

and mixed = {
  mutable window : item array;  (* ring of the last [window_size] misses *)
  mutable misses : int;
  seed_base : int;  (* each miss takes request seed [seed_base + misses] *)
}

let window_size = 64

(* Replays are cache hits, far faster than misses.  At a share near 0.5
   the median latency would sit on the cliff between the two modes and
   jump with the hit count; at 0.3 it lies inside the miss mode. *)
let replay_share = 0.3

let topology_count = 48

let die_um sinks = Float.max 4000.0 (sqrt (float_of_int sinks) *. 400.0)

let steiner rng sinks =
  Rctree.Generate.random_steiner ~seed:(Random.State.bits rng) ~sinks
    ~die_um:(die_um sinks) ()

(* Net sizes of the distinct workloads walk [lo, hi] by golden-ratio
   steps from a seeded start: every window of a run, and every seed, sees
   nearly the same size mix, so a run's cost does not hinge on how many
   large nets its seed happened to draw. *)
let golden = 0.6180339887498949

let stratified_size ~start ~lo ~hi k =
  let u = Float.rem (start +. (float_of_int k *. golden)) 1.0 in
  lo + int_of_float (u *. float_of_int (hi - lo + 1))

(* repeat_mixed's nets, by popularity rank: sizes spread evenly over
   60–180 sinks, dealt to the ranks in one fixed order, and geometry
   drawn from a fixed seed.  Every seed asks for the same 48 nets and
   draws only the traffic over them.  Zipf(1) sends a fifth of the misses
   to rank 0 alone, so nets drawn per seed would let a few random
   geometries set a seed's whole cost.  At 60–180 sinks a run answers
   about 2000 requests, enough for 20 samples beyond p99. *)
let topologies =
  lazy
    (let rng = Random.State.make [| topology_count |] in
     let sizes = Array.init topology_count (fun k -> 60 + (k * 120 / (topology_count - 1))) in
     for i = topology_count - 1 downto 1 do
       let j = Random.State.int rng (i + 1) in
       let x = sizes.(i) in
       sizes.(i) <- sizes.(j);
       sizes.(j) <- x
     done;
     Array.map (steiner rng) sizes)

(* Zipf(1) over the topology ranks: P(rank k) proportional to 1/k. *)
let zipf_cdf =
  let w = Array.init topology_count (fun k -> 1.0 /. float_of_int (k + 1)) in
  let total = Array.fold_left ( +. ) 0.0 w in
  let acc = ref 0.0 in
  Array.map (fun x -> acc := !acc +. (x /. total); !acc) w

let draw_zipf rng =
  let u = Random.State.float rng 1.0 in
  let rec go k = if k >= topology_count - 1 || u <= zipf_cdf.(k) then k else go (k + 1) in
  go 0

let create name ~seed =
  let rng = Random.State.make [| seed; Hashtbl.hash (to_string name) |] in
  let distinct ~lo ~hi ~samples =
    Distinct { lo; hi; start = Random.State.float rng 1.0; samples; req_seed = seed }
  in
  let shape =
    match name with
    | Small_distinct -> distinct ~lo:16 ~hi:64 ~samples:0
    | Sampled_k64 -> distinct ~lo:20 ~hi:80 ~samples:64
    | Repeat_mixed ->
      Mixed { window = [||]; misses = 0; seed_base = seed * 1_000_003 }
  in
  { rng; next_id = 0; shape }

(* The three request variants a repeat_mixed miss draws from: the
   default 2P request, the b = 4 buffer library, and the weighted power
   objective. *)
let mixed_variant rng (req : P.request) =
  match Random.State.int rng 3 with
  | 0 -> req
  | 1 -> { req with P.btypes = 4 }
  | _ -> { req with P.objective = Bufins.Dominance.Weighted 1.0 }

let next t =
  let id = t.next_id in
  t.next_id <- id + 1;
  match t.shape with
  | Distinct { lo; hi; start; samples; req_seed } ->
    let tree = steiner t.rng (stratified_size ~start ~lo ~hi id) in
    let req = { (P.default_request ~tree) with P.id; seed = req_seed; samples } in
    let req = if samples > 0 then { req with P.relax = 0.8 } else req in
    { req; origin = id }
  | Mixed m ->
    let filled = Array.length m.window in
    if filled > 0 && Random.State.float t.rng 1.0 < replay_share then begin
      let w = m.window.(Random.State.int t.rng filled) in
      { req = { w.req with P.id }; origin = w.origin }
    end
    else begin
      let tree = (Lazy.force topologies).(draw_zipf t.rng) in
      let req =
        mixed_variant t.rng
          { (P.default_request ~tree) with P.id; seed = m.seed_base + m.misses }
      in
      let item = { req; origin = id } in
      if filled < window_size then m.window <- Array.append m.window [| item |]
      else m.window.(m.misses mod window_size) <- item;
      m.misses <- m.misses + 1;
      item
    end

let take name ~seed n =
  let t = create name ~seed in
  List.init n (fun _ -> next t)
