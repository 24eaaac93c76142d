(* Per-domain scratch buffers for every engine's DP hot path.

   Candidate generation and the stable index-permutation sort used by
   pruning need short-lived arrays per node (key caches, the
   permutation, the kept set, a mergesort scratch) plus staging buffers
   of candidates: [Sol.t] arrays for the canonical engine, stride-K row
   matrices for the sample engine.  Allocating them per node dominated
   the DP's allocation profile once the canonical-form kernels stopped
   allocating; instead each domain owns one arena, fetched through
   [Domain.DLS], whose buffers grow geometrically to the running peak
   and are reused for every subsequent node that domain processes.

   Buffers are borrowed for the duration of one lift / merge / prune
   call — there is no suspension point inside those, so a domain can
   never observe its own arena mid-use.  The staging buffers keep their
   last contents alive between nodes (bounded by the peak frontier
   size); the pruned frontiers themselves are always fresh exact-size
   arrays, so nothing long-lived ever aliases an arena. *)

type 'a buf = { mutable data : 'a array }

let buf () = { data = [||] }

let grow b n fill =
  if Array.length b.data < n then begin
    let c = ref 16 in
    while !c < n do
      c := !c * 2
    done;
    b.data <- Array.make !c fill
  end;
  b.data

(* Arena hit-rate: a borrow that fits the existing buffer is a reuse,
   one that has to (re)allocate is a grow.  Handles are resolved once,
   when the owner's module initialises. *)
type counts = { reuse : Obs.Counters.counter; grew : Obs.Counters.counter }

let counts prefix =
  {
    reuse = Obs.Counters.counter Obs.Counters.global (prefix ^ ".reuse");
    grew = Obs.Counters.counter Obs.Counters.global (prefix ^ ".grow");
  }

let borrow c b n fill =
  let grew = Array.length b.data < n in
  if Obs.Control.on () then
    Obs.Counters.incr (if grew then c.grew else c.reuse) 1;
  grow b n fill

type t = {
  load_keys : float buf;
  rat_keys : float buf;
  power_keys : float buf;
  perm : int buf;
  kept : int buf;
  sort_tmp : int buf;
  stage_a : Sol.t buf; (* wired candidates *)
  stage_b : Sol.t buf; (* wired + buffered, fed to the pruner *)
  a_load : float buf; (* sample rows: wired, stride K *)
  a_rat : float buf;
  a_choice : Sol.choice buf;
  b_load : float buf; (* sample rows handed to the pruner, stride K *)
  b_rat : float buf;
  b_choice : Sol.choice buf;
}

let create () =
  {
    load_keys = buf ();
    rat_keys = buf ();
    power_keys = buf ();
    perm = buf ();
    kept = buf ();
    sort_tmp = buf ();
    stage_a = buf ();
    stage_b = buf ();
    a_load = buf ();
    a_rat = buf ();
    a_choice = buf ();
    b_load = buf ();
    b_rat = buf ();
    b_choice = buf ();
  }

let key : t Domain.DLS.key = Domain.DLS.new_key create
let get () = Domain.DLS.get key
let arena_counts = counts "arena"
let load_keys t n = borrow arena_counts t.load_keys n 0.0
let rat_keys t n = borrow arena_counts t.rat_keys n 0.0
let power_keys t n = borrow arena_counts t.power_keys n 0.0
let perm t n = borrow arena_counts t.perm n 0
let kept t n = borrow arena_counts t.kept n 0
let stage_a t n ~dummy = borrow arena_counts t.stage_a n dummy
let stage_b t n ~dummy = borrow arena_counts t.stage_b n dummy
let a_load t n = borrow arena_counts t.a_load n 0.0
let a_rat t n = borrow arena_counts t.a_rat n 0.0
let a_choice t n ~dummy = borrow arena_counts t.a_choice n dummy
let b_load t n = borrow arena_counts t.b_load n 0.0
let b_rat t n = borrow arena_counts t.b_rat n 0.0
let b_choice t n ~dummy = borrow arena_counts t.b_choice n dummy

let[@inline] compare_at (v : float array) x y =
  Float.compare (Array.unsafe_get v x) (Array.unsafe_get v y)

(* Stable bottom-up mergesort of [ids.(0 .. n-1)] under the frontier
   order: [key] ascending, then [desc] descending, then [tie]
   ascending.  Any stable sort computes the same permutation as
   [Array.stable_sort] under the same comparator, which is what pins
   which of several exact-duplicate candidates survives pruning (and
   hence the choice-trail bytes).  The comparison is written out in the
   merge, not passed as a closure, and every id is checked against the
   key arrays once, so the loops read without bounds checks. *)
let sort_prefix t ~key ?desc ?tie ids n =
  let desc, has_desc =
    match desc with Some d -> (d, true) | None -> ([||], false)
  in
  let tie, has_tie =
    match tie with Some p -> (p, true) | None -> ([||], false)
  in
  if n > Array.length ids then invalid_arg "Arena.sort_prefix: n exceeds ids";
  let bound =
    min (Array.length key)
      (min
         (if has_desc then Array.length desc else max_int)
         (if has_tie then Array.length tie else max_int))
  in
  for s = 0 to n - 1 do
    let id = ids.(s) in
    if id < 0 || id >= bound then
      invalid_arg "Arena.sort_prefix: id outside the keys"
  done;
  let tmp = grow t.sort_tmp n 0 in
  let merge lo mid hi =
    let i = ref lo and j = ref mid and o = ref lo in
    while !i < mid && !j < hi do
      let a = Array.unsafe_get ids !i and b = Array.unsafe_get ids !j in
      let c = compare_at key a b in
      let c = if c <> 0 || not has_desc then c else compare_at desc b a in
      let c = if c <> 0 || not has_tie then c else compare_at tie a b in
      (* <= keeps the left run's element first: stability. *)
      if c <= 0 then begin
        Array.unsafe_set tmp !o a;
        incr i
      end
      else begin
        Array.unsafe_set tmp !o b;
        incr j
      end;
      incr o
    done;
    while !i < mid do
      Array.unsafe_set tmp !o (Array.unsafe_get ids !i);
      incr i;
      incr o
    done;
    while !j < hi do
      Array.unsafe_set tmp !o (Array.unsafe_get ids !j);
      incr j;
      incr o
    done;
    Array.blit tmp lo ids lo (hi - lo)
  in
  let width = ref 1 in
  while !width < n do
    let lo = ref 0 in
    while !lo + !width < n do
      let mid = !lo + !width in
      let hi = min n (mid + !width) in
      merge !lo mid hi;
      lo := hi
    done;
    width := !width * 2
  done
