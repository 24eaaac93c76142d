(* Per-domain scratch buffers for the DP hot path.

   Candidate generation and the stable index-permutation sort used by
   pruning need five short-lived arrays per node (key caches, the
   permutation, the kept set, a mergesort scratch) plus two staging
   buffers of candidates.  Allocating them per node dominated the DP's
   allocation profile once the canonical-form kernels stopped
   allocating; instead each domain owns one arena, fetched through
   [Domain.DLS], whose buffers grow geometrically to the running peak
   and are reused for every subsequent node that domain processes.

   Buffers are borrowed for the duration of one [lift]/[prune] call —
   there is no suspension point inside those, so a domain can never
   observe its own arena mid-use.  The [Sol.t] staging buffers keep
   their last contents alive between nodes (bounded by the peak
   frontier size); the pruned frontiers themselves are always fresh
   exact-size arrays, so nothing long-lived ever aliases an arena. *)

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

(* Stable bottom-up mergesort of [idx.(0 .. n-1)].  Any stable sort
   computes the same permutation as [Array.stable_sort] under the same
   comparator, which is what pins which of several exact-duplicate
   candidates survives pruning (and hence the choice trail bytes). *)
let sort_prefix t idx n ~cmp =
  let tmp = grow t.sort_tmp n 0 in
  let merge lo mid hi =
    let i = ref lo and j = ref mid and k = ref lo in
    while !i < mid && !j < hi do
      (* <= keeps the left run's element first: stability. *)
      if cmp idx.(!i) idx.(!j) <= 0 then begin
        tmp.(!k) <- idx.(!i);
        incr i
      end
      else begin
        tmp.(!k) <- idx.(!j);
        incr j
      end;
      incr k
    done;
    while !i < mid do
      tmp.(!k) <- idx.(!i);
      incr i;
      incr k
    done;
    while !j < hi do
      tmp.(!k) <- idx.(!j);
      incr j;
      incr k
    done;
    Array.blit tmp lo idx lo (hi - lo)
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
