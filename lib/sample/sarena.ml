(* Per-domain scratch for the sample engine's hot path, mirroring
   [Bufins.Arena].

   A node's candidate generation stages two row matrices (stride-K
   float arrays: wired rows, then wired + buffered / merged rows fed to
   the pruner) plus per-row mean keys, a choice trail per row, and the
   pruning sweep's permutation / kept / mergesort scratch.  All of it
   is borrowed from the calling domain's arena for the duration of one
   lift / merge / prune — there is no suspension point inside those —
   and grows geometrically to the domain's running peak.  Only the
   pruned frontier (exact-size [Engine.sol] rows) is freshly
   allocated. *)

type t = {
  mutable a_load : float array; (* wired rows, stride K *)
  mutable a_rat : float array;
  mutable a_choice : Bufins.Sol.choice array;
  mutable b_load : float array; (* rows handed to the pruner, stride K *)
  mutable b_rat : float array;
  mutable b_choice : Bufins.Sol.choice array;
  mutable b_power : float array; (* per-row accumulated energy, fJ *)
  mutable mean_load : float array; (* per-row sample means (sort keys) *)
  mutable mean_rat : float array;
  mutable perm : int array;
  mutable kept : int array;
  mutable sort_tmp : int array;
}

let create () =
  {
    a_load = [||];
    a_rat = [||];
    a_choice = [||];
    b_load = [||];
    b_rat = [||];
    b_choice = [||];
    b_power = [||];
    mean_load = [||];
    mean_rat = [||];
    perm = [||];
    kept = [||];
    sort_tmp = [||];
  }

let key : t Domain.DLS.key = Domain.DLS.new_key create
let get () = Domain.DLS.get key

let cap n =
  let c = ref 16 in
  while !c < n do
    c := !c * 2
  done;
  !c

let obs_reuse = Obs.Counters.counter Obs.Counters.global "sample.arena.reuse"
let obs_grow = Obs.Counters.counter Obs.Counters.global "sample.arena.grow"

let note_borrow grew =
  if Obs.Control.on () then
    Obs.Counters.incr (if grew then obs_grow else obs_reuse) 1

let a_load t n =
  let grew = Array.length t.a_load < n in
  if grew then t.a_load <- Array.make (cap n) 0.0;
  note_borrow grew;
  t.a_load

let a_rat t n =
  let grew = Array.length t.a_rat < n in
  if grew then t.a_rat <- Array.make (cap n) 0.0;
  note_borrow grew;
  t.a_rat

let a_choice t n ~dummy =
  let grew = Array.length t.a_choice < n in
  if grew then t.a_choice <- Array.make (cap n) dummy;
  note_borrow grew;
  t.a_choice

let b_load t n =
  let grew = Array.length t.b_load < n in
  if grew then t.b_load <- Array.make (cap n) 0.0;
  note_borrow grew;
  t.b_load

let b_rat t n =
  let grew = Array.length t.b_rat < n in
  if grew then t.b_rat <- Array.make (cap n) 0.0;
  note_borrow grew;
  t.b_rat

let b_choice t n ~dummy =
  let grew = Array.length t.b_choice < n in
  if grew then t.b_choice <- Array.make (cap n) dummy;
  note_borrow grew;
  t.b_choice

let b_power t n =
  let grew = Array.length t.b_power < n in
  if grew then t.b_power <- Array.make (cap n) 0.0;
  note_borrow grew;
  t.b_power

let mean_load t n =
  let grew = Array.length t.mean_load < n in
  if grew then t.mean_load <- Array.make (cap n) 0.0;
  note_borrow grew;
  t.mean_load

let mean_rat t n =
  let grew = Array.length t.mean_rat < n in
  if grew then t.mean_rat <- Array.make (cap n) 0.0;
  note_borrow grew;
  t.mean_rat

let perm t n =
  let grew = Array.length t.perm < n in
  if grew then t.perm <- Array.make (cap n) 0;
  note_borrow grew;
  t.perm

let kept t n =
  let grew = Array.length t.kept < n in
  if grew then t.kept <- Array.make (cap n) 0;
  note_borrow grew;
  t.kept

let[@inline] compare_at (v : float array) x y =
  Float.compare (Array.unsafe_get v x) (Array.unsafe_get v y)

(* Stable bottom-up mergesort of the identity permutation of the [n]
   staged rows, under the pruner's frontier order: mean load
   ascending, then mean RAT descending, then (power-aware objectives
   only) raw power ascending, each by [Float.compare].  Same algorithm
   as [Bufins.Arena.sort_prefix], with the comparison inlined (no
   closure call per comparison); stability pins which of several exact
   duplicates survives pruning, hence the choice-trail bytes.  The
   indices are the arena's own [0 .. n-1], and the key arrays are
   checked to hold [n] rows once, so the loops read without bounds
   checks. *)
let sort_prefix t n ~power_aware =
  let idx = perm t n in
  for i = 0 to n - 1 do
    idx.(i) <- i
  done;
  if Array.length t.sort_tmp < n then t.sort_tmp <- Array.make (cap n) 0;
  let tmp = t.sort_tmp in
  let ml = t.mean_load and mr = t.mean_rat and bp = t.b_power in
  if
    Array.length ml < n || Array.length mr < n
    || (power_aware && Array.length bp < n)
  then invalid_arg "Sample.Sarena.sort_prefix: keys not staged";
  let merge lo mid hi =
    let i = ref lo and j = ref mid and o = ref lo in
    while !i < mid && !j < hi do
      let a = Array.unsafe_get idx !i and b = Array.unsafe_get idx !j in
      let c = compare_at ml a b in
      let c =
        if c <> 0 then c
        else
          let c = compare_at mr b a in
          if c <> 0 || not power_aware then c else compare_at bp a b
      in
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
      Array.unsafe_set tmp !o (Array.unsafe_get idx !i);
      incr i;
      incr o
    done;
    while !j < hi do
      Array.unsafe_set tmp !o (Array.unsafe_get idx !j);
      incr j;
      incr o
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
  done;
  idx
