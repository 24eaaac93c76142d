(* Per-domain scratch for the sample engine's hot path, mirroring
   [Bufins.Arena].

   A node's candidate generation stages two row matrices (stride-K
   float arrays: wired rows, then wired + buffered / merged rows fed to
   the pruner) plus per-row mean keys, a choice trail per row, and the
   pruning sweep's permutation / kept / mergesort scratch.  All of it
   is borrowed from the calling domain's arena for the duration of one
   lift / merge / prune — there is no suspension point inside those —
   and each buffer is a [Bufins.Arena.buf], grown geometrically to the
   domain's running peak.  Only the pruned frontier (exact-size
   [Engine.sol] rows) is freshly allocated. *)

type t = {
  a_load : float Bufins.Arena.buf; (* wired rows, stride K *)
  a_rat : float Bufins.Arena.buf;
  a_choice : Bufins.Sol.choice Bufins.Arena.buf;
  b_load : float Bufins.Arena.buf; (* rows handed to the pruner, stride K *)
  b_rat : float Bufins.Arena.buf;
  b_choice : Bufins.Sol.choice Bufins.Arena.buf;
  b_power : float Bufins.Arena.buf; (* per-row accumulated energy, fJ *)
  mean_load : float Bufins.Arena.buf; (* per-row sample means (sort keys) *)
  mean_rat : float Bufins.Arena.buf;
  perm : int Bufins.Arena.buf;
  kept : int Bufins.Arena.buf;
  sort_tmp : int Bufins.Arena.buf;
}

let create () =
  let buf = Bufins.Arena.buf in
  {
    a_load = buf ();
    a_rat = buf ();
    a_choice = buf ();
    b_load = buf ();
    b_rat = buf ();
    b_choice = buf ();
    b_power = buf ();
    mean_load = buf ();
    mean_rat = buf ();
    perm = buf ();
    kept = buf ();
    sort_tmp = buf ();
  }

let key : t Domain.DLS.key = Domain.DLS.new_key create
let get () = Domain.DLS.get key
let counts = Bufins.Arena.counts "sample.arena"
let borrow b n fill = Bufins.Arena.borrow counts b n fill
let a_load t n = borrow t.a_load n 0.0
let a_rat t n = borrow t.a_rat n 0.0
let a_choice t n ~dummy = borrow t.a_choice n dummy
let b_load t n = borrow t.b_load n 0.0
let b_rat t n = borrow t.b_rat n 0.0
let b_choice t n ~dummy = borrow t.b_choice n dummy
let b_power t n = borrow t.b_power n 0.0
let mean_load t n = borrow t.mean_load n 0.0
let mean_rat t n = borrow t.mean_rat n 0.0
let perm t n = borrow t.perm n 0
let kept t n = borrow t.kept n 0

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
  let tmp = Bufins.Arena.grow t.sort_tmp n 0 in
  let ml = t.mean_load.data and mr = t.mean_rat.data and bp = t.b_power.data in
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
