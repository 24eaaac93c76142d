(* The shared K-sample process matrix of the sampling-based engine.

   One matrix is drawn per optimisation run: row [id] holds K standard
   normal draws of variation source [id] (the same source-id space the
   canonical engine uses — id 0 inter-die, ids 1..R the spatial
   regions, ids > R per-device randoms).  Every candidate's per-sample
   load and RAT are linear combinations of these rows, so two
   candidates evaluated anywhere in the tree see the *same* process
   corner in sample j — which is what makes per-sample dominance
   meaningful.

   Determinism: row [id] comes from [Rng.split_at master id], which by
   the split_at contract yields the same stream for the same (seed, id)
   no matter when — or from which domain — the row is first needed.
   The master generator is never advanced, so concurrent lazy draws of
   distinct rows are safe.  Rows for the shared sources (inter-die +
   spatial) are prefilled before any parallel phase starts; per-device
   rows are only ever touched by the one DP task that owns the device's
   edge, so the plain array needs no lock. *)

type t = {
  k : int;
  master : Numeric.Rng.t;
  vecs : float array array; (* source id -> K draws; [||] = undrawn *)
}

let create ~seed ~k ~sources =
  if k <= 0 then invalid_arg "Sample.Matrix.create: k must be positive";
  if sources < 0 then invalid_arg "Sample.Matrix.create: negative source count";
  { k; master = Numeric.Rng.create ~seed; vecs = Array.make sources [||] }

let samples t = t.k
let sources t = Array.length t.vecs

let draw t id =
  let rng = Numeric.Rng.split_at t.master id in
  let v = Array.make t.k 0.0 in
  for j = 0 to t.k - 1 do
    v.(j) <- Numeric.Rng.gaussian rng
  done;
  v

let source t id =
  if id < 0 || id >= Array.length t.vecs then
    invalid_arg (Printf.sprintf "Sample.Matrix.source: id %d out of range" id);
  let v = t.vecs.(id) in
  if Array.length v > 0 then v
  else begin
    let v = draw t id in
    t.vecs.(id) <- v;
    v
  end

let prefill t ~lo ~hi =
  for id = lo to min hi (Array.length t.vecs - 1) do
    ignore (source t id)
  done

(* Samples on the outside, four at a time in four register
   accumulators, terms on the inside: each accumulator starts at the
   mean and adds the terms in id order, so sample j sees exactly the
   roundings of [out.(j) <- mu; for each term: out.(j) <- out.(j) +.
   c *. src.(j)] — the naive loop over terms — without reloading and
   storing [out] per term.  The rows are resolved once per call; every
   row has length [k] and the output block is checked up front, so the
   loops read and write without bounds checks. *)
let eval_into t form out ~off =
  let k = t.k in
  if off < 0 || off > Array.length out - k then
    invalid_arg "Sample.Matrix.eval_into: output block out of range";
  let mu = Linform.mean form in
  let ids = Linform.sorted_ids form and coefs = Linform.sorted_coefs form in
  let nt = Array.length ids in
  let rows = Array.make nt [||] in
  for i = 0 to nt - 1 do
    rows.(i) <- source t ids.(i)
  done;
  let j = ref 0 in
  while !j + 4 <= k do
    let j0 = !j in
    let a0 = ref mu and a1 = ref mu and a2 = ref mu and a3 = ref mu in
    for i = 0 to nt - 1 do
      let c = Array.unsafe_get coefs i and src = Array.unsafe_get rows i in
      a0 := !a0 +. (c *. Array.unsafe_get src j0);
      a1 := !a1 +. (c *. Array.unsafe_get src (j0 + 1));
      a2 := !a2 +. (c *. Array.unsafe_get src (j0 + 2));
      a3 := !a3 +. (c *. Array.unsafe_get src (j0 + 3))
    done;
    Array.unsafe_set out (off + j0) !a0;
    Array.unsafe_set out (off + j0 + 1) !a1;
    Array.unsafe_set out (off + j0 + 2) !a2;
    Array.unsafe_set out (off + j0 + 3) !a3;
    j := j0 + 4
  done;
  for j = !j to k - 1 do
    let a = ref mu in
    for i = 0 to nt - 1 do
      let c = Array.unsafe_get coefs i and src = Array.unsafe_get rows i in
      a := !a +. (c *. Array.unsafe_get src j)
    done;
    Array.unsafe_set out (off + j) !a
  done
