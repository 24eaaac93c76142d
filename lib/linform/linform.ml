(* Canonical forms as a struct-of-arrays: the sensitivity vector is a
   pair of parallel arrays (sorted ids, float coefficients) instead of
   a boxed (int * float) array.  The coefficient array is an OCaml
   float array — unboxed flat storage — so the merge kernel below
   never allocates a tuple or a list cell: each binary operation is
   one walk over the two sorted id arrays into per-domain scratch,
   whose surviving prefix is then copied into exact-size result
   arrays.

   Every kernel reproduces the operand-order float arithmetic of the
   original list-based implementation bit for bit (DP results are
   pinned by golden tests), which is why variance is sometimes
   recomputed per-element instead of reusing a cached value: the
   original recomputed it after every merge. *)

type t = {
  nominal : float;
  ids : int array;      (* sorted ascending, parallel to [coefs] *)
  coefs : float array;  (* no zero entries *)
  variance : float;     (* cached sum of squared coefficients *)
}

(* A plain loop rather than [Array.fold_left], whose accumulator is
   boxed at every step; same left-to-right order. *)
let variance_of_coefs coefs =
  let acc = ref 0.0 in
  for k = 0 to Array.length coefs - 1 do
    let a = coefs.(k) in
    acc := !acc +. (a *. a)
  done;
  !acc

let const nominal = { nominal; ids = [||]; coefs = [||]; variance = 0.0 }
let zero = const 0.0

let make ~nominal ~sens =
  let sorted = List.sort (fun (i, _) (j, _) -> compare i j) sens in
  (* Merge duplicates, drop zeros. *)
  let merged =
    List.fold_left
      (fun acc (i, a) ->
        match acc with
        | (j, b) :: rest when j = i -> (j, b +. a) :: rest
        | _ -> (i, a) :: acc)
      [] sorted
  in
  let cleaned = List.filter (fun (_, a) -> a <> 0.0) (List.rev merged) in
  let n = List.length cleaned in
  let ids = Array.make n 0 and coefs = Array.make n 0.0 in
  List.iteri
    (fun k (i, a) ->
      ids.(k) <- i;
      coefs.(k) <- a)
    cleaned;
  { nominal; ids; coefs; variance = variance_of_coefs coefs }

let mean f = f.nominal
let variance f = f.variance
let std f = sqrt f.variance
let sensitivities f = Array.init (Array.length f.ids) (fun k -> (f.ids.(k), f.coefs.(k)))
let sorted_ids f = f.ids
let sorted_coefs f = f.coefs
let support_size f = Array.length f.ids
let is_deterministic f = Array.length f.ids = 0

let sensitivity f id =
  let n = Array.length f.ids in
  let rec search lo hi =
    if lo >= hi then 0.0
    else
      let mid = (lo + hi) / 2 in
      let i = f.ids.(mid) in
      if i = id then f.coefs.(mid)
      else if i < id then search (mid + 1) hi
      else search lo mid
  in
  search 0 n

(* Merge scratch, one per domain: the walk below writes every surviving
   entry here, then copies the prefix out.  The buffers grow
   geometrically to the domain's largest merge (as [Bufins.Arena]'s
   do) and are borrowed only inside one [merge_scaled] call, which
   calls nothing that could re-enter it. *)
type scratch = { mutable s_ids : int array; mutable s_coefs : float array }

let scratch_key : scratch Domain.DLS.key =
  Domain.DLS.new_key (fun () -> { s_ids = [||]; s_coefs = [||] })

let scratch n =
  let s = Domain.DLS.get scratch_key in
  if Array.length s.s_ids < n then begin
    let c = ref 16 in
    while !c < n do
      c := !c * 2
    done;
    s.s_ids <- Array.make !c 0;
    s.s_coefs <- Array.make !c 0.0
  end;
  s

(* The one merge kernel behind every binary operation: the sensitivity
   vector of [ka*a + kb*b] (for suitable ka/kb this is add, sub, axpy,
   the first-order product and the tightness-probability blend).  One
   walk over the two sorted id arrays writes the non-zero entries into
   the domain's scratch and accumulates the variance in the same
   left-to-right order the original implementation used; the entries
   are then copied into exact-size result arrays.  There is no closure
   and the accumulators stay unboxed, so the result's two arrays and
   record are all that is allocated.

   The walk reads and writes without bounds checks: [ia < na] and
   [ib < nb] index [a] and [b] (every form's [ids] and [coefs] have
   one length), and at most [na + nb] entries go to scratch of at
   least that size. *)
let merge_scaled ~nominal ka a kb b =
  let aid = a.ids and aco = a.coefs in
  let bid = b.ids and bco = b.coefs in
  let na = Array.length aid and nb = Array.length bid in
  if na = 0 && nb = 0 then { nominal; ids = [||]; coefs = [||]; variance = 0.0 }
  else if na = 0 && kb = 1.0 then
    (* Share the untouched arrays; the variance is still recomputed
       per-element because that is what the merge path always did. *)
    { nominal; ids = bid; coefs = bco; variance = variance_of_coefs bco }
  else if nb = 0 && ka = 1.0 then
    { nominal; ids = aid; coefs = aco; variance = variance_of_coefs aco }
  else begin
    let s = scratch (na + nb) in
    let sid = s.s_ids and sco = s.s_coefs in
    let k = ref 0 and var = ref 0.0 in
    let ia = ref 0 and ib = ref 0 in
    while !ia < na && !ib < nb do
      let i = Array.unsafe_get aid !ia and j = Array.unsafe_get bid !ib in
      let v =
        if i = j then begin
          let v =
            (ka *. Array.unsafe_get aco !ia) +. (kb *. Array.unsafe_get bco !ib)
          in
          incr ia;
          incr ib;
          v
        end
        else if i < j then begin
          let v = ka *. Array.unsafe_get aco !ia in
          incr ia;
          v
        end
        else begin
          let v = kb *. Array.unsafe_get bco !ib in
          incr ib;
          v
        end
      in
      if v <> 0.0 then begin
        Array.unsafe_set sid !k (if i <= j then i else j);
        Array.unsafe_set sco !k v;
        var := !var +. (v *. v);
        incr k
      end
    done;
    while !ia < na do
      let v = ka *. Array.unsafe_get aco !ia in
      if v <> 0.0 then begin
        Array.unsafe_set sid !k (Array.unsafe_get aid !ia);
        Array.unsafe_set sco !k v;
        var := !var +. (v *. v);
        incr k
      end;
      incr ia
    done;
    while !ib < nb do
      let v = kb *. Array.unsafe_get bco !ib in
      if v <> 0.0 then begin
        Array.unsafe_set sid !k (Array.unsafe_get bid !ib);
        Array.unsafe_set sco !k v;
        var := !var +. (v *. v);
        incr k
      end;
      incr ib
    done;
    let n = !k in
    {
      nominal;
      ids = Array.sub sid 0 n;
      coefs = Array.sub sco 0 n;
      variance = !var;
    }
  end

let add a b = merge_scaled ~nominal:(a.nominal +. b.nominal) 1.0 a 1.0 b
let sub a b = merge_scaled ~nominal:(a.nominal -. b.nominal) 1.0 a (-1.0) b

let neg a =
  {
    nominal = -.a.nominal;
    ids = a.ids;
    coefs = Array.map (fun x -> -.x) a.coefs;
    variance = variance_of_coefs a.coefs;
  }

let scale k a =
  if k = 0.0 then zero
  else
    {
      nominal = k *. a.nominal;
      ids = a.ids;
      coefs = Array.map (fun x -> k *. x) a.coefs;
      variance = k *. k *. a.variance;
    }

let shift c a = { a with nominal = a.nominal +. c }

let axpy k x y =
  if k = 0.0 then y
  else merge_scaled ~nominal:((k *. x.nominal) +. y.nominal) k x 1.0 y

let axpy_shift k x y c =
  if k = 0.0 then shift c y
  else merge_scaled ~nominal:(((k *. x.nominal) +. y.nominal) +. c) k x 1.0 y

let mul_first_order a b =
  merge_scaled ~nominal:(a.nominal *. b.nominal) b.nominal a a.nominal b

let covariance a b =
  let aid = a.ids and aco = a.coefs in
  let bid = b.ids and bco = b.coefs in
  let na = Array.length aid and nb = Array.length bid in
  let acc = ref 0.0 in
  let ia = ref 0 and ib = ref 0 in
  while !ia < na && !ib < nb do
    let i = aid.(!ia) and j = bid.(!ib) in
    if i = j then begin
      acc := !acc +. (aco.(!ia) *. bco.(!ib));
      incr ia;
      incr ib
    end
    else if i < j then incr ia
    else incr ib
  done;
  !acc

let correlation a b =
  let sa = std a and sb = std b in
  if sa = 0.0 || sb = 0.0 then 0.0 else covariance a b /. (sa *. sb)

let std_diff a b =
  let v = a.variance -. (2.0 *. covariance a b) +. b.variance in
  if v <= 0.0 then 0.0 else sqrt v

let prob_greater a b =
  Numeric.Normal.prob_gt_zero ~mu:(a.nominal -. b.nominal) ~sigma:(std_diff a b)

let percentile f p = Numeric.Normal.percentile ~mu:f.nominal ~sigma:(std f) p

(* Eq. (38)-(40): statistical min via tightness probability.  t is the
   probability that [a] is the smaller one; the result's sensitivities
   are the t-weighted blend, its nominal the moment-matched mean of
   min(A,B) — the blend and the pdf correction are fused into a single
   merge pass. *)
let stat_min a b =
  let sigma = std_diff a b in
  if sigma = 0.0 then (if a.nominal <= b.nominal then a else b)
  else
    let z = (b.nominal -. a.nominal) /. sigma in
    let t = Numeric.Normal.cdf z in
    if t >= 1.0 then a
    else if t <= 0.0 then b
    else
      let nominal =
        (t *. a.nominal) +. ((1.0 -. t) *. b.nominal)
        -. (sigma *. Numeric.Normal.pdf z)
      in
      merge_scaled ~nominal t a (1.0 -. t) b

let stat_max a b = neg (stat_min (neg a) (neg b))

let eval f lookup =
  let acc = ref f.nominal in
  for k = 0 to Array.length f.ids - 1 do
    acc := !acc +. (f.coefs.(k) *. lookup f.ids.(k))
  done;
  !acc

let map_sens g f =
  let n = Array.length f.ids in
  let count = ref 0 in
  for k = 0 to n - 1 do
    if g f.ids.(k) f.coefs.(k) <> 0.0 then incr count
  done;
  let ids = Array.make !count 0 and coefs = Array.make !count 0.0 in
  let var = ref 0.0 in
  let w = ref 0 in
  for k = 0 to n - 1 do
    let v = g f.ids.(k) f.coefs.(k) in
    if v <> 0.0 then begin
      ids.(!w) <- f.ids.(k);
      coefs.(!w) <- v;
      var := !var +. (v *. v);
      incr w
    end
  done;
  { nominal = f.nominal; ids; coefs; variance = !var }

let of_sorted_arrays ~nominal ~ids ~coefs =
  let n = Array.length ids in
  if Array.length coefs <> n then
    invalid_arg "Linform.of_sorted_arrays: length mismatch";
  for k = 1 to n - 1 do
    if ids.(k - 1) >= ids.(k) then
      invalid_arg "Linform.of_sorted_arrays: ids must be strictly increasing"
  done;
  let zeros = ref 0 in
  for k = 0 to n - 1 do
    if coefs.(k) = 0.0 then incr zeros
  done;
  if !zeros = 0 then { nominal; ids; coefs; variance = variance_of_coefs coefs }
  else begin
    let m = n - !zeros in
    let ids' = Array.make m 0 and coefs' = Array.make m 0.0 in
    let w = ref 0 in
    for k = 0 to n - 1 do
      if coefs.(k) <> 0.0 then begin
        ids'.(!w) <- ids.(k);
        coefs'.(!w) <- coefs.(k);
        incr w
      end
    done;
    { nominal; ids = ids'; coefs = coefs'; variance = variance_of_coefs coefs' }
  end

let pp ppf f =
  Format.fprintf ppf "%g±%g(%d srcs)" f.nominal (std f) (support_size f)
