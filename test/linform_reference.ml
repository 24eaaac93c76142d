(* A deliberately naive assoc-list implementation of the canonical-form
   algebra: the executable specification the SoA kernels of [Linform]
   are property-tested against.  Nothing here is shared with the
   kernels — coefficients are looked up by id over the id union, so a
   bug in the merge walk cannot hide in the oracle. *)

type form = { r_nominal : float; r_sens : (int * float) list }

let of_form f =
  { r_nominal = Linform.mean f; r_sens = Array.to_list (Linform.sensitivities f) }

let to_form { r_nominal; r_sens } = Linform.make ~nominal:r_nominal ~sens:r_sens
let mean f = f.r_nominal

let coeff f i =
  match List.assoc_opt i f.r_sens with Some a -> a | None -> 0.0

let union a b =
  List.sort_uniq compare (List.map fst a.r_sens @ List.map fst b.r_sens)

let lin ~nominal ka a kb b =
  let sens =
    List.filter_map
      (fun i ->
        let v = (ka *. coeff a i) +. (kb *. coeff b i) in
        if v = 0.0 then None else Some (i, v))
      (union a b)
  in
  { r_nominal = nominal; r_sens = sens }

let add a b = lin ~nominal:(a.r_nominal +. b.r_nominal) 1.0 a 1.0 b
let sub a b = lin ~nominal:(a.r_nominal -. b.r_nominal) 1.0 a (-1.0) b

let axpy k x y = lin ~nominal:((k *. x.r_nominal) +. y.r_nominal) k x 1.0 y

let mul_first_order a b =
  lin ~nominal:(a.r_nominal *. b.r_nominal) b.r_nominal a a.r_nominal b

let variance f =
  List.fold_left (fun acc (_, a) -> acc +. (a *. a)) 0.0 f.r_sens

let covariance a b =
  List.fold_left
    (fun acc i -> acc +. (coeff a i *. coeff b i))
    0.0 (union a b)

let stat_min a b =
  let v =
    variance a -. (2.0 *. covariance a b) +. variance b
  in
  let sigma = if v <= 0.0 then 0.0 else sqrt v in
  if sigma = 0.0 then (if a.r_nominal <= b.r_nominal then a else b)
  else
    let z = (b.r_nominal -. a.r_nominal) /. sigma in
    let t = Numeric.Normal.cdf z in
    if t >= 1.0 then a
    else if t <= 0.0 then b
    else
      let nominal =
        (t *. a.r_nominal) +. ((1.0 -. t) *. b.r_nominal)
        -. (sigma *. Numeric.Normal.pdf z)
      in
      lin ~nominal t a (1.0 -. t) b
