type objective =
  | Max_yield
  | Min_power of float
  | Weighted of float

let default = Max_yield
let power_aware = function Max_yield -> false | Min_power _ | Weighted _ -> true

let to_string = function
  | Max_yield -> "max_yield"
  | Min_power t -> Printf.sprintf "min_power %.17g" t
  | Weighted w -> Printf.sprintf "weighted %.17g" w

let of_string s =
  let tokens =
    String.split_on_char ' ' (String.trim s)
    |> List.concat_map (String.split_on_char '=')
    |> List.filter (fun t -> t <> "")
  in
  let num what v =
    match float_of_string_opt v with
    | Some f when Float.is_finite f -> f
    | _ -> failwith (Printf.sprintf "objective: %s is not a finite number: %S" what v)
  in
  match tokens with
  | [ "max_yield" ] -> Max_yield
  | [ "min_power"; t ] -> Min_power (num "rat target" t)
  | [ "weighted"; w ] -> Weighted (num "weight" w)
  | _ ->
    failwith
      (Printf.sprintf
         "objective: want max_yield | min_power T | weighted W, got %S" s)

let root_yield = 0.95

let pick objective ~n ~score ~power =
  if n < 1 then invalid_arg "Dominance.pick: no candidates";
  let best = ref 0 in
  (match objective with
  | Max_yield ->
    let best_s = ref (score 0) in
    for i = 1 to n - 1 do
      let s = score i in
      if s > !best_s then begin
        best := i;
        best_s := s
      end
    done
  | Weighted w ->
    let best_v = ref (score 0 -. (w *. power 0)) in
    for i = 1 to n - 1 do
      let v = score i -. (w *. power i) in
      if v > !best_v then begin
        best := i;
        best_v := v
      end
    done
  | Min_power target ->
    let best_s = ref (score 0) and best_p = ref (power 0) in
    let feasible = ref (!best_s >= target) in
    for i = 1 to n - 1 do
      let s = score i and p = power i in
      let f = s >= target in
      let better =
        if f <> !feasible then f
        else if f then p < !best_p || (p = !best_p && s > !best_s)
        else s > !best_s
      in
      if better then begin
        best := i;
        best_s := s;
        best_p := p;
        feasible := f
      end
    done);
  !best

(* Bucketed, not additive: floor quantisation is what keeps ε-dominance
   transitive, and nested buckets (ε' = m·ε) are what make the kept
   frontier shrink monotonically as ε grows. *)
let power_bucket ~eps p = if eps <= 0.0 then p else Float.floor (p /. eps)
let power_le ~eps a b = power_bucket ~eps a <= power_bucket ~eps b

(* One walk over the buckets in ascending order: a bucket's
   sweep-first row (best RAT, then least power, then least index) is
   kept only when its RAT beats every lower bucket's.  No closure
   captures the float state, so it stays unboxed. *)
let sorts_first (rat : float array) (power : float array) i j =
  rat.(i) > rat.(j)
  || rat.(i) = rat.(j)
     && (power.(i) < power.(j) || (power.(i) = power.(j) && i < j))

let staircase ~eps ~order ~n ~rat ~power ~kept =
  let nkept = ref 0 and lower = ref neg_infinity and k = ref 0 in
  while !k < n do
    let first = order.(!k) in
    let b = power_bucket ~eps power.(first) in
    let best = ref first in
    incr k;
    while !k < n && power_bucket ~eps power.(order.(!k)) = b do
      if sorts_first rat power order.(!k) !best then best := order.(!k);
      incr k
    done;
    if rat.(!best) > !lower then begin
      kept.(!nkept) <- !best;
      incr nkept;
      lower := rat.(!best)
    end
  done;
  !nkept

type scan = Rat_filtered | Scan_kept

(* Newest kept first: recent candidates are the likeliest dominators.
   Plain loops over the key array, not a recursive closure per
   candidate, so the walk allocates nothing. *)
let sweep ~order ~n ~rat_keys ~dominates ~scan ~kept =
  let filtered = match scan with Rat_filtered -> true | Scan_kept -> false in
  let nkept = ref 0 in
  let rat_max = ref neg_infinity in
  for s = 0 to n - 1 do
    let i = order.(s) in
    let ki = rat_keys.(i) in
    let dominated = ref false in
    if not (filtered && ki > !rat_max) then begin
      let k = ref (!nkept - 1) in
      while (not !dominated) && !k >= 0 do
        let j = kept.(!k) in
        if ((not filtered) || rat_keys.(j) >= ki) && dominates j i then
          dominated := true;
        decr k
      done
    end;
    if not !dominated then begin
      kept.(!nkept) <- i;
      incr nkept;
      if ki > !rat_max then rat_max := ki
    end
  done;
  !nkept
