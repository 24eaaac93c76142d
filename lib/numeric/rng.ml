(* [spare] holds Box-Muller's second value while [has_spare] is set. *)
type t = {
  state : Random.State.t;
  mutable spare : float;
  mutable has_spare : bool;
}

let of_state state = { state; spare = 0.0; has_spare = false }
let create ~seed = of_state (Random.State.make [| seed |])

(* Children are keyed by 120 bits of parent entropy, not a single
   30-bit word: with one word, two of ~2^15 streams collide with
   noticeable probability (birthday bound), which is within reach of a
   large Monte-Carlo fan-out. *)
let child_key state =
  let k1 = Random.State.bits state in
  let k2 = Random.State.bits state in
  let k3 = Random.State.bits state in
  let k4 = Random.State.bits state in
  (k1, k2, k3, k4)

let split t =
  let k1, k2, k3, k4 = child_key t.state in
  of_state (Random.State.make [| k1; k2; k3; k4 |])

let split_at t index =
  if index < 0 then invalid_arg "Rng.split_at: index must be >= 0";
  (* Probe a copy so the parent is not advanced: every [split_at t i]
     on an unchanged parent derives the same key material, and the
     index alone separates the streams. *)
  let k1, k2, k3, k4 = child_key (Random.State.copy t.state) in
  (* A constant tag keeps the 5-word seed space disjoint from the
     4-word seeds [split] uses. *)
  of_state (Random.State.make [| k1; k2; k3; k4; 0x53504c54; index |])

let uniform t = Random.State.float t.state 1.0

let uniform_range t ~lo ~hi =
  if hi < lo then invalid_arg "Rng.uniform_range: hi < lo";
  lo +. ((hi -. lo) *. uniform t)

let int t ~bound =
  if bound <= 0 then invalid_arg "Rng.int: bound must be > 0";
  Random.State.int t.state bound

(* 2π as the product [(2 * 4) * atan 1], formed once: every Gaussian
   stream depends on these exact bits, so keep the product. *)
let two_pi = 2.0 *. 4.0 *. atan 1.0

let gaussian t =
  if t.has_spare then begin
    t.has_spare <- false;
    t.spare
  end
  else begin
    (* Box-Muller on (0,1] uniforms; log of 0 is avoided by flipping the
       draw, which leaves the distribution unchanged. *)
    let u1 = 1.0 -. uniform t in
    let u2 = uniform t in
    let r = sqrt (-2.0 *. log u1) in
    let theta = two_pi *. u2 in
    t.spare <- r *. sin theta;
    t.has_spare <- true;
    r *. cos theta
  end

let gaussian_mu_sigma t ~mu ~sigma = mu +. (sigma *. gaussian t)
