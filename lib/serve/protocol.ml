let version = 2
let hello = Printf.sprintf "varbuf-serve protocol %d" version

let check_hello payload =
  let first = match String.index_opt payload '\n' with
    | Some i -> String.sub payload 0 i
    | None -> payload
  in
  if String.trim first <> hello then
    failwith
      (Printf.sprintf "incompatible server handshake %S (expected %S)" first
         hello)

type request = {
  id : int;
  seed : int;
  mode : Varmodel.Model.mode;
  rule : Bufins.Prune.t;
  deadline_ms : int;
  mc_trials : int;
  wire_sizing : bool;
  samples : int;
  relax : float;
  btypes : int;
  objective : Bufins.Dominance.objective;
  eps_power : float;
  tree : Rctree.Tree.t;
}

let default_request ~tree =
  {
    id = 0;
    seed = 1;
    mode = Varmodel.Model.Wid;
    rule = Bufins.Prune.two_param ();
    deadline_ms = 0;
    mc_trials = 0;
    wire_sizing = false;
    samples = 0;
    relax = 1.0;
    btypes = 0;
    objective = Bufins.Dominance.default;
    eps_power = 0.0;
    tree;
  }

type sampled = {
  s_k : int;
  s_mean : float;
  s_std : float;
  s_rat_at_yield : float;
}

type response = {
  r_id : int;
  nodes : int;
  peak_candidates : int;
  total_candidates : int;
  root_mean : float;
  root_std : float;
  root_yield95 : float;
  sampled : sampled option;
  mc : (float * float) option;
  r_power : float option;
  assignment : Bufins.Assignment.t;
}

type error = { code : string; message : string }

let err_parse = "parse"
let err_too_large = "too_large"
let err_busy = "busy"
let err_deadline = "deadline"
let err_internal = "internal"
let err_proto = "proto"
