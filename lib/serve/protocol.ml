let version = 1
let version_bin = 2
let hello = Printf.sprintf "varbuf-serve protocol %d" version

(* The full handshake payload: the v1 line old clients check, plus the
   set of payload encodings this server accepts ("protocols 1 2"). *)
let hello_full = hello ^ "\nprotocols 1 2"

let check_hello payload =
  let first = match String.index_opt payload '\n' with
    | Some i -> String.sub payload 0 i
    | None -> payload
  in
  if String.trim first <> hello then
    failwith
      (Printf.sprintf "incompatible server handshake %S (expected %S)" first
         hello)

let supported_protocols payload =
  let versions = ref [ version ] in
  List.iter
    (fun line ->
      match String.split_on_char ' ' (String.trim line) with
      | "protocols" :: vs ->
        versions := List.filter_map int_of_string_opt vs
      | _ -> ())
    (String.split_on_char '\n' payload);
  !versions

type request = {
  id : int;
  seed : int;
  mode : Experiments.Common.algo;
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
    mode = Experiments.Common.Wid;
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

let mode_name = function
  | Experiments.Common.Nom -> "nom"
  | Experiments.Common.D2d -> "d2d"
  | Experiments.Common.Wid -> "wid"

let mode_of_name = function
  | "nom" -> Experiments.Common.Nom
  | "d2d" -> Experiments.Common.D2d
  | "wid" -> Experiments.Common.Wid
  | s -> failwith (Printf.sprintf "unknown mode %S (nom|d2d|wid)" s)

let encode_rule buf = function
  | Bufins.Prune.Deterministic -> Buffer.add_string buf "rule det\n"
  | Bufins.Prune.Two_param { p_l; p_t } ->
    Printf.bprintf buf "rule 2p\np_l %.17g\np_t %.17g\n" p_l p_t
  | Bufins.Prune.One_param { alpha } ->
    Printf.bprintf buf "rule 1p\nalpha %.17g\n" alpha
  | Bufins.Prune.Four_param { alpha_l; alpha_u; beta_l; beta_u } ->
    Printf.bprintf buf
      "rule 4p\nalpha_l %.17g\nalpha_u %.17g\nbeta_l %.17g\nbeta_u %.17g\n"
      alpha_l alpha_u beta_l beta_u

let encode_request r =
  let buf = Buffer.create 1024 in
  Printf.bprintf buf "id %d\nseed %d\nmode %s\n" r.id r.seed (mode_name r.mode);
  encode_rule buf r.rule;
  Printf.bprintf buf "deadline_ms %d\nmc %d\nwire_sizing %b\n" r.deadline_ms
    r.mc_trials r.wire_sizing;
  (* Sample-mode fields are omitted at their defaults so requests that
     do not use the sample engine encode to the exact bytes v1 clients
     sent before the fields existed (cache keys included). *)
  if r.samples <> 0 then Printf.bprintf buf "samples %d\n" r.samples;
  if r.relax <> 1.0 then Printf.bprintf buf "relax %.17g\n" r.relax;
  (* Same default-elision contract for the buffer-library axis: the
     synthetic-library size is omitted at 0 (= default library), so
     historical requests and their cache keys keep their exact bytes. *)
  if r.btypes <> 0 then Printf.bprintf buf "btypes %d\n" r.btypes;
  (* The power-objective axis keeps the same contract: the default
     Max_yield objective and ε = 0 are omitted, so every historical
     request — and its cache key — keeps its exact bytes. *)
  if r.objective <> Bufins.Dominance.default then
    Printf.bprintf buf "objective %s\n" (Bufins.Dominance.to_string r.objective);
  if r.eps_power <> 0.0 then Printf.bprintf buf "eps_power %.17g\n" r.eps_power;
  Buffer.add_string buf "tree\n";
  Buffer.add_string buf (Rctree.Io.to_string r.tree);
  Buffer.contents buf

(* Split a payload into (header key-value lines, text after the marker
   line).  Blank and [#] lines before the marker are ignored; header
   values keep internal spaces. *)
let split_at_marker ~marker text =
  let n = String.length text in
  let fields = ref [] in
  let rec go lineno pos =
    if pos >= n then
      failwith (Printf.sprintf "missing %S marker line" marker)
    else begin
      let nl = match String.index_from_opt text pos '\n' with
        | Some i -> i
        | None -> n
      in
      let line = String.trim (String.sub text pos (nl - pos)) in
      if line = marker then
        if nl >= n then ""
        else String.sub text (nl + 1) (n - nl - 1)
      else begin
        (if line <> "" && line.[0] <> '#' then
           match String.index_opt line ' ' with
           | None ->
             failwith
               (Printf.sprintf "line %d: field %S has no value" lineno line)
           | Some sp ->
             let key = String.sub line 0 sp in
             let value =
               String.trim (String.sub line (sp + 1) (String.length line - sp - 1))
             in
             fields := (lineno, key, value) :: !fields);
        go (lineno + 1) (nl + 1)
      end
    end
  in
  let rest = go 1 0 in
  (List.rev !fields, rest)

let int_value lineno key v =
  match int_of_string_opt v with
  | Some i -> i
  | None ->
    failwith
      (Printf.sprintf "line %d: field %S is not an integer: %S" lineno key v)

let float_value lineno key v =
  match float_of_string_opt v with
  | Some f -> f
  | None ->
    failwith
      (Printf.sprintf "line %d: field %S is not a number: %S" lineno key v)

let bool_value lineno key v =
  match bool_of_string_opt v with
  | Some b -> b
  | None ->
    failwith
      (Printf.sprintf "line %d: field %S is not a boolean: %S" lineno key v)

let decode_request text =
  let fields, tree_text = split_at_marker ~marker:"tree" text in
  let id = ref 0 and seed = ref 1 and deadline = ref 0 and mc = ref 0 in
  let wire_sizing = ref false in
  let samples = ref 0 and relax = ref 1.0 in
  let btypes = ref 0 in
  let objective = ref Bufins.Dominance.default and eps_power = ref 0.0 in
  let mode = ref Experiments.Common.Wid in
  let rule_name = ref "2p" in
  let rule_params : (string * float) list ref = ref [] in
  List.iter
    (fun (lineno, key, v) ->
      match key with
      | "id" -> id := int_value lineno key v
      | "seed" -> seed := int_value lineno key v
      | "deadline_ms" -> deadline := int_value lineno key v
      | "mc" -> mc := int_value lineno key v
      | "wire_sizing" -> wire_sizing := bool_value lineno key v
      | "samples" -> samples := int_value lineno key v
      | "relax" ->
        relax := float_value lineno key v;
        if not (!relax > 0.0) then
          failwith (Printf.sprintf "line %d: relax must be > 0" lineno)
      | "btypes" ->
        btypes := int_value lineno key v;
        if !btypes < 0 then
          failwith (Printf.sprintf "line %d: btypes must be >= 0" lineno)
      | "objective" -> (
        try objective := Bufins.Dominance.of_string v
        with Failure m -> failwith (Printf.sprintf "line %d: %s" lineno m))
      | "eps_power" ->
        eps_power := float_value lineno key v;
        if !eps_power < 0.0 || Float.is_nan !eps_power then
          failwith (Printf.sprintf "line %d: eps_power must be >= 0" lineno)
      | "mode" -> (
        try mode := mode_of_name v
        with Failure m -> failwith (Printf.sprintf "line %d: %s" lineno m))
      | "rule" -> rule_name := v
      | "p_l" | "p_t" | "alpha" | "alpha_l" | "alpha_u" | "beta_l" | "beta_u"
        -> rule_params := (key, float_value lineno key v) :: !rule_params
      | _ -> failwith (Printf.sprintf "line %d: unknown request field %S" lineno key))
    fields;
  let param ?default key =
    match (List.assoc_opt key !rule_params, default) with
    | Some v, _ -> v
    | None, Some d -> d
    | None, None -> failwith (Printf.sprintf "rule %s needs field %S" !rule_name key)
  in
  let rule =
    try
      match !rule_name with
      | "det" -> Bufins.Prune.deterministic
      | "2p" ->
        Bufins.Prune.two_param ~p_l:(param ~default:0.5 "p_l")
          ~p_t:(param ~default:0.5 "p_t") ()
      | "1p" -> Bufins.Prune.one_param ~alpha:(param ~default:0.95 "alpha")
      | "4p" ->
        Bufins.Prune.four_param
          ~alpha_l:(param ~default:0.45 "alpha_l")
          ~alpha_u:(param ~default:0.55 "alpha_u")
          ~beta_l:(param ~default:0.45 "beta_l")
          ~beta_u:(param ~default:0.55 "beta_u")
          ()
      | s -> failwith (Printf.sprintf "unknown rule %S (det|2p|1p|4p)" s)
    with Invalid_argument m -> failwith ("bad rule parameters: " ^ m)
  in
  let tree =
    try Rctree.Io.of_string tree_text
    with Failure m -> failwith ("tree " ^ m)
  in
  {
    id = !id;
    seed = !seed;
    mode = !mode;
    rule;
    deadline_ms = !deadline;
    mc_trials = !mc;
    wire_sizing = !wire_sizing;
    samples = !samples;
    relax = !relax;
    btypes = !btypes;
    objective = !objective;
    eps_power = !eps_power;
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

let encode_response r =
  let buf = Buffer.create 1024 in
  Printf.bprintf buf "id %d\nnodes %d\npeak_candidates %d\ntotal_candidates %d\n"
    r.r_id r.nodes r.peak_candidates r.total_candidates;
  Printf.bprintf buf "root_mean %.17g\nroot_std %.17g\nroot_yield95 %.17g\n"
    r.root_mean r.root_std r.root_yield95;
  (match r.sampled with
  | Some s ->
    Printf.bprintf buf
      "sample_k %d\nsample_mean %.17g\nsample_std %.17g\nsample_yield_rat %.17g\n"
      s.s_k s.s_mean s.s_std s.s_rat_at_yield
  | None -> ());
  (match r.mc with
  | Some (mean, std) -> Printf.bprintf buf "mc_mean %.17g\nmc_std %.17g\n" mean std
  | None -> ());
  (* Present only for power-aware requests, so default responses keep
     their exact historical bytes. *)
  (match r.r_power with
  | Some p -> Printf.bprintf buf "power %.17g\n" p
  | None -> ());
  Buffer.add_string buf "buffering\n";
  Buffer.add_string buf (Bufins.Assignment.to_string r.assignment);
  Buffer.contents buf

let decode_response text =
  let fields, buffering_text = split_at_marker ~marker:"buffering" text in
  let r_id = ref 0 and nodes = ref 0 and peak = ref 0 and total = ref 0 in
  let root_mean = ref nan and root_std = ref nan and root_yield95 = ref nan in
  let mc_mean = ref None and mc_std = ref None in
  let s_k = ref None and s_mean = ref nan and s_std = ref nan in
  let s_rat_at_yield = ref nan in
  let r_power = ref None in
  List.iter
    (fun (lineno, key, v) ->
      match key with
      | "id" -> r_id := int_value lineno key v
      | "nodes" -> nodes := int_value lineno key v
      | "peak_candidates" -> peak := int_value lineno key v
      | "total_candidates" -> total := int_value lineno key v
      | "root_mean" -> root_mean := float_value lineno key v
      | "root_std" -> root_std := float_value lineno key v
      | "root_yield95" -> root_yield95 := float_value lineno key v
      | "mc_mean" -> mc_mean := Some (float_value lineno key v)
      | "mc_std" -> mc_std := Some (float_value lineno key v)
      | "sample_k" -> s_k := Some (int_value lineno key v)
      | "sample_mean" -> s_mean := float_value lineno key v
      | "sample_std" -> s_std := float_value lineno key v
      | "sample_yield_rat" -> s_rat_at_yield := float_value lineno key v
      | "power" -> r_power := Some (float_value lineno key v)
      | _ ->
        failwith (Printf.sprintf "line %d: unknown response field %S" lineno key))
    fields;
  let assignment =
    try Bufins.Assignment.of_string buffering_text
    with Failure m -> failwith ("buffering " ^ m)
  in
  {
    r_id = !r_id;
    nodes = !nodes;
    peak_candidates = !peak;
    total_candidates = !total;
    root_mean = !root_mean;
    root_std = !root_std;
    root_yield95 = !root_yield95;
    sampled =
      (match !s_k with
      | Some k ->
        Some
          {
            s_k = k;
            s_mean = !s_mean;
            s_std = !s_std;
            s_rat_at_yield = !s_rat_at_yield;
          }
      | None -> None);
    mc =
      (match (!mc_mean, !mc_std) with
      | Some m, Some s -> Some (m, s)
      | _ -> None);
    r_power = !r_power;
    assignment;
  }

type error = { code : string; message : string }

let err_parse = "parse"
let err_too_large = "too_large"
let err_busy = "busy"
let err_deadline = "deadline"
let err_internal = "internal"
let err_proto = "proto"

let one_line s = String.map (function '\n' | '\r' -> ' ' | c -> c) s

let encode_error e =
  Printf.sprintf "code %s\nmessage %s\n" (one_line e.code) (one_line e.message)

let decode_error text =
  let code = ref err_internal and message = ref "" in
  List.iter
    (fun line ->
      let line = String.trim line in
      match String.index_opt line ' ' with
      | Some sp -> (
        let key = String.sub line 0 sp in
        let v = String.sub line (sp + 1) (String.length line - sp - 1) in
        match key with
        | "code" -> code := String.trim v
        | "message" -> message := v
        | _ -> ())
      | None -> ())
    (String.split_on_char '\n' text);
  { code = !code; message = !message }
