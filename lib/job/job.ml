type setup = {
  library : Device.Buffer.t array;
  budget : Varmodel.Model.budget;
  mc_trials : int;
  pool : Exec.Pool.t option;
}

let default_setup =
  {
    library = Device.Buffer.default_library;
    budget = Varmodel.Model.paper_budget;
    mc_trials = 2000;
    pool = None;
  }

let tech = Device.Tech.default_65nm
let pitch_um = 500.0
let range_um = 2000.0

let grid ~die_um =
  Varmodel.Grid.create ~width_um:die_um ~height_um:die_um ~pitch_um ~range_um

let die_for_sinks sinks = Float.max 4000.0 (sqrt (float_of_int sinks) *. 400.0)

let die_of_tree tree =
  let hi = ref 4000.0 in
  for id = 0 to Rctree.Tree.node_count tree - 1 do
    let x, y = Rctree.Tree.position tree id in
    hi := Float.max !hi (Float.max x y)
  done;
  ceil (!hi /. pitch_um) *. pitch_um

type algo = Varmodel.Model.mode = Nom | D2d | Wid

let algo_name = function Nom -> "NOM" | D2d -> "D2D" | Wid -> "WID"

let algo_of_string = function
  | "nom" -> Ok Nom
  | "d2d" -> Ok D2d
  | "wid" -> Ok Wid
  | s -> Error (Printf.sprintf "unknown algorithm %S (nom|d2d|wid)" s)

let rule_of_string ?(others = []) ~p = function
  | "det" -> Ok Bufins.Prune.deterministic
  | "2p" -> (
    match Bufins.Prune.two_param ~p_l:p ~p_t:p () with
    | rule -> Ok rule
    | exception Invalid_argument _ ->
      Error (Printf.sprintf "2p needs p in [0.5, 1], got %g" p))
  | "1p" -> Ok (Bufins.Prune.one_param ~alpha:0.95)
  | "4p" -> Ok (Bufins.Prune.four_param ())
  | s ->
    Error
      (Printf.sprintf "unknown pruning rule %S (%s)" s
         (String.concat "|" ([ "det"; "2p"; "1p"; "4p" ] @ others)))

(* What both engines start from: a fresh variation model in [algo]'s
   mode (binding consumes device ids, so no two runs share one), the
   engine budget, and the tape, compiled here unless the caller brings
   it. *)
let prepare setup ?budget ?tape ~spatial ~grid algo tree =
  let model =
    Varmodel.Model.create ~mode:algo ~budget:setup.budget ~spatial ~grid ()
  in
  let budget = Option.value budget ~default:Bufins.Engine.no_budget in
  let tape = match tape with Some t -> t | None -> Compile.Tape.compile tree in
  (model, budget, tape)

let run_algo setup ?rule ?budget ?(wire_sizing = false) ?load_limit
    ?(objective = Bufins.Dominance.default) ?(eps_power = 0.0) ?tape ~spatial
    ~grid algo tree =
  let rule =
    match (rule, algo) with
    | Some r, _ -> r
    | None, Nom -> Bufins.Prune.deterministic
    | None, (D2d | Wid) -> Bufins.Prune.two_param ()
  in
  let model, budget, tape = prepare setup ?budget ?tape ~spatial ~grid algo tree in
  let config =
    {
      (Bufins.Engine.default_config ~rule ~wire_sizing ()) with
      Bufins.Engine.library = setup.library;
      budget;
      load_limit;
      power_objective = objective;
      eps_power;
    }
  in
  Bufins.Engine.run_tape ?pool:setup.pool config ~model tape

let run_sampled setup ?budget ?(wire_sizing = false) ?load_limit ~samples
    ?(relax = 1.0) ?(seed = 1) ?(objective = Bufins.Dominance.default)
    ?(eps_power = 0.0) ?tape ~spatial ~grid algo tree =
  let model, budget, tape = prepare setup ?budget ?tape ~spatial ~grid algo tree in
  let config =
    {
      (Sample.Engine.default_config ~samples ~seed ~relax ~wire_sizing ()) with
      Sample.Engine.library = setup.library;
      budget;
      load_limit;
      power_objective = objective;
      eps_power;
    }
  in
  Sample.Engine.run_tape ?pool:setup.pool config ~model tape

let instance_for setup ~spatial ~grid tree ?(widths = []) buffers =
  let model =
    Varmodel.Model.create ~mode:Wid ~budget:setup.budget ~spatial ~grid ()
  in
  Sta.Buffered.instantiate ~model (Sta.Buffered.make ~tech ~widths tree buffers)

let evaluate setup ~spatial ~grid tree ?(widths = []) buffers =
  Sta.Buffered.canonical_rat (instance_for setup ~spatial ~grid tree ~widths buffers)

type engine =
  | Canonical of Bufins.Prune.t
  | Sampled of { samples : int; relax : float }

type outcome = {
  assignment : Bufins.Assignment.t;
  stats : Bufins.Engine.stats;
  load_limit_met : bool;
  power : float;
  sampled : (float * float * float) option;
  form : Linform.t;
  mc : Numeric.Stats.summary option;
}

let run setup ?deadline_s ?wire_sizing ?load_limit ?objective ?eps_power
    ~spatial ~seed ~die_um engine algo tree =
  (match deadline_s with
  | Some s when s <= 0.0 ->
    raise (Bufins.Engine.Budget_exceeded "deadline expired before optimisation")
  | _ -> ());
  let t_start = Unix.gettimeofday () in
  let budget = { Bufins.Engine.max_candidates = None; max_seconds = deadline_s } in
  let grid = grid ~die_um in
  let assignment, stats, load_limit_met, power, sampled =
    match engine with
    | Canonical rule ->
      let r =
        run_algo setup ~rule ~budget ?wire_sizing ?load_limit ?objective
          ?eps_power ~spatial ~grid algo tree
      in
      ( Bufins.Assignment.of_result r, r.Bufins.Engine.stats,
        r.Bufins.Engine.load_limit_met, r.Bufins.Engine.best.Bufins.Sol.power,
        None )
    | Sampled { samples; relax } ->
      let r =
        run_sampled setup ~budget ?wire_sizing ?load_limit ~samples ~relax
          ~seed ?objective ?eps_power ~spatial ~grid algo tree
      in
      ( { Bufins.Assignment.buffers = r.Sample.Engine.buffers;
          widths = r.Sample.Engine.widths },
        r.Sample.Engine.stats, r.Sample.Engine.load_limit_met,
        r.Sample.Engine.best.Sample.Engine.power,
        Some
          ( r.Sample.Engine.sampled_mean, r.Sample.Engine.sampled_std,
            r.Sample.Engine.rat_at_yield ) )
  in
  let { Bufins.Assignment.buffers; widths } = assignment in
  let form = evaluate setup ~spatial ~grid tree ~widths buffers in
  let mc =
    if setup.mc_trials > 0 then begin
      (* The deadline is checked before each chunk of trials, so a trip
         stops the run within one chunk. *)
      let check () = Bufins.Driver.check_time budget ~t_start in
      check ();
      let inst = instance_for setup ~spatial ~grid tree ~widths buffers in
      Some
        (Numeric.Stats.summarize
           (Sta.Buffered.monte_carlo ?pool:setup.pool ~check inst
              ~rng:(Numeric.Rng.create ~seed) ~trials:setup.mc_trials))
    end
    else None
  in
  { assignment; stats; load_limit_met; power; sampled; form; mc }
