module Prng = Jamming_prng.Prng
module Budget = Jamming_adversary.Budget
module Channel = Jamming_channel.Channel
module Metrics = Jamming_sim.Metrics
module Monitor = Jamming_sim.Monitor
module Observer = Jamming_sim.Observer
module Dynamic = Jamming_sim.Dynamic
module Faults = Jamming_faults
module Telemetry = Jamming_telemetry.Telemetry
module Json = Jamming_telemetry.Json
module Store = Jamming_store.Store
module Key = Jamming_store.Key

type setup = { n : int; eps : float; window : int; max_slots : int }

let pp_setup ppf s =
  Format.fprintf ppf "n=%d eps=%.2f T=%d cap=%d" s.n s.eps s.window s.max_slots

let validate setup =
  if setup.n < 1 then invalid_arg "Runner: n must be >= 1";
  if not (setup.eps > 0.0 && setup.eps <= 1.0) then invalid_arg "Runner: eps must lie in (0, 1]";
  if setup.window < 1 then invalid_arg "Runner: window must be >= 1";
  if setup.max_slots < 1 then invalid_arg "Runner: max_slots must be >= 1"

(* --- the engine spec: one description of how to run a cell --- *)

type engine =
  | Uniform of Specs.protocol
  | Exact of {
      name : string;
      cd : Channel.cd_model;
      factory : Jamming_station.Station.factory;
    }
  | Faulty of {
      name : string;
      cd : Channel.cd_model;
      factory : Jamming_station.Station.factory;
      faults : Faults.Config.t;
      monitor_checks : Monitor.checks option;
    }
  | Aggregate of {
      name : string;
      cd : Channel.cd_model;
      proto : Jamming_sim.Aggregate.packed;
    }
  | Pooled of {
      name : string;
      cd : Channel.cd_model;
      pool : Jamming_station.Station.pool_factory;
    }

let engine_name = function
  | Uniform p -> p.Specs.p_name
  | Exact { name; _ } -> name
  | Faulty { name; _ } -> name
  | Aggregate { name; _ } -> name
  | Pooled { name; _ } -> name

let aggregate_of ?(cd = Channel.Strong_cd) proto =
  Aggregate { name = Jamming_sim.Aggregate.name proto; cd; proto }

let aggregate_lesk ?a ~eps () = aggregate_of (Jamming_core.Lesk.aggregate ?a ~eps ())
let aggregate_lesu ?config () = aggregate_of (Jamming_core.Lesu.aggregate ?config ())

(* The weak-CD notification protocols in flat-pool form (DESIGN.md §15).
   A pooled spec is the drop-in fast path for the corresponding Exact
   spec: it shares the Exact seed tags and cache keys below, which is
   sound because the pooled engine is bit-identical to the closure
   engine on every stream (test_notification.ml's pool ≡ oracle and
   station ≡ oracle properties). *)
let pooled_lewk ?(eps = 0.5) () =
  Pooled { name = "LEWK"; cd = Channel.Weak_cd; pool = Jamming_core.Lewk.pool ~eps () }

let pooled_lewu ?config () =
  Pooled { name = "LEWU"; cd = Channel.Weak_cd; pool = Jamming_core.Lewu.pool ?config () }

(* LMR (lib/core/lmr.ml): the log-logarithmic awake-time election.
   The closure factory needs the population size up front (the level
   cap is a function of n), so [exact_lmr] takes [n] and the caller
   must pass the same value in the setup. *)
let exact_lmr ~n =
  Exact { name = Jamming_core.Lmr.name; cd = Channel.Strong_cd;
          factory = Jamming_core.Lmr.station ~n }

let pooled_lmr () =
  Pooled { name = Jamming_core.Lmr.name; cd = Channel.Strong_cd;
           pool = Jamming_core.Lmr.pool }

let make_adversary (adversary : Specs.adversary) setup ~seed =
  adversary.Specs.a_make ~seed:(seed lxor 0x5bd1e995) ~n:setup.n ~eps:setup.eps
    ~window:setup.window ()

(* The fault set-up the Faulty engine and churned runs share: the
   lifecycle-plan stream, the sensing-noise injection and the monitor.
   Plans and noise get dedicated streams derived from the run seed, so
   adding or removing faults never perturbs the station or adversary
   streams. *)
let fault_rig ~faults ~monitor_checks setup ~seed =
  let stream derivation = Prng.create ~seed:(Prng.seed_of_string derivation) in
  let plan_rng = stream (Printf.sprintf "%d/faults/plans" seed) in
  let injection =
    Faults.Injection.create ~noise:faults.Faults.Config.perception
      ~rng:(stream (Printf.sprintf "%d/faults/noise" seed))
  in
  let checks =
    match monitor_checks with
    | Some c -> c
    | None ->
        (* The election safety property only holds under the paper's
           fault-free assumptions; engine-level invariants always do. *)
        if Faults.Config.is_null faults then Monitor.all_checks else Monitor.safety_checks
  in
  let monitor = Monitor.create ~checks ~seed ~window:setup.window ~eps:setup.eps () in
  (plan_rng, injection, monitor)

let run ?(observers = []) ?(energy = false) ~engine setup (adversary : Specs.adversary)
    ~seed =
  validate setup;
  let budget = Budget.create ~window:setup.window ~eps:setup.eps in
  (* Metering never touches a random stream, so the result (energy
     block aside) is bit-identical with or without it. *)
  let meter () =
    if energy then Some (Jamming_energy.Energy.Meter.create ~n:setup.n) else None
  in
  match engine with
  | Uniform protocol ->
      let rng = Prng.create ~seed in
      let (Jamming_sim.Aggregate.Packed protocol) =
        protocol.Specs.p_make ~n:setup.n ~window:setup.window
      in
      let adv = make_adversary adversary setup ~seed in
      Jamming_sim.Uniform_engine.run ~energy ~observers ~n:setup.n ~rng ~protocol
        ~adversary:adv ~budget ~max_slots:setup.max_slots ()
  | Exact { cd; factory; name = _ } ->
      let rng = Prng.create ~seed in
      let stations = Jamming_sim.Engine.make_stations ~n:setup.n ~rng factory in
      let adv = make_adversary adversary setup ~seed in
      Jamming_sim.Engine.run ?meter:(meter ()) ~observers ~cd ~adversary:adv ~budget
        ~max_slots:setup.max_slots ~stations ()
  | Faulty { cd; factory; faults; monitor_checks; name = _ } ->
      Faults.Config.validate faults;
      let rng = Prng.create ~seed in
      let stations = Jamming_sim.Engine.make_stations ~n:setup.n ~rng factory in
      let plan_rng, injection, monitor = fault_rig ~faults ~monitor_checks setup ~seed in
      let plans = Faults.Config.sample_plans faults ~rng:plan_rng ~n:setup.n in
      let stations = Faults.Config.wrap_stations plans stations in
      let adv = make_adversary adversary setup ~seed in
      Jamming_sim.Engine.run ?meter:(meter ())
        ~observers:(Monitor.observer monitor :: observers)
        ~faults:injection ~cd ~adversary:adv ~budget ~max_slots:setup.max_slots ~stations ()
  | Aggregate { cd; proto = Jamming_sim.Aggregate.Packed protocol; name = _ } ->
      let rng = Prng.create ~seed in
      let adv = make_adversary adversary setup ~seed in
      Jamming_sim.Aggregate.run ~energy ~observers ~cd ~rng ~n:setup.n ~protocol
        ~adversary:adv ~budget ~max_slots:setup.max_slots ()
  | Pooled { cd; pool; name = _ } ->
      let rng = Prng.create ~seed in
      let pool = pool ~n:setup.n ~rng in
      let adv = make_adversary adversary setup ~seed in
      Jamming_sim.Engine.run_pool ?meter:(meter ()) ~observers ~cd ~adversary:adv ~budget
        ~max_slots:setup.max_slots ~pool ()

type sample = {
  setup : setup;
  protocol_name : string;
  adversary_name : string;
  results : Metrics.result array;
}

(* Seed tags must stay exactly as the pre-observer runner derived them,
   per engine kind, so every published table remains reproducible. *)
let cell_tag ~engine ~(adversary : Specs.adversary) setup =
  match engine with
  | Uniform p ->
      Printf.sprintf "%s|%s|%d|%f|%d" p.Specs.p_name adversary.Specs.a_name setup.n
        setup.eps setup.window
  | Exact { name; _ } ->
      Printf.sprintf "exact|%s|%s|%d|%f|%d" name adversary.Specs.a_name setup.n setup.eps
        setup.window
  | Faulty { name; _ } ->
      Printf.sprintf "faulty|%s|%s|%d|%f|%d" name adversary.Specs.a_name setup.n setup.eps
        setup.window
  | Aggregate { name; _ } ->
      Printf.sprintf "aggregate|%s|%s|%d|%f|%d" name adversary.Specs.a_name setup.n
        setup.eps setup.window
  (* A pooled cell IS the corresponding exact cell, faster: per-rep
     seeds (and hence results) are shared with the closure engine. *)
  | Pooled { name; _ } ->
      Printf.sprintf "exact|%s|%s|%d|%f|%d" name adversary.Specs.a_name setup.n setup.eps
        setup.window

let recommended_jobs () =
  let from_env =
    match Sys.getenv_opt "JAMMING_JOBS" with
    | Some s -> int_of_string_opt (String.trim s)
    | None -> None
  in
  match from_env with
  | Some j when j >= 1 -> j
  | Some _ | None -> Int.max 1 (Domain.recommended_domain_count ())

let default_jobs = ref 1

(* Process default for [Cell.v]'s [?base_seed] — 42, the seed every
   published table was produced with.  The CLIs' [--seed] rebinds it so
   a whole sweep can be re-run under a fresh seed without threading an
   argument through every experiment. *)
let default_base_seed = ref 42

(* Process default for [Cell.v]'s [?energy] — the CLIs' [--energy]
   flips it so a whole sweep meters every (static) cell it builds.
   Only static cells pick the default up: churn cells cannot be metered
   and must keep working under a blanket --energy. *)
let default_energy = ref false

(* Process-default telemetry sink, used when [?telemetry] is omitted —
   the same pattern as [default_jobs]: a harness (sweep) installs a
   sink around a workload and experiment code stays oblivious. *)
let default_telemetry : Telemetry.t option ref = ref None

let set_telemetry t = default_telemetry := t

let with_telemetry tel f =
  let previous = !default_telemetry in
  default_telemetry := Some tel;
  Fun.protect ~finally:(fun () -> default_telemetry := previous) f

(* Aggregate a finished replication into the sink.  Folding the result
   array in index order (on the calling domain, after the join) makes
   the aggregate independent of [jobs]: counters and histograms are
   identical for jobs=1 and jobs=4; only the wall timer varies. *)
let record_sample tel (results : Metrics.result array) =
  let c name = Telemetry.counter tel ("runner." ^ name) in
  let runs = c "runs" and slots = c "slots" and jammed = c "jammed" in
  let nulls = c "null" and singles = c "single" and collisions = c "collision" in
  let completed = c "completed" and elected = c "elected" in
  let per_run = Telemetry.histogram tel "runner.slots_per_run" in
  Array.iter
    (fun (r : Metrics.result) ->
      Telemetry.incr runs;
      Telemetry.add slots r.Metrics.slots;
      Telemetry.add jammed r.Metrics.jammed_slots;
      Telemetry.add nulls r.Metrics.nulls;
      Telemetry.add singles r.Metrics.singles;
      Telemetry.add collisions r.Metrics.collisions;
      if r.Metrics.completed then Telemetry.incr completed;
      if Metrics.election_ok r then Telemetry.incr elected;
      Telemetry.observe per_run r.Metrics.slots;
      match r.Metrics.energy with
      | Some s -> Jamming_energy.Energy.observe_summary tel ~prefix:"runner.energy" s
      | None -> ())
    results

let slots sample =
  sample.results
  |> Array.to_list
  |> List.filter_map (fun r ->
         if r.Metrics.completed then Some (float_of_int r.Metrics.slots) else None)
  |> Array.of_list

let all_completed sample = Array.for_all (fun r -> r.Metrics.completed) sample.results

let success_rate sample =
  let ok = Array.fold_left (fun acc r -> if Metrics.election_ok r then acc + 1 else acc) 0 sample.results in
  float_of_int ok /. float_of_int (Array.length sample.results)

let median_slots sample =
  let xs = Array.map (fun r -> float_of_int r.Metrics.slots) sample.results in
  Jamming_stats.Descriptive.median xs

let mean_energy_per_station sample =
  let xs =
    Array.map
      (fun r -> r.Metrics.transmissions /. float_of_int sample.setup.n)
      sample.results
  in
  Jamming_stats.Descriptive.mean xs

(* Median over runs of the per-run median awake slots — the A9 growth
   metric.  Only metered runs contribute; nan when there are none. *)
let median_awake_slots sample =
  let xs =
    sample.results |> Array.to_list
    |> List.filter_map (fun (r : Metrics.result) ->
           Option.map
             (fun (s : Jamming_energy.Energy.summary) -> s.Jamming_energy.Energy.median_awake)
             r.Metrics.energy)
    |> Array.of_list
  in
  if Array.length xs = 0 then Float.nan else Jamming_stats.Descriptive.median xs

let median_jammed_fraction sample =
  let xs =
    Array.map
      (fun r ->
        if r.Metrics.slots = 0 then 0.0
        else float_of_int r.Metrics.jammed_slots /. float_of_int r.Metrics.slots)
      sample.results
  in
  Jamming_stats.Descriptive.median xs

let setup_to_json s =
  Json.Obj
    [
      ("n", Json.Int s.n);
      ("eps", Json.Float s.eps);
      ("window", Json.Int s.window);
      ("max_slots", Json.Int s.max_slots);
    ]

let sample_to_json ?(include_results = false) sample =
  let total_slots =
    Array.fold_left (fun acc r -> acc + r.Metrics.slots) 0 sample.results
  in
  Json.Obj
    ([
       ("protocol", Json.String sample.protocol_name);
       ("adversary", Json.String sample.adversary_name);
       ("setup", setup_to_json sample.setup);
       ("reps", Json.Int (Array.length sample.results));
       ("total_slots", Json.Int total_slots);
       ("success_rate", Json.Float (success_rate sample));
       ("median_slots", Json.Float (median_slots sample));
       ("mean_energy_per_station", Json.Float (mean_energy_per_station sample));
       ("median_jammed_fraction", Json.Float (median_jammed_fraction sample));
     ]
    (* Appended only for metered samples: unmetered digests stay
       byte-identical to the pre-energy schema. *)
    @ (let med = median_awake_slots sample in
       if Float.is_nan med then [] else [ ("median_awake", Json.Float med) ])
    @
    if include_results then
      [
        ( "results",
          Json.List (Array.to_list (Array.map Metrics.result_to_json sample.results)) );
      ]
    else [])

let setup_of_json j =
  let int k = Option.bind (Json.member k j) Json.to_int_opt in
  let flt k = Option.bind (Json.member k j) Json.to_float_opt in
  match (int "n", flt "eps", int "window", int "max_slots") with
  | Some n, Some eps, Some window, Some max_slots -> Ok { n; eps; window; max_slots }
  | _ -> Error "setup: missing or ill-typed field"

(* The part of a stored sample both sample kinds share: the names,
   the setup, the per-run results (decoded in order by [result_of_json])
   and the check that [reps] agrees with them.  [what] names the record
   in error messages. *)
let decode_sample ~what ~result_of_json j =
  let str k = Option.bind (Json.member k j) Json.to_string_opt in
  match
    ( str "protocol",
      str "adversary",
      Json.member "setup" j,
      Option.bind (Json.member "results" j) Json.to_list_opt )
  with
  | Some protocol_name, Some adversary_name, Some setup_json, Some result_jsons -> (
      match setup_of_json setup_json with
      | Error _ as e -> e
      | Ok setup -> (
          let rec decode acc = function
            | [] -> Ok (List.rev acc)
            | r :: tl -> (
                match result_of_json r with
                | Ok r -> decode (r :: acc) tl
                | Error _ as e -> e)
          in
          match decode [] result_jsons with
          | Error _ as e -> e
          | Ok results -> (
              let results = Array.of_list results in
              match Option.bind (Json.member "reps" j) Json.to_int_opt with
              | Some reps when reps <> Array.length results ->
                  Error (what ^ ": reps disagrees with the results array")
              | Some _ | None -> Ok (protocol_name, adversary_name, setup, results))))
  | _ -> Error (what ^ ": missing protocol/adversary/setup/results")

let sample_of_json j =
  Result.map
    (fun (protocol_name, adversary_name, setup, results) ->
      { setup; protocol_name; adversary_name; results })
    (decode_sample ~what:"sample" ~result_of_json:Metrics.result_of_json j)

(* --- the content-addressed run store (DESIGN.md §11) --- *)

(* Full-precision fault descriptor: the engine names baked into seed
   tags do NOT distinguish fault configurations (exp A6 reuses "LESK"
   across crash rates), so the cache key must.  Floats are rendered in
   hex — [Faults.Config.pp]'s %.3g would conflate nearby rates. *)
let faults_descriptor (f : Faults.Config.t) =
  let p = f.Faults.Config.perception in
  Printf.sprintf "perception=%h,%h,%h,%h;crash=%h@%d;sleep=%h@%d<=%d;wake=%h<=%d"
    p.Faults.Perception.p_null_to_collision p.Faults.Perception.p_single_to_collision
    p.Faults.Perception.p_collision_to_single p.Faults.Perception.p_collision_to_null
    f.Faults.Config.p_crash f.Faults.Config.crash_horizon f.Faults.Config.p_sleep
    f.Faults.Config.sleep_horizon f.Faults.Config.max_sleep f.Faults.Config.p_late_wake
    f.Faults.Config.max_wake_delay

(* The key fields every cell shares, static or churning: what runs,
   against whom, on which setup and seeds. *)
let key_fields ~engine ~cd ~(adversary : Specs.adversary) ~reps ~base_seed setup =
  [
    ("protocol", Key.S (engine_name engine));
    ("cd", Key.S (Channel.cd_model_to_string cd));
    ("adversary", Key.S adversary.Specs.a_name);
    ("n", Key.I setup.n);
    ("eps", Key.F setup.eps);
    ("window", Key.I setup.window);
    ("max_slots", Key.I setup.max_slots);
    ("reps", Key.I reps);
    ("base_seed", Key.I base_seed);
  ]

let faults_field = function
  | Faulty { faults; _ } -> [ ("faults", Key.S (faults_descriptor faults)) ]
  | Uniform _ | Exact _ | Aggregate _ | Pooled _ -> []

let cell_key ?(energy = false) ~engine ~adversary ~reps ~base_seed setup =
  let kind, cd =
    match engine with
    | Uniform _ -> ("uniform", Channel.Strong_cd)
    | Exact { cd; _ } -> ("exact", cd)
    | Faulty { cd; _ } -> ("faulty", cd)
    | Aggregate { cd; _ } -> ("aggregate", cd)
    (* Shares the exact kind: warm cache entries serve either engine,
       soundly, because the two are bit-identical per seed. *)
    | Pooled { cd; _ } -> ("exact", cd)
  in
  Key.v
    ((("kind", Key.S kind) :: key_fields ~engine ~cd ~adversary ~reps ~base_seed setup)
    (* Appended only when metering is on, so every pre-energy cache
       entry keeps its address byte-for-byte. *)
    @ (if energy then [ ("energy", Key.B true) ] else [])
    @ faults_field engine)

(* Process-default store, same pattern as [default_telemetry]: the
   CLIs install one under --cache and experiment code stays oblivious. *)
let default_store : Store.t option ref = ref None

let set_store s = default_store := s

let with_store st f =
  let previous = !default_store in
  default_store := Some st;
  Fun.protect ~finally:(fun () -> default_store := previous) f

(* --- churn cells: dynamic populations (DESIGN.md §12) --- *)

(* Under churn every engine kind runs through the exact engine's
   dynamic driver, which composes per-station factories (the
   O(1)-per-slot uniform path cannot represent a population that
   changes mid-run, so a [Uniform] spec is adapted per station).  This
   is the one check that rejects the engines churn cannot run: class
   counts cannot express per-station lifecycle events, and a pool's
   population is fixed at creation (churned weak-CD populations run
   the bit-identical station path instead).  [where] prefixes the
   error. *)
type churn_parts = {
  kind : string;  (* the store key's engine kind *)
  cd : Channel.cd_model;
  station : setup -> Jamming_station.Station.factory;
  faults : Faults.Config.t;
  monitor_checks : Monitor.checks option;
}

let churn_parts ~where = function
  | Uniform p ->
      {
        kind = "uniform";
        cd = Channel.Strong_cd;
        station =
          (fun setup ->
            let (Jamming_sim.Aggregate.Packed protocol) =
              p.Specs.p_make ~n:setup.n ~window:setup.window
            in
            Jamming_sim.Aggregate.distributed protocol);
        faults = Faults.Config.none;
        monitor_checks = None;
      }
  | Exact { cd; factory; _ } ->
      { kind = "exact"; cd; station = (fun _ -> factory); faults = Faults.Config.none;
        monitor_checks = None }
  | Faulty { cd; factory; faults; monitor_checks; _ } ->
      { kind = "faulty"; cd; station = (fun _ -> factory); faults; monitor_checks }
  | Aggregate _ -> invalid_arg (where ^ ": the aggregate engine does not support churn")
  | Pooled _ -> invalid_arg (where ^ ": the pooled engine does not support churn")

let run_churn ?(observers = []) ~engine ~churn ?restart_after setup adversary ~seed =
  validate setup;
  Faults.Churn.validate churn;
  (match restart_after with
  | Some r when r < 1 -> invalid_arg "Runner.run_churn: restart_after must be >= 1"
  | Some _ | None -> ());
  (* Checked before the null-churn shortcut, so a churn run accepts the
     same engines whatever its churn, as [Cell.v] does. *)
  let { cd; station; faults = faults_cfg; monitor_checks; kind = _ } =
    churn_parts ~where:"Runner" engine
  in
  if Faults.Churn.is_null churn && restart_after = None then
    (* Bit-identical to the static cell by construction: no churn stream
       is created and the underlying engine runs completely unchanged. *)
    Dynamic.of_static (run ~observers ~engine setup adversary ~seed)
  else begin
    let factory = station setup in
    Faults.Config.validate faults_cfg;
    let budget = Budget.create ~window:setup.window ~eps:setup.eps in
    (* Stream layout mirrors the Faulty engine exactly — station root,
       plan stream, noise stream — plus two churn-only streams, so the
       same seed with null churn reproduces the static run and adding
       churn never perturbs station or adversary randomness. *)
    let station_rng = Prng.create ~seed in
    let plan_rng, injection, monitor =
      fault_rig ~faults:faults_cfg ~monitor_checks setup ~seed
    in
    let spawn ~birth ~id =
      let st = factory ~id ~rng:(Prng.split station_rng) in
      (* Lifecycle faults are per-incarnation: each (re)spawned station
         draws a fresh plan, shifted to its birth slot. *)
      let plan = Faults.Config.sample_plan faults_cfg ~rng:plan_rng in
      if Faults.Fault_plan.is_null plan then st
      else Faults.Fault_plan.wrap (Faults.Fault_plan.shift plan ~by:birth) st
    in
    let schedule =
      Faults.Churn.sample_schedule churn
        ~rng:
          (Prng.create
             ~seed:(Prng.seed_of_string (Printf.sprintf "%d/churn/schedule" seed)))
    in
    let victim_rng =
      Prng.create ~seed:(Prng.seed_of_string (Printf.sprintf "%d/churn/victims" seed))
    in
    let adv = make_adversary adversary setup ~seed in
    Dynamic.run ?restart_after ~events:schedule ?kill:(Faults.Churn.kill_policy churn)
      ~victim_rng ~faults:injection ~monitor ~observers ~cd ~adversary:adv ~budget
      ~max_slots:setup.max_slots ~init:setup.n ~spawn ()
  end

type churn_sample = {
  c_setup : setup;
  c_protocol_name : string;
  c_adversary_name : string;
  c_churn : string;  (* Churn.descriptor *)
  c_results : Dynamic.result array;
}

let churn_mean f cs =
  let xs = Array.map (fun r -> float_of_int (f r)) cs.c_results in
  Jamming_stats.Descriptive.mean xs

let mean_elections_completed cs = churn_mean (fun r -> r.Dynamic.elections_completed) cs
let mean_leaderless_slots cs = churn_mean (fun r -> r.Dynamic.leaderless_slots) cs

let max_leaderless_interval cs =
  Array.fold_left
    (fun acc r -> List.fold_left Int.max acc r.Dynamic.leaderless_intervals)
    0 cs.c_results

let healed_rate cs =
  (* A run "healed" when it ends with a live leader — or with nobody
     left to lead. *)
  let ok =
    Array.fold_left
      (fun acc r ->
        if r.Dynamic.final_leader <> None || r.Dynamic.final_population = 0 then acc + 1
        else acc)
      0 cs.c_results
  in
  float_of_int ok /. float_of_int (Array.length cs.c_results)

let churn_sample_to_json ?(include_results = false) cs =
  Json.Obj
    ([
       ("protocol", Json.String cs.c_protocol_name);
       ("adversary", Json.String cs.c_adversary_name);
       ("churn", Json.String cs.c_churn);
       ("setup", setup_to_json cs.c_setup);
       ("reps", Json.Int (Array.length cs.c_results));
       ("mean_elections", Json.Float (mean_elections_completed cs));
       ("mean_leaderless_slots", Json.Float (mean_leaderless_slots cs));
       ("max_leaderless_interval", Json.Int (max_leaderless_interval cs));
       ("healed_rate", Json.Float (healed_rate cs));
     ]
    @
    if include_results then
      [
        ( "results",
          Json.List (Array.to_list (Array.map Dynamic.result_to_json cs.c_results)) );
      ]
    else [])

let churn_sample_of_json j =
  match Option.bind (Json.member "churn" j) Json.to_string_opt with
  | None -> Error "churn sample: missing churn"
  | Some c_churn ->
      Result.map
        (fun (c_protocol_name, c_adversary_name, c_setup, c_results) ->
          { c_setup; c_protocol_name; c_adversary_name; c_churn; c_results })
        (decode_sample ~what:"churn sample" ~result_of_json:Dynamic.result_of_json j)

let churn_cell_key ~engine ~adversary ~churn ~restart_after ~reps ~base_seed setup =
  let { kind; cd; _ } = churn_parts ~where:"Runner" engine in
  Key.v
    ([ ("kind", Key.S "churn"); ("engine", Key.S kind) ]
    @ key_fields ~engine ~cd ~adversary ~reps ~base_seed setup
    @ [
        ("churn", Key.S (Faults.Churn.descriptor churn));
        (* [restart_after] is validated >= 1, so 0 injectively encodes
           "no restart deadline". *)
        ("restart_after", Key.I (Option.value restart_after ~default:0));
      ]
    @ faults_field engine)

let record_churn_sample tel (results : Dynamic.result array) =
  let c name = Telemetry.counter tel ("runner.churn." ^ name) in
  let runs = c "runs" and slots = c "slots" and elections = c "elections" in
  let failures = c "failures" and re_elections = c "re_elections" in
  let arrivals = c "arrivals" and departures = c "departures" in
  let kills = c "leader_kills" and leaderless = c "leaderless" in
  let per_run = Telemetry.histogram tel "runner.churn.leaderless_per_run" in
  Array.iter
    (fun (r : Dynamic.result) ->
      Telemetry.incr runs;
      Telemetry.add slots r.Dynamic.total_slots;
      Telemetry.add elections r.Dynamic.elections_completed;
      Telemetry.add failures r.Dynamic.elections_failed;
      Telemetry.add re_elections r.Dynamic.re_elections;
      Telemetry.add arrivals r.Dynamic.arrivals;
      Telemetry.add departures r.Dynamic.departures;
      Telemetry.add kills r.Dynamic.leader_kills;
      Telemetry.add leaderless r.Dynamic.leaderless_slots;
      Telemetry.observe per_run r.Dynamic.leaderless_slots)
    results

(* --- the Cell: one unit of scheduling, seeding, and caching --- *)

module Cell = struct
  type population =
    | Static
    | Churning of { churn : Faults.Churn.t; restart_after : int option }

  type t = {
    engine : engine;
    setup : setup;
    adversary : Specs.adversary;
    population : population;
    reps : int;
    base_seed : int;
    energy : bool;
  }

  let validate_cell c =
    validate c.setup;
    if c.reps < 1 then invalid_arg "Runner.Cell: reps must be >= 1";
    match c.population with
    | Static -> ()
    | Churning { churn; restart_after } -> (
        if c.energy then
          (* Segments cannot attribute awake slots across incarnations
             of a station id, so a churn-run energy block would lie. *)
          invalid_arg "Runner.Cell: energy accounting does not support churn";
        ignore (churn_parts ~where:"Runner.Cell" c.engine : churn_parts);
        Faults.Churn.validate churn;
        match restart_after with
        | Some r when r < 1 -> invalid_arg "Runner.Cell: restart_after must be >= 1"
        | Some _ | None -> ())

  let v ?base_seed ?churn ?restart_after ?energy ~engine ~reps setup adversary
      =
    let base_seed =
      match base_seed with Some s -> s | None -> !default_base_seed
    in
    let population =
      match (churn, restart_after) with
      | None, None -> Static
      | churn, restart_after ->
          Churning
            { churn = Option.value churn ~default:Faults.Churn.none; restart_after }
    in
    let energy =
      match energy with
      | Some e -> e
      | None -> !default_energy && population = Static
    in
    let c = { engine; setup; adversary; population; reps; base_seed; energy } in
    validate_cell c;
    c

  (* The static cell's tag, for every population: a null-churn cell
     replays the exact seeds (hence results) of its static twin. *)
  let tag c = cell_tag ~engine:c.engine ~adversary:c.adversary c.setup

  let seed c ~rep = Prng.seed_stream ~base:c.base_seed ~tag:(tag c) rep

  let key c =
    match c.population with
    | Static ->
        cell_key ~energy:c.energy ~engine:c.engine ~adversary:c.adversary ~reps:c.reps
          ~base_seed:c.base_seed c.setup
    | Churning { churn; restart_after } ->
        churn_cell_key ~engine:c.engine ~adversary:c.adversary ~churn ~restart_after
          ~reps:c.reps ~base_seed:c.base_seed c.setup

  let pp ppf c =
    Format.fprintf ppf "%s x %s [%a] reps=%d seed=%d" (engine_name c.engine)
      c.adversary.Specs.a_name pp_setup c.setup c.reps c.base_seed;
    if c.energy then Format.fprintf ppf " energy";
    match c.population with
    | Static -> ()
    | Churning { churn; restart_after } ->
        Format.fprintf ppf " churn=%s" (Faults.Churn.descriptor churn);
        (match restart_after with
        | Some r -> Format.fprintf ppf " restart_after=%d" r
        | None -> ())

  let validate = validate_cell
end

type outcome = Sample of sample | Churned of churn_sample

(* --- the work-stealing domain pool --- *)

module Pool = struct
  type t = { jobs : int }

  let create ?jobs () =
    let jobs = match jobs with Some j -> j | None -> !default_jobs in
    if jobs < 1 then invalid_arg "Runner.Pool.create: jobs must be >= 1";
    { jobs }

  let jobs p = p.jobs
end

(* A cell in flight: every replication writes its own slot, so the
   partitioning of reps over domains cannot affect the result. *)
type slots =
  | Static_slots of Metrics.result option array
  | Churn_slots of Dynamic.result option array

type pending = { p_cell : Cell.t; p_slots : slots }

let make_pending (c : Cell.t) =
  let slots =
    match c.Cell.population with
    | Cell.Static -> Static_slots (Array.make c.Cell.reps None)
    | Cell.Churning _ -> Churn_slots (Array.make c.Cell.reps None)
  in
  { p_cell = c; p_slots = slots }

let compute_rep pending rep =
  let c = pending.p_cell in
  let seed = Cell.seed c ~rep in
  match (c.Cell.population, pending.p_slots) with
  | Cell.Static, Static_slots slots ->
      slots.(rep) <-
        Some
          (run ~energy:c.Cell.energy ~engine:c.Cell.engine c.Cell.setup c.Cell.adversary
             ~seed)
  | Cell.Churning { churn; restart_after }, Churn_slots slots ->
      slots.(rep) <-
        Some
          (run_churn ~engine:c.Cell.engine ~churn ?restart_after c.Cell.setup
             c.Cell.adversary ~seed)
  | Cell.Static, Churn_slots _ | Cell.Churning _, Static_slots _ -> assert false

(* A task is a contiguous slice of one cell's replications.  The pool
   steals at cell granularity; cells whose reps dwarf the fair share
   are pre-split into slices so one giant cell cannot serialise the
   tail of a sweep. *)
type task = { t_pending : pending; t_lo : int; t_hi : int }

let tasks_of_pending ~jobs pending =
  let reps = pending.p_cell.Cell.reps in
  (* Aim for ~4 slices per domain across the cell: small cells stay
     whole (one steal moves the entire cell), big ones split. *)
  let chunk = Int.max 1 ((reps + (4 * jobs) - 1) / (4 * jobs)) in
  let rec slices lo acc =
    if lo >= reps then List.rev acc
    else
      let hi = Int.min reps (lo + chunk) in
      slices hi ({ t_pending = pending; t_lo = lo; t_hi = hi } :: acc)
  in
  slices 0 []

let exec_task t =
  for rep = t.t_lo to t.t_hi - 1 do
    compute_rep t.t_pending rep
  done

(* One mutex-protected deque per worker over a fixed task array: the
   owner pops the bottom, thieves take the top.  No task ever spawns
   another, so "every deque empty" is a sound termination test — tasks
   still in flight are owned by the domain executing them. *)
type deque = {
  d_tasks : task array;
  mutable d_top : int;
  mutable d_bottom : int;
  d_lock : Mutex.t;
}

let deque_of_tasks tasks =
  let arr = Array.of_list tasks in
  { d_tasks = arr; d_top = 0; d_bottom = Array.length arr; d_lock = Mutex.create () }

let with_lock m f =
  Mutex.lock m;
  Fun.protect ~finally:(fun () -> Mutex.unlock m) f

let deque_pop d =
  with_lock d.d_lock (fun () ->
      if d.d_top < d.d_bottom then begin
        d.d_bottom <- d.d_bottom - 1;
        Some d.d_tasks.(d.d_bottom)
      end
      else None)

let deque_steal d =
  with_lock d.d_lock (fun () ->
      if d.d_top < d.d_bottom then begin
        let t = d.d_tasks.(d.d_top) in
        d.d_top <- d.d_top + 1;
        Some t
      end
      else None)

(* Run every task to completion on [jobs] domains (the caller is worker
   0).  The first exception wins: it drains the pool (workers stop
   taking tasks) and is re-raised on the caller with its backtrace. *)
let run_tasks ~jobs tasks =
  if jobs = 1 then List.iter exec_task tasks
  else begin
    let buckets = Array.make jobs [] in
    List.iteri (fun i t -> buckets.(i mod jobs) <- t :: buckets.(i mod jobs)) tasks;
    let deques = Array.map (fun b -> deque_of_tasks (List.rev b)) buckets in
    let failed = Atomic.make false in
    let fail_lock = Mutex.create () in
    let failure = ref None in
    let record_failure exn bt =
      with_lock fail_lock (fun () ->
          match !failure with
          | None -> failure := Some (exn, bt)
          | Some _ -> ());
      Atomic.set failed true
    in
    let worker w () =
      let rec steal i =
        if i >= jobs then None
        else
          match deque_steal deques.((w + i) mod jobs) with
          | Some _ as t -> t
          | None -> steal (i + 1)
      in
      let rec loop () =
        if not (Atomic.get failed) then
          match
            (match deque_pop deques.(w) with Some _ as t -> t | None -> steal 1)
          with
          | Some t ->
              (try exec_task t
               with exn -> record_failure exn (Printexc.get_raw_backtrace ()));
              loop ()
          | None -> ()
      in
      loop ()
    in
    let domains = List.init (jobs - 1) (fun i -> Domain.spawn (worker (i + 1))) in
    worker 0 ();
    List.iter Domain.join domains;
    match !failure with
    | Some (exn, bt) -> Printexc.raise_with_backtrace exn bt
    | None -> ()
  end

let finish_pending pending =
  let c = pending.p_cell in
  let force = function Some r -> r | None -> assert false in
  match (c.Cell.population, pending.p_slots) with
  | Cell.Static, Static_slots slots ->
      Sample
        {
          setup = c.Cell.setup;
          protocol_name = engine_name c.Cell.engine;
          adversary_name = c.Cell.adversary.Specs.a_name;
          results = Array.map force slots;
        }
  | Cell.Churning { churn; _ }, Churn_slots slots ->
      Churned
        {
          c_setup = c.Cell.setup;
          c_protocol_name = engine_name c.Cell.engine;
          c_adversary_name = c.Cell.adversary.Specs.a_name;
          c_churn = Faults.Churn.descriptor churn;
          c_results = Array.map force slots;
        }
  | Cell.Static, Churn_slots _ | Cell.Churning _, Static_slots _ -> assert false

(* Decode defensively: a record that decodes but describes a different
   cell than requested (possible only through tampering or a hash
   collision) is a miss, not a wrong answer. *)
let lookup_cell st ~telemetry (c : Cell.t) =
  let key = Cell.key c in
  match c.Cell.population with
  | Cell.Static ->
      let decode json =
        match sample_of_json json with
        | Ok s
          when s.setup = c.Cell.setup
               && s.protocol_name = engine_name c.Cell.engine
               && s.adversary_name = c.Cell.adversary.Specs.a_name
               && Array.length s.results = c.Cell.reps
               && ((not c.Cell.energy)
                  || Array.for_all (fun r -> r.Metrics.energy <> None) s.results) ->
            Some (Sample s)
        | Ok _ | Error _ -> None
      in
      Store.find ?telemetry st key ~decode
  | Cell.Churning { churn; _ } ->
      let decode json =
        match churn_sample_of_json json with
        | Ok s
          when s.c_setup = c.Cell.setup
               && s.c_protocol_name = engine_name c.Cell.engine
               && s.c_adversary_name = c.Cell.adversary.Specs.a_name
               && s.c_churn = Faults.Churn.descriptor churn
               && Array.length s.c_results = c.Cell.reps ->
            Some (Churned s)
        | Ok _ | Error _ -> None
      in
      Store.find ?telemetry st key ~decode

let outcome_to_json = function
  | Sample s -> sample_to_json ~include_results:true s
  | Churned cs -> churn_sample_to_json ~include_results:true cs

let record_outcome tel = function
  | Sample s -> record_sample tel s.results
  | Churned cs -> record_churn_sample tel cs.c_results

let run_cells ?telemetry ?store pool cells =
  let jobs = Pool.jobs pool in
  let tel = match telemetry with Some t -> Some t | None -> !default_telemetry in
  let store = match store with Some _ as s -> s | None -> !default_store in
  List.iter Cell.validate_cell cells;
  (* Store lookups happen on the calling domain, in cell order, before
     any compute — the store (plain files + atomic renames) stays
     single-domain and lookup traffic is deterministic. *)
  let entries =
    List.map
      (fun c ->
        match store with
        | None -> Either.Right (make_pending c)
        | Some st -> (
            match lookup_cell st ~telemetry:tel c with
            | Some outcome -> Either.Left outcome
            | None -> Either.Right (make_pending c)))
      cells
  in
  let pendings = List.filter_map (function Either.Right p -> Some p | Either.Left _ -> None) entries in
  (* Compute every miss on the pool.  Tasks are dealt round-robin and
     then work-stolen; each replication writes a dedicated slot with a
     seed derived only from (cell, rep), so the outcome is bit-identical
     for every [jobs] — only the wall timer below varies. *)
  (match pendings with
  | [] -> ()
  | _ :: _ ->
      let tasks = List.concat_map (tasks_of_pending ~jobs) pendings in
      let wall =
        match tel with Some t -> Some (Telemetry.timer t "runner.wall") | None -> None
      in
      (match wall with Some w -> Telemetry.start w | None -> ());
      Fun.protect
        ~finally:(fun () -> match wall with Some w -> Telemetry.stop w | None -> ())
        (fun () -> run_tasks ~jobs tasks));
  (* Assemble in cell order: telemetry aggregation and store writes fold
     on the calling domain, so the aggregate is independent of [jobs]. *)
  List.map
    (fun entry ->
      let outcome =
        match entry with
        | Either.Left outcome -> outcome
        | Either.Right pending ->
            let outcome = finish_pending pending in
            (match store with
            | Some st ->
                Store.add ?telemetry:tel st (Cell.key pending.p_cell)
                  (outcome_to_json outcome)
            | None -> ());
            outcome
      in
      (match tel with Some t -> record_outcome t outcome | None -> ());
      outcome)
    entries

(* --- the replicate shims: one cell on a private pool --- *)

let replicate ?jobs ?base_seed ?telemetry ?store ?energy ~engine ~reps setup adversary =
  let cell = Cell.v ?base_seed ?energy ~engine ~reps setup adversary in
  match run_cells ?telemetry ?store (Pool.create ?jobs ()) [ cell ] with
  | [ Sample s ] -> s
  | _ -> assert false

let replicate_churn ?jobs ?base_seed ?telemetry ?store ~engine ~churn ?restart_after
    ~reps setup adversary =
  let cell = Cell.v ?base_seed ~churn ?restart_after ~engine ~reps setup adversary in
  match run_cells ?telemetry ?store (Pool.create ?jobs ()) [ cell ] with
  | [ Churned cs ] -> cs
  | _ -> assert false
