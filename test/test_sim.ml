open Test_util

(* A station driven by a fixed script of actions; terminates when the
   script runs out. *)
let scripted ?(status = Station.Non_leader) script ~id ~rng:_ =
  let step = ref 0 in
  {
    Station.id;
    decide =
      (fun ~slot:_ ->
        let a = script.(!step) in
        incr step;
        a);
    observe = (fun ~slot:_ ~perceived:_ ~transmitted:_ -> ());
    status = (fun () -> if !step >= Array.length script then status else Station.Undecided);
    finished = (fun () -> !step >= Array.length script);
  }

let t = Station.Transmit
let l = Station.Listen

let test_exact_engine_states () =
  (* Two stations with known scripts; record what the channel did. *)
  let states = ref [] in
  let factory ~id ~rng =
    let scripts = [| [| t; l; t; l |]; [| l; l; t; l |] |] in
    scripted scripts.(id) ~id ~rng
  in
  let rng = rng () in
  let stations = Engine.make_stations ~n:2 ~rng factory in
  let budget = Budget.create ~window:4 ~eps:1.0 in
  let result =
    Engine.run
      ~observers:
        [ Jamming_sim.Observer.of_on_slot (fun r -> states := r.Metrics.state :: !states) ]
      ~cd:Channel.Strong_cd ~adversary:(Adversary.none ()) ~budget ~max_slots:100 ~stations ()
  in
  Alcotest.(check (list state_testable))
    "slot states follow the scripts"
    [ Channel.Single; Channel.Null; Channel.Collision; Channel.Null ]
    (List.rev !states);
  check_int "four slots" 4 result.Metrics.slots;
  check_true "completed" result.Metrics.completed;
  check_int "singles counted" 1 result.Metrics.singles;
  check_int "nulls counted" 2 result.Metrics.nulls;
  check_int "collisions counted" 1 result.Metrics.collisions;
  check_float "transmissions counted" 3.0 result.Metrics.transmissions;
  check_int "max per-station tx" 2 result.Metrics.max_station_transmissions

let test_exact_engine_max_slots () =
  (* A station that never finishes. *)
  let factory ~id ~rng:_ =
    {
      Station.id;
      decide = (fun ~slot:_ -> Station.Listen);
      observe = (fun ~slot:_ ~perceived:_ ~transmitted:_ -> ());
      status = (fun () -> Station.Undecided);
      finished = (fun () -> false);
    }
  in
  let rng = rng () in
  let stations = Engine.make_stations ~n:3 ~rng factory in
  let budget = Budget.create ~window:4 ~eps:0.5 in
  let result =
    Engine.run ~cd:Channel.Strong_cd ~adversary:(Adversary.none ()) ~budget ~max_slots:57
      ~stations ()
  in
  check_int "stopped at cap" 57 result.Metrics.slots;
  check_true "not completed" (not result.Metrics.completed);
  check_true "not elected" (not result.Metrics.elected)

let test_jam_turns_single_into_collision () =
  (* One lone transmitter + greedy jammer with a permissive budget: the
     observed state is Collision while jams last. *)
  let states = ref [] in
  let factory ~id ~rng:_ = scripted [| t; t; t; t |] ~id ~rng:(rng ()) in
  let rng2 = rng () in
  let stations = Engine.make_stations ~n:1 ~rng:rng2 factory in
  let budget = Budget.create ~window:4 ~eps:0.5 in
  let result =
    Engine.run
      ~observers:
        [
          Jamming_sim.Observer.of_on_slot (fun r ->
              states := (r.Metrics.jammed, r.Metrics.state) :: !states);
        ]
      ~cd:Channel.Strong_cd
      ~adversary:(Adversary.greedy ())
      ~budget ~max_slots:100 ~stations ()
  in
  (match List.rev !states with
  | (true, Channel.Collision) :: (true, Channel.Collision) :: (false, Channel.Single) :: _ ->
      ()
  | other ->
      Alcotest.failf "unexpected jam pattern (%d records)" (List.length other));
  check_int "two jams charged" 2 result.Metrics.jammed_slots

let test_budget_violations_impossible () =
  (* Even an adversary that always says yes cannot exceed the budget. *)
  let factory ~id ~rng:_ = scripted (Array.make 200 l) ~id ~rng:(rng ()) in
  let rng2 = rng () in
  let stations = Engine.make_stations ~n:2 ~rng:rng2 factory in
  let budget = Budget.create ~window:8 ~eps:0.25 in
  let result =
    Engine.run ~cd:Channel.Strong_cd
      ~adversary:(Adversary.greedy ())
      ~budget ~max_slots:200 ~stations ()
  in
  check_true "jammed at most (1-eps) fraction plus slack"
    (float_of_int result.Metrics.jammed_slots <= (0.75 *. 200.0) +. 8.0)

let test_election_ok () =
  let mk statuses completed =
    {
      Metrics.slots = 10;
      completed;
      elected = completed;
      leader = None;
      statuses;
      jammed_slots = 0;
      nulls = 0;
      singles = 0;
      collisions = 0;
      transmissions = 0.0;
      max_station_transmissions = 0;
      energy = None;
    }
  in
  check_true "single leader ok"
    (Metrics.election_ok (mk [| Station.Leader; Station.Non_leader |] true));
  check_true "two leaders bad"
    (not (Metrics.election_ok (mk [| Station.Leader; Station.Leader |] true)));
  check_true "undecided bad"
    (not (Metrics.election_ok (mk [| Station.Leader; Station.Undecided |] true)));
  check_true "no leader bad"
    (not (Metrics.election_ok (mk [| Station.Non_leader; Station.Non_leader |] true)));
  check_true "incomplete bad"
    (not (Metrics.election_ok (mk [| Station.Leader; Station.Non_leader |] false)))

(* --- active-set engine vs reference oracle --- *)

module Observer = Jamming_sim.Observer
module Config = Jamming_faults.Config
module Injection = Jamming_faults.Injection

let test_timeout_with_standing_leader () =
  (* Station 0 crowns itself immediately but nobody ever finishes: the
     run hits max_slots with exactly one standing leader.  The result
     must NOT claim a leader for an election that never completed. *)
  let factory ~id ~rng:_ =
    {
      Station.id;
      decide = (fun ~slot:_ -> Station.Listen);
      observe = (fun ~slot:_ ~perceived:_ ~transmitted:_ -> ());
      status = (fun () -> if id = 0 then Station.Leader else Station.Undecided);
      finished = (fun () -> false);
    }
  in
  let active ~cd ~adversary ~budget ~max_slots ~stations () =
    Engine.run ~cd ~adversary ~budget ~max_slots ~stations ()
  in
  let oracle ~cd ~adversary ~budget ~max_slots ~stations () =
    Reference_engine.run ~cd ~adversary ~budget ~max_slots ~stations ()
  in
  let go run =
    let stations = Engine.make_stations ~n:3 ~rng:(rng ()) factory in
    run ~cd:Channel.Strong_cd ~adversary:(Adversary.none ())
      ~budget:(Budget.create ~window:4 ~eps:0.5) ~max_slots:5 ~stations ()
  in
  List.iter
    (fun (name, run) ->
      let r = go run in
      check_true (name ^ ": not completed") (not r.Metrics.completed);
      check_true (name ^ ": not elected") (not r.Metrics.elected);
      check_true (name ^ ": no leader reported") (r.Metrics.leader = None);
      Alcotest.check status_testable
        (name ^ ": the standing status is still visible")
        Station.Leader r.Metrics.statuses.(0))
    [ ("active-set", active); ("reference", oracle) ]

(* One run through either engine entry point, everything rebuilt from
   the seed: stations, adversary, budget, fault plans and sensing noise
   (mirroring Runner's dedicated fault streams), plus a needs_leaders
   observer logging every slot record and leader count, and optionally
   the online monitor (safety checks, which hold under faults) notified
   ahead of it. *)
let run_active ?faults ~observers ~cd ~adversary ~budget ~max_slots ~stations () =
  Engine.run ?faults ~observers ~cd ~adversary ~budget ~max_slots ~stations ()

let run_oracle ?faults ~observers ~cd ~adversary ~budget ~max_slots ~stations () =
  Reference_engine.run ?faults ~observers ~cd ~adversary ~budget ~max_slots ~stations ()

let equivalence_run ?(monitored = false) engine_run ~seed ~n ~faulty factory =
  let log = ref [] in
  let recording =
    Observer.make ~name:"rec" ~needs_leaders:true
      ~on_slot:(fun r ~leaders ->
        log :=
          (r.Metrics.slot, r.Metrics.transmitters, r.Metrics.jammed, r.Metrics.state, leaders)
          :: !log)
      ()
  in
  let g = Prng.create ~seed in
  let stations = Engine.make_stations ~n ~rng:g factory in
  let stations, faults =
    if not faulty then (stations, None)
    else begin
      let plans =
        Config.sample_plans heavy_faults ~rng:(Prng.create ~seed:(seed lxor 0x9e3779b9)) ~n
      in
      let injection =
        Injection.create ~noise:heavy_faults.Config.perception
          ~rng:(Prng.create ~seed:(seed lxor 0x85ebca6b))
      in
      (Config.wrap_stations plans stations, Some injection)
    end
  in
  let budget = Budget.create ~window:16 ~eps:0.5 in
  let monitor =
    if monitored then
      [
        Jamming_sim.Monitor.observer
          (Jamming_sim.Monitor.create ~checks:Jamming_sim.Monitor.safety_checks ~seed
             ~window:16 ~eps:0.5 ());
      ]
    else []
  in
  let result =
    engine_run ?faults ~observers:(monitor @ [ recording ]) ~cd:Channel.Strong_cd
      ~adversary:(Adversary.greedy ()) ~budget ~max_slots:50_000 ~stations ()
  in
  (result, List.rev !log)

let prop_active_set_matches_reference =
  qtest ~count:40
    "active-set engine bit-identical to reference (faults, observers, leader counts)"
    QCheck.(quad (int_range 2 40) small_int bool bool)
    (fun (n, seed, faulty, monitored) ->
      let factory = Jamming_core.Lesk.station ~eps:0.5 in
      let r, log = equivalence_run ~monitored run_active ~seed ~n ~faulty factory in
      let r', log' = equivalence_run ~monitored run_oracle ~seed ~n ~faulty factory in
      Metrics.equal_result r r' && log = log')

let test_active_set_matches_reference_staggered () =
  (* Heterogeneous early finishers: station i retires after i+1 slots,
     so the active set shrinks every slot while the reference still
     scans all n.  Statuses flip to Non_leader exactly at retirement,
     exercising the incremental leader-count bookkeeping on every
     transition. *)
  let staggered ~id ~rng:_ =
    let steps = ref 0 in
    {
      Station.id;
      decide =
        (fun ~slot:_ ->
          incr steps;
          if !steps = id + 1 then Station.Transmit else Station.Listen);
      observe = (fun ~slot:_ ~perceived:_ ~transmitted:_ -> ());
      status = (fun () -> if !steps > id then Station.Non_leader else Station.Undecided);
      finished = (fun () -> !steps > id);
    }
  in
  List.iter
    (fun seed ->
      let r, log = equivalence_run run_active ~seed ~n:32 ~faulty:false staggered in
      let r', log' = equivalence_run run_oracle ~seed ~n:32 ~faulty:false staggered in
      check_true "results identical" (Metrics.equal_result r r');
      check_true "slot logs identical" (log = log');
      check_int "all stations retired" 32 r.Metrics.slots)
    [ 1; 2; 3 ]

(* --- uniform engine --- *)

let constant_p p =
  {
    Aggregate.name = "const";
    init = ();
    tx_prob = (fun () -> p);
    step =
      (fun () state ->
        if Channel.equal_state state Channel.Single then Aggregate.Elected
        else Aggregate.Continue ());
    compare = Unit.compare;
  }

let test_uniform_engine_many_is_lower_bound () =
  (* p = 1 with n >= 2: every slot lands in the Many trichotomy class.
     Only the class is sampled, so the record must say "at least 2"
     rather than fabricate an exact 2 — and the monitor's consistency
     check must accept the honest encoding. *)
  let records = ref [] in
  let mon = Jamming_sim.Monitor.create ~window:4 ~eps:0.5 () in
  let obs =
    Observer.make ~name:"rec" ~on_slot:(fun r ~leaders:_ -> records := r :: !records) ()
  in
  let g = rng () in
  let budget = Budget.create ~window:4 ~eps:0.5 in
  let (_ : Metrics.result) =
    Uniform_engine.run
      ~observers:[ Jamming_sim.Monitor.observer mon; obs ]
      ~n:8 ~rng:g ~protocol:(constant_p 1.0) ~adversary:(Adversary.none ()) ~budget
      ~max_slots:5 ()
  in
  check_int "five slots recorded" 5 (List.length !records);
  check_true "every Many slot is recorded as >=2"
    (List.for_all
       (fun r -> Metrics.equal_tx_count r.Metrics.transmitters (Metrics.At_least 2))
       !records);
  check_int "monitor accepted every record" 5 (Jamming_sim.Monitor.slots_seen mon);
  (* The 0 and 1 classes stay exact. *)
  let records0 = ref [] in
  let (_ : Metrics.result) =
    Uniform_engine.run
      ~observers:[ Observer.of_on_slot (fun r -> records0 := r :: !records0) ]
      ~n:8 ~rng:g ~protocol:(constant_p 0.0) ~adversary:(Adversary.none ()) ~budget
      ~max_slots:3 ()
  in
  check_true "Zero class stays Exact 0"
    (List.for_all
       (fun r -> Metrics.equal_tx_count r.Metrics.transmitters (Metrics.Exact 0))
       !records0)

let test_uniform_engine_elects () =
  let result = run_uniform ~n:64 (constant_p (1.0 /. 64.0)) in
  check_true "elected" result.Metrics.elected;
  check_true "leader id in range"
    (match result.Metrics.leader with Some i -> i >= 0 && i < 64 | None -> false);
  check_int "one single" 1 result.Metrics.singles

let test_uniform_engine_p_zero_never_elects () =
  let result = run_uniform ~n:16 ~max_slots:500 (constant_p 0.0) in
  check_true "never elects at p=0" (not result.Metrics.elected);
  check_int "all slots Null" 500 result.Metrics.nulls

let test_uniform_engine_rejects_bad_p () =
  Alcotest.check_raises "p > 1 rejected"
    (Invalid_argument "Uniform_engine.run: protocol emitted a probability outside [0, 1]")
    (fun () -> ignore (run_uniform ~n:4 ~max_slots:5 (constant_p 1.5)))

let test_uniform_engine_energy_expectation () =
  let result = run_uniform ~n:100 ~max_slots:50 (constant_p 0.0) in
  check_float "zero expected energy at p=0" 0.0 result.Metrics.transmissions;
  let r2 = run_uniform ~n:10 ~max_slots:1 (constant_p 0.5) in
  check_float "energy = n*p per slot" 5.0 r2.Metrics.transmissions

let test_uniform_engine_determinism () =
  let r1 = run_uniform ~seed:11 ~n:256 (constant_p 0.01) in
  let r2 = run_uniform ~seed:11 ~n:256 (constant_p 0.01) in
  check_int "same slots for same seed" r1.Metrics.slots r2.Metrics.slots;
  let r3 = run_uniform ~seed:12 ~n:256 (constant_p 0.01) in
  ignore r3

let test_engines_agree_on_means () =
  (* LESK at small n: means of both engines within 20%. *)
  let reps = 120 in
  let eps = 0.5 in
  let sum_fast = ref 0.0 and sum_exact = ref 0.0 in
  for i = 1 to reps do
    let rf = run_uniform ~seed:(1000 + i) ~n:16 (Jamming_core.Lesk.protocol ~eps ()) in
    sum_fast := !sum_fast +. float_of_int rf.Metrics.slots;
    let re = run_exact ~seed:(2000 + i) ~n:16 (Jamming_core.Lesk.station ~eps) in
    sum_exact := !sum_exact +. float_of_int re.Metrics.slots
  done;
  let mf = !sum_fast /. float_of_int reps and me = !sum_exact /. float_of_int reps in
  check_true
    (Printf.sprintf "engine means agree (fast %.1f vs exact %.1f)" mf me)
    (mf /. me < 1.25 && me /. mf < 1.25)

(* Wrap one shared-logic instance as per-station closures: every
   station draws its own transmit coin but the protocol state is
   advanced once per slot, by whichever station observes it first (the
   engine goes in id order).  Valid in strong-CD, where all stations
   perceive the same state; the factory serves stations 0 .. n−1 of a
   single run. *)
let to_station (shared : Closure.t) : Station.factory =
  let advanced_slot = ref (-1) in
  let last_outcome = ref Closure.Continue in
  fun ~id ~rng ->
    let status = ref Station.Undecided in
    let finished = ref false in
    let decide ~slot:_ =
      let p = shared.Closure.tx_prob () in
      if Prng.bool rng ~p then Station.Transmit else Station.Listen
    in
    let observe ~slot ~perceived ~transmitted =
      if slot > !advanced_slot then begin
        advanced_slot := slot;
        last_outcome := shared.Closure.on_state perceived
      end;
      match !last_outcome with
      | Closure.Continue -> ()
      | Closure.Elected ->
          status := (if transmitted then Station.Leader else Station.Non_leader);
          finished := true
    in
    {
      Station.id;
      decide;
      observe;
      status = (fun () -> !status);
      finished = (fun () -> !finished);
    }

let test_to_station_shared_logic () =
  (* [to_station] shares ONE logic across all stations: election
     semantics must match the distributed adapter in strong-CD. *)
  let shared = Closure.to_uniform (Jamming_core.Lesk.protocol ~eps:0.5 ()) () in
  let factory = to_station shared in
  let rng = rng ~seed:31 () in
  let stations = Engine.make_stations ~n:16 ~rng factory in
  let budget = Budget.create ~window:16 ~eps:0.5 in
  let result =
    Engine.run ~cd:Channel.Strong_cd ~adversary:(Adversary.greedy ()) ~budget
      ~max_slots:100_000 ~stations ()
  in
  check_true "shared-logic adapter elects" (Metrics.election_ok result)

let test_metrics_pp () =
  let r =
    {
      Metrics.slots = 42;
      completed = true;
      elected = true;
      leader = Some 7;
      statuses = [||];
      jammed_slots = 10;
      nulls = 5;
      singles = 1;
      collisions = 36;
      transmissions = 99.5;
      max_station_transmissions = 3;
      energy = None;
    }
  in
  let s = Format.asprintf "%a" Metrics.pp_result r in
  check_true "mentions slot count" (String.length s > 0);
  let r2 = { r with Metrics.completed = false; leader = None } in
  let s2 = Format.asprintf "%a" Metrics.pp_result r2 in
  check_true "mentions the cap" (String.length s2 > String.length "slots: 42")

let test_start_slot_offsets_adversary_view () =
  let seen = ref [] in
  let adv =
    Adversary.stateful ~name:"recorder"
      ~init:(fun () -> ())
      ~wants:(fun () ~slot ~can_jam:_ ->
        seen := slot :: !seen;
        false)
      ~notify:(fun () ~slot:_ ~jammed:_ ~state:_ -> ())
  in
  let rng = rng () in
  let budget = Budget.create ~window:4 ~eps:0.5 in
  let (_ : Metrics.result) =
    Uniform_engine.run ~start_slot:100 ~n:4 ~rng ~protocol:(constant_p 0.0)
      ~adversary:(adv ()) ~budget ~max_slots:3 ()
  in
  Alcotest.(check (list int)) "adversary sees offset slots" [ 102; 101; 100 ] !seen

let prop_uniform_engine_accounting =
  qtest ~count:60 "uniform engine: counters partition the slots, jams read Collision"
    QCheck.(triple (int_range 1 2048) (float_range 0.1 1.0) small_int)
    (fun (n, eps, seed) ->
      let g = Prng.create ~seed in
      let budget = Budget.create ~window:16 ~eps in
      let r =
        Uniform_engine.run ~n ~rng:g
          ~protocol:(Jamming_core.Lesk.protocol ~eps ())
          ~adversary:(Adversary.greedy ()) ~budget ~max_slots:200_000 ()
      in
      r.Metrics.nulls + r.Metrics.singles + r.Metrics.collisions = r.Metrics.slots
      && r.Metrics.jammed_slots <= r.Metrics.collisions
      && r.Metrics.singles <= 1
      && r.Metrics.transmissions >= 0.0)

let prop_exact_engine_accounting =
  qtest ~count:25 "exact engine: counters partition the slots"
    QCheck.(pair (int_range 2 24) small_int)
    (fun (n, seed) ->
      let g = Prng.create ~seed in
      let stations = Engine.make_stations ~n ~rng:g (Jamming_core.Lesk.station ~eps:0.5) in
      let budget = Budget.create ~window:16 ~eps:0.5 in
      let r =
        Engine.run ~cd:Channel.Strong_cd
          ~adversary:(Adversary.greedy ())
          ~budget ~max_slots:200_000 ~stations ()
      in
      r.Metrics.nulls + r.Metrics.singles + r.Metrics.collisions = r.Metrics.slots
      && r.Metrics.jammed_slots <= r.Metrics.collisions
      && float_of_int r.Metrics.max_station_transmissions <= r.Metrics.transmissions
      && Metrics.election_ok r)

let suite =
  [
    ("exact engine resolves scripts", `Quick, test_exact_engine_states);
    ("exact engine honors max_slots", `Quick, test_exact_engine_max_slots);
    ("jamming masks a Single", `Quick, test_jam_turns_single_into_collision);
    ("budget clamps greedy jamming", `Quick, test_budget_violations_impossible);
    ("election_ok postconditions", `Quick, test_election_ok);
    ("timeout with standing leader reports none", `Quick, test_timeout_with_standing_leader);
    prop_active_set_matches_reference;
    ("active set matches reference on staggered finishers", `Quick,
      test_active_set_matches_reference_staggered);
    ("uniform engine elects", `Quick, test_uniform_engine_elects);
    ("uniform engine Many class is a lower bound", `Quick,
      test_uniform_engine_many_is_lower_bound);
    ("uniform engine p=0", `Quick, test_uniform_engine_p_zero_never_elects);
    ("uniform engine validates p", `Quick, test_uniform_engine_rejects_bad_p);
    ("uniform engine energy", `Quick, test_uniform_engine_energy_expectation);
    ("uniform engine determinism", `Quick, test_uniform_engine_determinism);
    ("engines agree on LESK means", `Slow, test_engines_agree_on_means);
    prop_uniform_engine_accounting;
    prop_exact_engine_accounting;
    ("to_station shared-logic adapter", `Quick, test_to_station_shared_logic);
    ("metrics pretty-printer", `Quick, test_metrics_pp);
    ("start_slot offsets slots", `Quick, test_start_slot_offsets_adversary_view);
  ]
