open Test_util
module Monitor = Jamming_sim.Monitor
module Observer = Jamming_sim.Observer

let record ?(transmitters = 0) ?(jammed = false) slot =
  let state = Channel.resolve ~transmitters ~jammed in
  { Metrics.slot; transmitters = Metrics.Exact transmitters; jammed; state }

let feed mon records = List.iter (fun r -> Monitor.on_slot mon ~record:r ~leaders:0) records

let expect_violation check f =
  match f () with
  | () -> Alcotest.failf "expected a %s violation" (Monitor.check_to_string check)
  | exception Monitor.Violation v ->
      Alcotest.(check string)
        "violated check" (Monitor.check_to_string check)
        (Monitor.check_to_string v.Monitor.check);
      v

let test_create_validation () =
  Alcotest.check_raises "window < 1" (Invalid_argument "Monitor.create: window must be >= 1")
    (fun () -> ignore (Monitor.create ~window:0 ~eps:0.5 ()));
  Alcotest.check_raises "eps out of range"
    (Invalid_argument "Monitor.create: eps must lie in (0, 1]") (fun () ->
      ignore (Monitor.create ~window:4 ~eps:0.0 ()))

let test_clean_run_passes () =
  let mon = Monitor.create ~window:4 ~eps:0.5 () in
  (* One jam in four stays within (4, 1/2)-boundedness for every window.
     (Strict alternation would NOT: an odd window holds (L+1)/2 > L/2 jams.) *)
  feed mon (List.init 40 (fun slot -> record ~jammed:(slot mod 4 = 0) slot));
  check_int "forty slots seen" 40 (Monitor.slots_seen mon)

let test_jam_budget_violation () =
  let mon = Monitor.create ~seed:42 ~window:4 ~eps:0.5 () in
  (* Every slot jammed: the first closed window [0, 4) already holds
     4 > (1-eps)*4 = 2 jams. *)
  let v =
    expect_violation Monitor.Jam_budget (fun () ->
        feed mon (List.init 10 (fun slot -> record ~jammed:true slot)))
  in
  check_int "flagged while closing slot 3" 3 v.Monitor.slot;
  Alcotest.(check (option int)) "replay seed attached" (Some 42) v.Monitor.seed;
  check_true "detail mentions the window"
    (String.length (Monitor.violation_to_string v) > 0)

let test_jam_budget_longer_window () =
  (* A pattern that is fine per window-sized blocks but violates over a
     longer stretch: J..J J..J J..J -> any 8-window holds 2 <= 4 jams at
     eps=0.5, but at eps=0.75 the bound is 2, and the 9-slot window
     [0, 9) holds 3. *)
  let pattern slot = slot mod 4 = 0 in
  let mon = Monitor.create ~window:8 ~eps:0.75 () in
  let v =
    expect_violation Monitor.Jam_budget (fun () ->
        feed mon (List.init 20 (fun slot -> record ~jammed:(pattern slot) slot)))
  in
  check_int "flagged at the 9th slot" 8 v.Monitor.slot

let test_consistency_state_mismatch () =
  let mon = Monitor.create ~window:4 ~eps:0.5 () in
  let bogus =
    { Metrics.slot = 0; transmitters = Metrics.Exact 0; jammed = false;
      state = Channel.Collision }
  in
  let v =
    expect_violation Monitor.Slot_consistency (fun () ->
        Monitor.on_slot mon ~record:bogus ~leaders:0)
  in
  check_int "at slot 0" 0 v.Monitor.slot

let test_consistency_at_least () =
  (* An honest ">=2" record is only consistent with Collision; below two
     the exact count is unknown, so any state passes. *)
  let mon = Monitor.create ~window:4 ~eps:0.5 () in
  Monitor.on_slot mon
    ~record:
      { Metrics.slot = 0; transmitters = Metrics.At_least 2; jammed = false;
        state = Channel.Collision }
    ~leaders:0;
  Monitor.on_slot mon
    ~record:
      { Metrics.slot = 1; transmitters = Metrics.At_least 0; jammed = false;
        state = Channel.Single }
    ~leaders:0;
  check_int "both records accepted" 2 (Monitor.slots_seen mon);
  let v =
    expect_violation Monitor.Slot_consistency (fun () ->
        Monitor.on_slot mon
          ~record:
            { Metrics.slot = 2; transmitters = Metrics.At_least 2; jammed = false;
              state = Channel.Single }
          ~leaders:0)
  in
  check_int "flagged the >=2 Single" 2 v.Monitor.slot

let test_consistency_slot_skip () =
  let mon = Monitor.create ~window:4 ~eps:0.5 () in
  Monitor.on_slot mon ~record:(record 0) ~leaders:0;
  let v =
    expect_violation Monitor.Slot_consistency (fun () ->
        Monitor.on_slot mon ~record:(record 2) ~leaders:0)
  in
  check_true "detail mentions the skip"
    (String.length v.Monitor.detail > 0)

let test_two_leaders () =
  let mon = Monitor.create ~window:4 ~eps:0.5 () in
  Monitor.on_slot mon ~record:(record 0) ~leaders:1;
  let v =
    expect_violation Monitor.At_most_one_leader (fun () ->
        Monitor.on_slot mon ~record:(record 1) ~leaders:2)
  in
  check_int "at slot 1" 1 v.Monitor.slot

let test_checks_can_be_disabled () =
  (* safety_checks: two leaders tolerated (faulty runs), but the engine
     invariants stay armed. *)
  let mon = Monitor.create ~checks:Monitor.safety_checks ~window:4 ~eps:0.5 () in
  Monitor.on_slot mon ~record:(record 0) ~leaders:2;
  ignore
    (expect_violation Monitor.Jam_budget (fun () ->
         feed mon (List.init 10 (fun slot -> record ~jammed:true (slot + 1)))));
  (* jam_budget off: an over-jammed pattern sails through... *)
  let off = { Monitor.all_checks with Monitor.jam_budget = false } in
  let mon2 = Monitor.create ~checks:off ~window:4 ~eps:0.5 () in
  feed mon2 (List.init 10 (fun slot -> record ~jammed:true slot));
  check_int "slots still tallied" 10 (Monitor.slots_seen mon2)

let test_check_result_mismatch () =
  let mon = Monitor.create ~window:4 ~eps:0.5 () in
  feed mon [ record 0; record 1 ];
  let result =
    {
      Metrics.slots = 3;
      completed = true;
      elected = false;
      leader = None;
      statuses = [||];
      jammed_slots = 0;
      nulls = 2;
      singles = 0;
      collisions = 0;
      transmissions = 0.0;
      max_station_transmissions = 0;
      energy = None;
    }
  in
  ignore
    (expect_violation Monitor.Slot_consistency (fun () -> Monitor.check_result mon result));
  (* The matching result passes both counter and leader cross-checks. *)
  Monitor.check_result mon
    { result with Metrics.slots = 2; statuses = [| Station.Leader; Station.Non_leader |] }

let test_check_result_two_final_leaders () =
  let mon = Monitor.create ~window:4 ~eps:0.5 () in
  feed mon [ record 0 ];
  let result =
    {
      Metrics.slots = 1;
      completed = true;
      elected = true;
      leader = Some 0;
      statuses = [| Station.Leader; Station.Leader |];
      jammed_slots = 0;
      nulls = 1;
      singles = 0;
      collisions = 0;
      transmissions = 0.0;
      max_station_transmissions = 0;
      energy = None;
    }
  in
  ignore
    (expect_violation Monitor.At_most_one_leader (fun () -> Monitor.check_result mon result))

(* --- engine integration: the monitor catches a seeded violation --- *)

(* A station that instantly (and wrongly) declares itself leader. *)
let self_crowned ~id ~rng:_ =
  let step = ref 0 in
  {
    Station.id;
    decide = (fun ~slot:_ -> incr step; Station.Listen);
    observe = (fun ~slot:_ ~perceived:_ ~transmitted:_ -> ());
    status = (fun () -> if !step > 0 then Station.Leader else Station.Undecided);
    finished = (fun () -> !step >= 3);
  }

let test_engine_catches_two_leaders () =
  (* Two buggy stations both crown themselves: Engine.run with an armed
     monitor must raise rather than return a two-leader result. *)
  let stations = Engine.make_stations ~n:2 ~rng:(rng ()) self_crowned in
  let monitor = Monitor.create ~seed:7 ~window:4 ~eps:0.5 () in
  let v =
    expect_violation Monitor.At_most_one_leader (fun () ->
        ignore
          (Engine.run ~observers:[ Monitor.observer monitor ] ~cd:Channel.Strong_cd ~adversary:(Adversary.none ())
             ~budget:(Budget.create ~window:4 ~eps:0.5)
             ~max_slots:10 ~stations ()))
  in
  check_int "caught on the very first slot" 0 v.Monitor.slot;
  Alcotest.(check (option int)) "replay seed carried" (Some 7) v.Monitor.seed

let test_engine_monitor_agrees_with_budget () =
  (* The monitor mirrors the enforcer independently: a full LESK run under
     a greedy jammer with the SAME (window, eps) must never trip it. *)
  let g = Prng.create ~seed:3 in
  let stations = Engine.make_stations ~n:16 ~rng:g (Jamming_core.Lesk.station ~eps:0.5) in
  let monitor = Monitor.create ~window:16 ~eps:0.5 () in
  let result =
    Engine.run ~observers:[ Monitor.observer monitor ] ~cd:Channel.Strong_cd ~adversary:(Adversary.greedy ())
      ~budget:(Budget.create ~window:16 ~eps:0.5)
      ~max_slots:200_000 ~stations ()
  in
  check_true "run completed" result.Metrics.completed;
  check_int "monitor saw every slot" result.Metrics.slots (Monitor.slots_seen monitor)

let test_engine_monitor_stricter_than_budget () =
  (* Budget allows 75% jamming but the monitor is armed for 10%: the
     cross-check flags the enforcer/monitor disagreement. *)
  let listen_forever ~id ~rng:_ =
    {
      Station.id;
      decide = (fun ~slot:_ -> Station.Listen);
      observe = (fun ~slot:_ ~perceived:_ ~transmitted:_ -> ());
      status = (fun () -> Station.Undecided);
      finished = (fun () -> false);
    }
  in
  let stations = Engine.make_stations ~n:2 ~rng:(rng ()) listen_forever in
  let monitor = Monitor.create ~window:4 ~eps:0.9 () in
  ignore
    (expect_violation Monitor.Jam_budget (fun () ->
         ignore
           (Engine.run ~observers:[ Monitor.observer monitor ] ~cd:Channel.Strong_cd ~adversary:(Adversary.greedy ())
              ~budget:(Budget.create ~window:4 ~eps:0.25)
              ~max_slots:100 ~stations ())))

(* --- dynamic-population extensions: skip_to / report / slot_observer --- *)

let test_skip_to_bridges_gap () =
  let mon = Monitor.create ~window:4 ~eps:0.5 () in
  feed mon (List.init 5 record);
  Monitor.skip_to mon ~from:5 ~upto:20 ~leaders:1;
  Monitor.on_slot mon ~record:(record 20) ~leaders:1;
  check_int "gap slots tallied" 21 (Monitor.slots_seen mon);
  (* The gap counted as unjammed Nulls: the aggregate cross-check agrees. *)
  Monitor.check_result mon
    {
      Metrics.slots = 21;
      completed = true;
      elected = false;
      leader = None;
      statuses = [||];
      jammed_slots = 0;
      nulls = 21;
      singles = 0;
      collisions = 0;
      transmissions = 0.0;
      max_station_transmissions = 0;
      energy = None;
    };
  (* Empty gaps are legal and feed nothing. *)
  Monitor.skip_to mon ~from:21 ~upto:21 ~leaders:1;
  check_int "empty gap is a no-op" 21 (Monitor.slots_seen mon)

let test_skip_to_mismatch () =
  let mon = Monitor.create ~window:4 ~eps:0.5 () in
  Monitor.on_slot mon ~record:(record 0) ~leaders:0;
  ignore
    (expect_violation Monitor.Slot_consistency (fun () ->
         Monitor.skip_to mon ~from:2 ~upto:5 ~leaders:0));
  Alcotest.check_raises "upto < from rejected"
    (Invalid_argument "Monitor.skip_to: upto must be >= from") (fun () ->
      let m = Monitor.create ~window:4 ~eps:0.5 () in
      Monitor.skip_to m ~from:3 ~upto:2 ~leaders:0)

let test_skip_to_budget_coherent () =
  (* Gap slots participate in jam-budget windows as unjammed slots: a
     burst right after a long calm gap is fine (headroom recovered)... *)
  let mon = Monitor.create ~window:4 ~eps:0.5 () in
  feed mon [ record ~jammed:true 0; record ~jammed:true 1 ];
  Monitor.skip_to mon ~from:2 ~upto:50 ~leaders:1;
  feed mon [ record ~jammed:true 50; record ~jammed:true 51 ];
  check_int "calm gap restores headroom" 52 (Monitor.slots_seen mon);
  (* ...but a third consecutive jam still breaks the (4, 1/2) bound:
     the window [49, 53) closed with 3 > 2 jams, proving the gap's
     prefix sums stayed live across the fast-forward. *)
  let v =
    expect_violation Monitor.Jam_budget (fun () ->
        Monitor.on_slot mon ~record:(record ~jammed:true 52) ~leaders:1)
  in
  check_int "flagged at the slot closing the window" 52 v.Monitor.slot

let test_report_attaches_seed () =
  let mon = Monitor.create ~seed:7 ~window:4 ~eps:0.5 () in
  let v =
    expect_violation Monitor.Live_leader (fun () ->
        Monitor.report mon ~slot:11 ~check:Monitor.Live_leader
          "election started with leader %d live" 3)
  in
  check_int "at the reported slot" 11 v.Monitor.slot;
  Alcotest.(check (option int)) "replay seed attached" (Some 7) v.Monitor.seed;
  check_true "formatted detail survives"
    (v.Monitor.detail = "election started with leader 3 live");
  check_true "population check has a name"
    (Monitor.check_to_string Monitor.Population <> Monitor.check_to_string Monitor.Live_leader)

let test_slot_observer_ignores_segment_results () =
  let mon = Monitor.create ~window:4 ~eps:0.5 () in
  let obs = Monitor.slot_observer mon in
  obs.Observer.on_slot (record 0) ~leaders:1;
  obs.Observer.on_slot (record 1) ~leaders:1;
  check_int "slots flow through" 2 (Monitor.slots_seen mon);
  let bogus_segment =
    {
      Metrics.slots = 999;
      completed = false;
      elected = false;
      leader = None;
      statuses = [||];
      jammed_slots = 999;
      nulls = 0;
      singles = 0;
      collisions = 0;
      transmissions = 0.0;
      max_station_transmissions = 0;
      energy = None;
    }
  in
  (* Per-segment totals must not be mistaken for run totals. *)
  obs.Observer.on_result bogus_segment;
  (* The plain observer would have flagged the same result. *)
  ignore
    (expect_violation Monitor.Slot_consistency (fun () ->
         (Monitor.observer mon).Observer.on_result bogus_segment));
  check_true "leader scan still requested when the check is armed"
    (Monitor.slot_observer mon).Observer.needs_leaders

let suite =
  [
    ("create validation", `Quick, test_create_validation);
    ("clean run passes", `Quick, test_clean_run_passes);
    ("jam-budget violation", `Quick, test_jam_budget_violation);
    ("jam-budget longer window", `Quick, test_jam_budget_longer_window);
    ("consistency: state mismatch", `Quick, test_consistency_state_mismatch);
    ("consistency: at-least counts", `Quick, test_consistency_at_least);
    ("consistency: slot skip", `Quick, test_consistency_slot_skip);
    ("two simultaneous leaders", `Quick, test_two_leaders);
    ("checks can be disabled", `Quick, test_checks_can_be_disabled);
    ("check_result counter mismatch", `Quick, test_check_result_mismatch);
    ("check_result two final leaders", `Quick, test_check_result_two_final_leaders);
    ("engine catches seeded two-leader bug", `Quick, test_engine_catches_two_leaders);
    ("engine monitor agrees with enforcer", `Quick, test_engine_monitor_agrees_with_budget);
    ("engine monitor stricter than enforcer", `Quick, test_engine_monitor_stricter_than_budget);
    ("skip_to bridges stable gaps", `Quick, test_skip_to_bridges_gap);
    ("skip_to slot mismatch", `Quick, test_skip_to_mismatch);
    ("skip_to jam-budget coherence", `Quick, test_skip_to_budget_coherent);
    ("report attaches replay seed", `Quick, test_report_attaches_seed);
    ("slot_observer ignores segment results", `Quick, test_slot_observer_ignores_segment_results);
  ]
