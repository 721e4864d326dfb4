(* Self-healing dynamic driver (DESIGN.md §12): chained elections over
   a churning population.  The deterministic "min-id" protocol below
   makes every expectation exact — the station whose global id is
   smallest transmits first and alone, so an attempt over roster G
   elects min(G) after exactly min(G)+1 slots — which lets these tests
   pin slot-accurate traces for joins, leaves, adaptive kills, restart
   deadlines and leaderless bookkeeping. *)

open Test_util
module Dynamic = Jamming_sim.Dynamic
module Monitor = Jamming_sim.Monitor
module Churn = Jamming_faults.Churn
module E = Jamming_experiments

(* Transmits at the [id]-th slot it lives through; wins iff it hears
   its own Single.  Deterministic: no randomness at all. *)
let min_id_station ~id =
  let local = ref 0 in
  let status = ref Station.Undecided in
  let fin = ref false in
  {
    Station.id;
    decide =
      (fun ~slot:_ ->
        let t = !local in
        incr local;
        if t = id then Station.Transmit else Station.Listen);
    observe =
      (fun ~slot:_ ~perceived ~transmitted ->
        match perceived with
        | Channel.Single ->
            fin := true;
            status := (if transmitted then Station.Leader else Station.Non_leader)
        | Channel.Null | Channel.Collision -> ());
    status = (fun () -> !status);
    finished = (fun () -> !fin);
  }

let spawn_min_id ~birth:_ ~id = min_id_station ~id

let listen_forever ~id =
  {
    Station.id;
    decide = (fun ~slot:_ -> Station.Listen);
    observe = (fun ~slot:_ ~perceived:_ ~transmitted:_ -> ());
    status = (fun () -> Station.Undecided);
    finished = (fun () -> false);
  }

let born_finished ~id =
  {
    Station.id;
    decide = (fun ~slot:_ -> Station.Listen);
    observe = (fun ~slot:_ ~perceived:_ ~transmitted:_ -> ());
    status = (fun () -> Station.Non_leader);
    finished = (fun () -> true);
  }

let quiet_run ?restart_after ?events ?kill ?victim_rng ?monitor ?(max_slots = 50) ~init
    spawn =
  Dynamic.run ?restart_after ?events ?kill ?victim_rng ?monitor ~cd:Channel.Strong_cd
    ~adversary:(Adversary.none ())
    ~budget:(Budget.create ~window:4 ~eps:1.0)
    ~max_slots ~init ~spawn ()

let join at k = { Churn.at; kind = Churn.Join k }
let leave at v = { Churn.at; kind = Churn.Leave v }

(* Every result must satisfy the interval bookkeeping identity. *)
let check_intervals what (r : Dynamic.result) =
  check_int
    (what ^ ": leaderless slots are the sum of the intervals")
    r.Dynamic.leaderless_slots
    (List.fold_left ( + ) 0 r.Dynamic.leaderless_intervals)

let test_validation () =
  let expect_invalid what f =
    match f () with
    | exception Invalid_argument _ -> ()
    | _ -> Alcotest.failf "%s accepted" what
  in
  expect_invalid "negative init" (fun () -> quiet_run ~init:(-1) spawn_min_id);
  expect_invalid "negative max_slots" (fun () ->
      quiet_run ~max_slots:(-1) ~init:1 spawn_min_id);
  expect_invalid "restart_after 0" (fun () ->
      quiet_run ~restart_after:0 ~init:1 spawn_min_id);
  expect_invalid "negative kill count" (fun () ->
      quiet_run ~kill:(0, -1) ~init:1 spawn_min_id);
  expect_invalid "unsorted events" (fun () ->
      quiet_run ~events:[ join 5 1; join 3 1 ] ~init:1 spawn_min_id)

let test_single_epoch_matches_engine () =
  let r = quiet_run ~init:3 spawn_min_id in
  let static =
    Engine.run ~cd:Channel.Strong_cd ~adversary:(Adversary.none ())
      ~budget:(Budget.create ~window:4 ~eps:1.0)
      ~max_slots:50
      ~stations:(Array.init 3 (fun id -> min_id_station ~id))
      ()
  in
  check_true "static run elected" static.Metrics.elected;
  check_int "one slot: station 0 transmits immediately" 1 static.Metrics.slots;
  (match r.Dynamic.epochs with
  | [ e ] ->
      check_true "sole epoch is bit-identical to the static engine"
        (Metrics.equal_result static e.Dynamic.attempt);
      check_int "epoch starts at 0" 0 e.Dynamic.start_slot;
      check_int "epoch population" 3 e.Dynamic.population;
      Alcotest.(check (option int)) "epoch leader gid" (Some 0) e.Dynamic.leader
  | es -> Alcotest.failf "expected 1 epoch, got %d" (List.length es));
  check_int "total slots" 1 r.Dynamic.total_slots;
  check_int "all slots simulated" 1 r.Dynamic.simulated_slots;
  check_int "one election" 1 r.Dynamic.elections_completed;
  check_int "no failures" 0 r.Dynamic.elections_failed;
  Alcotest.(check (list int)) "one leaderless interval" [ 1 ] r.Dynamic.leaderless_intervals;
  check_int "final population" 3 r.Dynamic.final_population;
  Alcotest.(check (option int)) "final leader" (Some 0) r.Dynamic.final_leader;
  check_intervals "single epoch" r

let test_empty_run () =
  let r = quiet_run ~init:0 spawn_min_id in
  check_int "no slots" 0 r.Dynamic.total_slots;
  check_int "no elections" 0 (r.Dynamic.elections_completed + r.Dynamic.elections_failed);
  check_true "no epochs" (r.Dynamic.epochs = []);
  check_int "empty final population" 0 r.Dynamic.final_population;
  Alcotest.(check (list int)) "no leaderless intervals" [] r.Dynamic.leaderless_intervals

let test_join_while_stable () =
  let r = quiet_run ~init:2 ~events:[ join 5 3 ] spawn_min_id in
  check_int "arrivals counted" 3 r.Dynamic.arrivals;
  check_int "joiners adopt the live leader silently" 1 r.Dynamic.elections_completed;
  check_int "run ends at the last event" 5 r.Dynamic.total_slots;
  check_int "only the election was simulated" 1 r.Dynamic.simulated_slots;
  check_int "population grew" 5 r.Dynamic.final_population;
  Alcotest.(check (option int)) "leader unchanged" (Some 0) r.Dynamic.final_leader;
  check_int "leaderless only during the election" 1 r.Dynamic.leaderless_slots;
  check_intervals "join while stable" r

let test_join_while_empty () =
  let r = quiet_run ~init:0 ~events:[ join 4 2 ] spawn_min_id in
  check_int "arrivals counted" 2 r.Dynamic.arrivals;
  check_int "election started on arrival" 1 r.Dynamic.elections_completed;
  (* Empty slots 0-3 fast-forward, then min-id 0 wins in one slot. *)
  check_int "total slots" 5 r.Dynamic.total_slots;
  check_int "one simulated slot" 1 r.Dynamic.simulated_slots;
  Alcotest.(check (option int)) "first joiner wins" (Some 0) r.Dynamic.final_leader;
  Alcotest.(check (list int)) "leaderless only while electing" [ 1 ]
    r.Dynamic.leaderless_intervals;
  check_intervals "join while empty" r

let test_leave_leader_reelects () =
  let r = quiet_run ~init:3 ~events:[ leave 4 Churn.Leader ] spawn_min_id in
  check_int "two elections completed" 2 r.Dynamic.elections_completed;
  check_int "one re-election" 1 r.Dynamic.re_elections;
  check_int "the dead leader departed" 1 r.Dynamic.departures;
  (* Epoch 1: gid 0 wins at slot 1.  Epoch 2 starts at 4 over {1, 2}:
     gid 1 transmits at its second live slot, so 2 more slots. *)
  check_int "total slots" 6 r.Dynamic.total_slots;
  check_int "simulated slots" 3 r.Dynamic.simulated_slots;
  Alcotest.(check (option int)) "survivor with smallest gid wins" (Some 1)
    r.Dynamic.final_leader;
  check_int "final population" 2 r.Dynamic.final_population;
  Alcotest.(check (list int)) "both elections were leaderless windows" [ 1; 2 ]
    r.Dynamic.leaderless_intervals;
  (match r.Dynamic.epochs with
  | [ e1; e2 ] ->
      Alcotest.(check (option int)) "epoch 1 leader" (Some 0) e1.Dynamic.leader;
      check_int "epoch 2 starts when the leader died" 4 e2.Dynamic.start_slot;
      check_int "epoch 2 population" 2 e2.Dynamic.population;
      Alcotest.(check (option int)) "epoch 2 leader" (Some 1) e2.Dynamic.leader
  | es -> Alcotest.failf "expected 2 epochs, got %d" (List.length es));
  check_intervals "leave leader" r

let test_leave_member_while_stable () =
  (* A single follower: the victim pick is deterministic, no rng needed. *)
  let r = quiet_run ~init:2 ~events:[ leave 3 Churn.Member ] spawn_min_id in
  check_int "one departure" 1 r.Dynamic.departures;
  check_int "no re-election" 0 r.Dynamic.re_elections;
  Alcotest.(check (option int)) "leader survives" (Some 0) r.Dynamic.final_leader;
  check_int "final population" 1 r.Dynamic.final_population;
  check_intervals "leave member" r

let test_member_pick_needs_rng () =
  (* Two followers: the uniform victim pick needs the seeded stream. *)
  (match quiet_run ~init:3 ~events:[ leave 3 Churn.Member ] spawn_min_id with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "victimless pick among several stations accepted");
  let r =
    quiet_run ~init:3
      ~events:[ leave 3 Churn.Member ]
      ~victim_rng:(rng ()) spawn_min_id
  in
  check_int "seeded pick applied" 1 r.Dynamic.departures;
  check_int "population shrank" 2 r.Dynamic.final_population

let test_leave_during_election_empties () =
  (* One station that needs 3 slots (global id 0 shifted by 2); the
     leader-leave lands mid-election, degrades to a member leave and
     empties the roster: the attempt fails. *)
  let spawn ~birth:_ ~id = min_id_station ~id:(id + 2) in
  let r = quiet_run ~init:1 ~events:[ leave 2 Churn.Leader ] spawn in
  check_int "no elections completed" 0 r.Dynamic.elections_completed;
  check_int "the emptied attempt failed" 1 r.Dynamic.elections_failed;
  check_int "no re-election: there was no leader" 0 r.Dynamic.re_elections;
  check_int "one departure" 1 r.Dynamic.departures;
  check_int "total slots" 2 r.Dynamic.total_slots;
  check_int "final population" 0 r.Dynamic.final_population;
  Alcotest.(check (option int)) "no leader" None r.Dynamic.final_leader;
  (match r.Dynamic.epochs with
  | [ e ] ->
      Alcotest.(check (option int)) "failed epoch has no leader" None e.Dynamic.leader;
      check_int "the partial attempt was recorded" 2 e.Dynamic.attempt.Metrics.slots
  | es -> Alcotest.failf "expected 1 epoch, got %d" (List.length es));
  check_intervals "emptied election" r

let test_leader_killer_chain () =
  let monitor = Monitor.create ~seed:1 ~window:4 ~eps:1.0 () in
  let r = quiet_run ~kill:(2, 2) ~monitor ~init:3 spawn_min_id in
  (* Elections at 0 (gid 0, 1 slot), 3 (gid 1, 2 slots), 7 (gid 2,
     3 slots); kills 2 slots after each completion. *)
  check_int "three elections" 3 r.Dynamic.elections_completed;
  check_int "both kills landed" 2 r.Dynamic.leader_kills;
  check_int "each kill forced a re-election" 2 r.Dynamic.re_elections;
  check_int "killed leaders departed" 2 r.Dynamic.departures;
  check_int "total slots" 10 r.Dynamic.total_slots;
  check_int "simulated slots" 6 r.Dynamic.simulated_slots;
  Alcotest.(check (list int)) "downtime grows as cheap leaders die" [ 1; 2; 3 ]
    r.Dynamic.leaderless_intervals;
  Alcotest.(check (option int)) "last station standing leads" (Some 2)
    r.Dynamic.final_leader;
  check_int "final population" 1 r.Dynamic.final_population;
  (* The one monitor spanned segments and gaps alike. *)
  check_int "monitor saw every wall-clock slot" r.Dynamic.total_slots
    (Monitor.slots_seen monitor);
  check_intervals "leader-killer chain" r

let test_restart_after_stall () =
  let spawn ~birth:_ ~id = listen_forever ~id in
  let r = quiet_run ~restart_after:5 ~max_slots:17 ~init:2 spawn in
  (* Deadline restarts at 5, 10, 15; the 4th attempt is truncated after
     2 slots and counts as failed too. *)
  check_int "no election ever completed" 0 r.Dynamic.elections_completed;
  check_int "three deadline restarts plus the truncated tail" 4 r.Dynamic.elections_failed;
  check_int "deadline restarts are not leader deaths" 0 r.Dynamic.re_elections;
  check_int "ran to the cap" 17 r.Dynamic.total_slots;
  check_int "every slot simulated" 17 r.Dynamic.simulated_slots;
  Alcotest.(check (list int))
    "consecutive failures merge into one leaderless interval" [ 17 ]
    r.Dynamic.leaderless_intervals;
  check_int "stations survive their incarnations" 2 r.Dynamic.final_population;
  Alcotest.(check (option int)) "never healed" None r.Dynamic.final_leader;
  check_int "four epochs" 4 (List.length r.Dynamic.epochs);
  List.iter
    (fun (e : Dynamic.epoch) ->
      Alcotest.(check (option int)) "every epoch failed" None e.Dynamic.leader)
    r.Dynamic.epochs;
  check_intervals "restart stall" r

let test_zero_slot_attempts_terminate () =
  (* Every incarnation is born finished: each attempt completes in zero
     slots without a leader.  The driver must burn an idle slot per
     restart instead of livelocking at slot 0. *)
  let spawn ~birth:_ ~id = born_finished ~id in
  let r = quiet_run ~max_slots:5 ~init:2 spawn in
  check_int "bounded by max_slots" 5 r.Dynamic.total_slots;
  check_int "one failure per burned slot" 5 r.Dynamic.elections_failed;
  check_int "nothing simulated" 0 r.Dynamic.simulated_slots;
  check_int "population intact" 2 r.Dynamic.final_population;
  check_intervals "zero-slot attempts" r

let test_json_roundtrip () =
  let r =
    quiet_run ~kill:(2, 2)
      ~events:[ join 2 1; leave 9 Churn.Member ]
      ~victim_rng:(rng ()) ~init:3 spawn_min_id
  in
  (match Dynamic.result_of_json (Dynamic.result_to_json r) with
  | Ok r' -> check_true "round-trips bit-identically" (Dynamic.equal_result r r')
  | Error e -> Alcotest.failf "decode failed: %s" e);
  (* Defensive decode: malformed documents are errors, not exceptions. *)
  List.iter
    (fun j ->
      match Dynamic.result_of_json j with
      | Error _ -> ()
      | Ok _ -> Alcotest.fail "decoded a malformed document")
    [
      Jamming_telemetry.Json.Null;
      Jamming_telemetry.Json.Obj [ ("total_slots", Jamming_telemetry.Json.String "x") ];
    ]

let test_of_static_shape () =
  let elected =
    {
      Metrics.slots = 7;
      completed = true;
      elected = true;
      leader = Some 2;
      statuses = [| Station.Non_leader; Station.Non_leader; Station.Leader |];
      jammed_slots = 1;
      nulls = 4;
      singles = 1;
      collisions = 2;
      transmissions = 5.0;
      max_station_transmissions = 3;
      energy = None;
    }
  in
  let d = Dynamic.of_static elected in
  check_int "one completed election" 1 d.Dynamic.elections_completed;
  check_int "no failures" 0 d.Dynamic.elections_failed;
  check_int "slots carried over" 7 d.Dynamic.total_slots;
  Alcotest.(check (option int)) "leader carried over" (Some 2) d.Dynamic.final_leader;
  Alcotest.(check (list int)) "the whole run was leaderless" [ 7 ]
    d.Dynamic.leaderless_intervals;
  check_int "population from statuses" 3 d.Dynamic.final_population;
  check_intervals "of_static elected" d;
  let truncated = { elected with Metrics.completed = false; elected = false; leader = None } in
  let d = Dynamic.of_static truncated in
  check_int "truncated run counts one failure" 1 d.Dynamic.elections_failed;
  Alcotest.(check (option int)) "no leader" None d.Dynamic.final_leader

(* --- Runner integration: the zero-churn bit-identity guarantee --- *)

let setup = { E.Runner.n = 16; eps = 0.5; window = 16; max_slots = 50_000 }

let engines =
  [
    ("uniform", E.Runner.Uniform (E.Specs.lesk ~eps:0.5));
    ( "exact",
      E.Runner.Exact
        {
          name = "LESK-exact";
          cd = Channel.Strong_cd;
          factory = Jamming_core.Lesk.station ~eps:0.5;
        } );
    ( "faulty",
      E.Runner.Faulty
        {
          name = "LESK-faulty";
          cd = Channel.Strong_cd;
          factory = Jamming_core.Lesk.station ~eps:0.5;
          faults =
            {
              Jamming_faults.Config.perception = Jamming_faults.Perception.uniform ~p:0.05;
              p_crash = 0.0;
              crash_horizon = 1;
              p_sleep = 0.0;
              sleep_horizon = 1;
              max_sleep = 1;
              p_late_wake = 0.0;
              max_wake_delay = 1;
            };
          monitor_checks = None;
        } );
  ]

let test_null_churn_is_the_static_run () =
  List.iter
    (fun (what, engine) ->
      let static = E.Runner.run ~engine setup E.Specs.greedy ~seed:7 in
      let churned =
        E.Runner.run_churn ~engine ~churn:Churn.none setup E.Specs.greedy ~seed:7
      in
      check_true
        (what ^ ": null churn is bit-identical to the static engine")
        (Dynamic.equal_result (Dynamic.of_static static) churned))
    engines

(* Null churn takes the static shortcut, but only on an engine a churn
   run accepts: both entry points reject the class-counting and the
   pooled engines alike. *)
let test_null_churn_rejects_static_only_engines () =
  List.iter
    (fun (what, engine) ->
      let refusal where =
        Invalid_argument (Printf.sprintf "%s: the %s engine does not support churn" where what)
      in
      Alcotest.check_raises (what ^ ": run_churn") (refusal "Runner") (fun () ->
          ignore
            (E.Runner.run_churn ~engine ~churn:Churn.none setup E.Specs.greedy ~seed:1
              : Dynamic.result));
      Alcotest.check_raises (what ^ ": Cell.v") (refusal "Runner.Cell") (fun () ->
          ignore
            (E.Runner.Cell.v ~churn:Churn.none ~engine ~reps:1 setup E.Specs.greedy
              : E.Runner.Cell.t)))
    [
      ("pooled", E.Runner.pooled_lewk ~eps:0.5 ());
      ("aggregate", E.Runner.aggregate_lesk ~eps:0.5 ());
    ]

let test_runner_churn_deterministic () =
  let engine = List.assoc "exact" engines in
  let churn = Churn.Leader_killer { grace = 20; max_kills = 2 } in
  let go () = E.Runner.run_churn ~engine ~churn setup E.Specs.no_jamming ~seed:3 in
  let r = go () in
  check_true "same seed, same dynamic run" (Dynamic.equal_result r (go ()));
  check_int "both kills landed" 2 r.Dynamic.leader_kills;
  check_int "the chain healed every time" 3 r.Dynamic.elections_completed;
  check_true "run healed" (r.Dynamic.final_leader <> None);
  check_int "killed leaders departed" 2 r.Dynamic.departures;
  check_intervals "killer over LESK" r

let test_runner_churn_rate_accounting () =
  let engine = List.assoc "exact" engines in
  let churn =
    Churn.Rate { every = 64; p_join = 0.5; p_leave = 0.5; max_burst = 2; horizon = 4096 }
  in
  let r = E.Runner.run_churn ~engine ~churn setup E.Specs.no_jamming ~seed:5 in
  check_true "rates this high produce churn" (r.Dynamic.arrivals + r.Dynamic.departures > 0);
  check_int "books balance"
    (setup.E.Runner.n + r.Dynamic.arrivals - r.Dynamic.departures)
    r.Dynamic.final_population;
  check_intervals "rate churn over LESK" r;
  (* Adding churn must not perturb the static streams: the first epoch
     starts exactly like the churn-free run (same station seeds). *)
  let static = E.Runner.run ~engine setup E.Specs.no_jamming ~seed:5 in
  match r.Dynamic.epochs with
  | e :: _ ->
      check_true "first attempt starts from the static seeds"
        (e.Dynamic.start_slot = 0 && e.Dynamic.population = setup.E.Runner.n);
      (* If no churn event landed before the first election completed,
         the whole first epoch is the static run. *)
      if e.Dynamic.attempt.Metrics.slots < 64 then
        check_true "early first epoch is bit-identical to static"
          (Metrics.equal_result static e.Dynamic.attempt)
  | [] -> Alcotest.fail "rate churn run produced no epochs"

let suite =
  [
    ("argument validation", `Quick, test_validation);
    ("single epoch matches the engine", `Quick, test_single_epoch_matches_engine);
    ("empty run", `Quick, test_empty_run);
    ("join while stable", `Quick, test_join_while_stable);
    ("join while empty", `Quick, test_join_while_empty);
    ("leave leader re-elects", `Quick, test_leave_leader_reelects);
    ("leave member while stable", `Quick, test_leave_member_while_stable);
    ("member pick needs the victim stream", `Quick, test_member_pick_needs_rng);
    ("leave during election empties the roster", `Quick, test_leave_during_election_empties);
    ("leader-killer chain", `Quick, test_leader_killer_chain);
    ("restart after a stall", `Quick, test_restart_after_stall);
    ("zero-slot attempts terminate", `Quick, test_zero_slot_attempts_terminate);
    ("json round-trip", `Quick, test_json_roundtrip);
    ("of_static shape", `Quick, test_of_static_shape);
    ("null churn is the static run", `Quick, test_null_churn_is_the_static_run);
    ( "null churn rejects static-only engines",
      `Quick,
      test_null_churn_rejects_static_only_engines );
    ("runner churn deterministic", `Quick, test_runner_churn_deterministic);
    ("runner rate churn accounting", `Quick, test_runner_churn_rate_accounting);
  ]
